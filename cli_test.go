package nvramfs_test

import (
	"bufio"
	"bytes"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"nvramfs/internal/daemon"
	"nvramfs/internal/trace"
)

// TestCLI builds the four command-line tools and drives them end to end:
// generate a trace file, inspect it, simulate against it, and run the
// server study. Skipped under -short (it shells out to the Go toolchain).
func TestCLI(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI integration test skipped in -short mode")
	}
	dir := t.TempDir()
	bin := func(name string) string { return filepath.Join(dir, name) }
	for _, tool := range []string{"nvtrace", "nvsim", "nvlfs", "nvreport"} {
		out, err := exec.Command("go", "build", "-o", bin(tool), "./cmd/"+tool).CombinedOutput()
		if err != nil {
			t.Fatalf("building %s: %v\n%s", tool, err, out)
		}
	}
	run := func(name string, args ...string) string {
		t.Helper()
		out, err := exec.Command(bin(name), args...).CombinedOutput()
		if err != nil {
			t.Fatalf("%s %v: %v\n%s", name, args, err, out)
		}
		return string(out)
	}

	// Generate one small trace file.
	out := run("nvtrace", "-trace", "7", "-scale", "0.02", "-out", dir)
	if !strings.Contains(out, "trace7.nvft") {
		t.Fatalf("nvtrace output: %s", out)
	}
	tracePath := filepath.Join(dir, "trace7.nvft")
	if fi, err := os.Stat(tracePath); err != nil || fi.Size() == 0 {
		t.Fatalf("trace file missing: %v", err)
	}

	// Inspect it.
	out = run("nvtrace", "-stats", tracePath)
	if !strings.Contains(out, "bytes written") {
		t.Fatalf("nvtrace -stats output: %s", out)
	}
	out = run("nvtrace", "-dump", tracePath, "-n", "5")
	if !strings.Contains(out, "(5 events shown)") {
		t.Fatalf("nvtrace -dump output: %s", out)
	}

	// A template config round-trips through generation.
	tmpl := run("nvtrace", "-template")
	cfgPath := filepath.Join(dir, "custom.json")
	if err := os.WriteFile(cfgPath, []byte(tmpl), 0o644); err != nil {
		t.Fatal(err)
	}

	// Simulate against the trace file.
	out = run("nvsim", "-file", tracePath, "-model", "unified", "-volatile", "4", "-nvram", "0.5")
	if !strings.Contains(out, "net write traffic") {
		t.Fatalf("nvsim output: %s", out)
	}
	out = run("nvsim", "-file", tracePath, "-sweep-models", "-volatile", "4", "-nvram", "0.5")
	if !strings.Contains(out, "hybrid") {
		t.Fatalf("nvsim -sweep-models output: %s", out)
	}

	// Fault injection: a run over a lossy wire reports the retry and
	// degradation stats, with the filled-in schedule in the banner.
	out = run("nvsim", "-file", tracePath, "-model", "unified",
		"-faults", "seed=7,drop=0.2")
	if !strings.Contains(out, "fault injection: seed=7") || !strings.Contains(out, "retries:") {
		t.Fatalf("nvsim -faults output: %s", out)
	}

	// Durable kill/reopen: the crash harness against a real image file, on
	// both the cache write-back backlog and the LFS write buffer.
	durDir := filepath.Join(dir, "durable")
	if err := os.Mkdir(durDir, 0o755); err != nil {
		t.Fatal(err)
	}
	out = run("nvsim", "-file", tracePath, "-model", "unified",
		"-durable", durDir, "-crash-at", "500", "-faults", "outage=0s+never")
	if !strings.Contains(out, "durable recovery: exact") || !strings.Contains(out, "parked deliveries") {
		t.Fatalf("nvsim -durable output: %s", out)
	}
	out = run("nvsim", "-file", tracePath, "-durable", durDir, "-durable-lfs", "-crash-at", "500")
	if !strings.Contains(out, "durable recovery: exact") || !strings.Contains(out, "checkpoint seq") {
		t.Fatalf("nvsim -durable -durable-lfs output: %s", out)
	}

	// Flag validation: bad fault specs, out-of-range crash points, and
	// non-positive worker counts must fail with self-explaining messages.
	fail := func(wantMention string, name string, args ...string) {
		t.Helper()
		out, err := exec.Command(bin(name), args...).CombinedOutput()
		if err == nil {
			t.Fatalf("%s %v succeeded:\n%s", name, args, out)
		}
		if !strings.Contains(string(out), wantMention) {
			t.Fatalf("%s %v error should mention %q:\n%s", name, args, wantMention, out)
		}
	}
	fail("valid keys", "nvsim", "-file", tracePath, "-faults", "bogus=1")
	fail("[0,1]", "nvsim", "-file", tracePath, "-faults", "drop=2")
	fail("beyond the trace", "nvsim", "-file", tracePath, "-crash-at", "99999999")
	fail("needs -faults", "nvsim", "-file", tracePath, "-durable", durDir)
	fail("needs -durable", "nvsim", "-file", tracePath, "-durable-lfs")
	fail("not positive", "nvreport", "-j", "0", "-exp", "table1")
	fail("not positive", "nvreport", "-j", "-3", "-exp", "table1")
	fail("not positive", "nvreport", "-scale", "0", "-exp", "table1")

	// The server study.
	out = run("nvlfs", "-fs", "/user6", "-days", "0.2", "-compare")
	if !strings.Contains(out, "/user6") {
		t.Fatalf("nvlfs output: %s", out)
	}

	// One quick report experiment with CSV export, on two workers.
	csvDir := filepath.Join(dir, "csv")
	if err := os.Mkdir(csvDir, 0o755); err != nil {
		t.Fatal(err)
	}
	out = run("nvreport", "-exp", "table1,sort", "-csv", csvDir, "-j", "2")
	if !strings.Contains(out, "Table 1") {
		t.Fatalf("nvreport output: %s", out)
	}
	if _, err := os.Stat(filepath.Join(csvDir, "sort.csv")); err != nil {
		t.Fatalf("CSV not written: %v", err)
	}

	// The degraded experiment renders its fault table at tiny scale.
	out = run("nvreport", "-exp", "degraded", "-scale", "0.01", "-j", "2")
	if !strings.Contains(out, "Degraded mode") || !strings.Contains(out, "outage60s") {
		t.Fatalf("nvreport -exp degraded output: %s", out)
	}

	// An unknown experiment name must fail and list the valid ones.
	badOut, err := exec.Command(bin("nvreport"), "-exp", "bogus").CombinedOutput()
	if err == nil {
		t.Fatalf("nvreport -exp bogus succeeded:\n%s", badOut)
	}
	if !strings.Contains(string(badOut), "bogus") || !strings.Contains(string(badOut), "fig2") {
		t.Fatalf("nvreport -exp bogus output should name the bad and valid experiments:\n%s", badOut)
	}
}

// TestNvramdRunsOnTwoPs starts the built daemon the way a one-CPU
// confinement would have the runtime size it (GOMAXPROCS=1 in the
// environment) and requires that it raised itself to two Ps anyway — the
// write-back goroutine's msync barrier needs a P the handlers are not
// waiting for — then that it serves and drains cleanly on SIGTERM.
func TestNvramdRunsOnTwoPs(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI integration test skipped in -short mode")
	}
	dir := t.TempDir()
	bin := filepath.Join(dir, "nvramd")
	if out, err := exec.Command("go", "build", "-o", bin, "./cmd/nvramd").CombinedOutput(); err != nil {
		t.Fatalf("building nvramd: %v\n%s", err, out)
	}
	cmd := exec.Command(bin, "-addr", "127.0.0.1:0", "-metrics", "127.0.0.1:0", "-dir", filepath.Join(dir, "state"))
	cmd.Env = append(os.Environ(), "GOMAXPROCS=1")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer cmd.Process.Kill() // no-op once it has exited

	// RECOVERED=, ADDR= and METRICS= arrive in that order.
	var addr, metricsURL string
	for sc := bufio.NewScanner(stdout); metricsURL == "" && sc.Scan(); {
		if v, ok := strings.CutPrefix(sc.Text(), "ADDR="); ok {
			addr = v
		}
		if v, ok := strings.CutPrefix(sc.Text(), "METRICS="); ok {
			metricsURL = v
		}
	}
	if addr == "" || metricsURL == "" {
		t.Fatalf("nvramd announced ADDR=%q METRICS=%q\n%s", addr, metricsURL, stderr.String())
	}

	resp, err := http.Get(metricsURL)
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(body), "\nnvramd_gomaxprocs 2\n") {
		t.Fatalf("/metrics does not report nvramd_gomaxprocs 2 under GOMAXPROCS=1:\n%s", body)
	}

	c, err := daemon.Dial(addr, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if st, err := c.Send(trace.Event{Op: trace.OpWrite, Client: 1, File: 1, Length: 4096}); err != nil || st != daemon.StatusOK {
		t.Fatalf("write: status %v, err %v", st, err)
	}
	snap, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if snap.RequestsOK != 1 || snap.GOMAXPROCS != 2 {
		t.Fatalf("stats frame: RequestsOK=%d GOMAXPROCS=%d, want 1 and 2", snap.RequestsOK, snap.GOMAXPROCS)
	}
	c.Close()

	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, stdout)
	if err := cmd.Wait(); err != nil {
		t.Fatalf("nvramd after SIGTERM: %v\n%s", err, stderr.String())
	}
	if !strings.Contains(stderr.String(), "drained: ok=1") {
		t.Fatalf("no clean drain report:\n%s", stderr.String())
	}
}
