//go:build unix

package main

// These tests run the nvramd that ships: TestMain re-execs the test binary
// as main() when asMainEnv is set, so the flags, the two-P floor, the
// RECOVERED=/ADDR= announcement and the SIGTERM drain under test are the
// ones a deployment runs, and no binary has to be built first.

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"testing"
	"time"

	"nvramfs/internal/daemon"
	"nvramfs/internal/faults"
	"nvramfs/internal/nvram"
	"nvramfs/internal/trace"
)

// asMainEnv, when set in a child's environment, makes the test binary run
// nvramd's main() with its arguments instead of the tests.
const asMainEnv = "NVRAMD_TEST_AS_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(asMainEnv) != "" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// nvramdCmd returns a command that runs nvramd with args; ctx kills it.
func nvramdCmd(ctx context.Context, args ...string) *exec.Cmd {
	cmd := exec.CommandContext(ctx, os.Args[0], args...)
	cmd.Env = append(os.Environ(), asMainEnv+"=1")
	return cmd
}

// daemonProc is a running nvramd and what it announced on stdout.
type daemonProc struct {
	cmd       *exec.Cmd
	recovered int
	addr      string
	metrics   string // the METRICS= URL, when started with -metrics
	stderr    *bytes.Buffer
	done      chan error // cmd.Wait's result, delivered once
	exited    bool
}

// startNvramd starts nvramd with args, adding env to its environment, and
// waits for RECOVERED= and ADDR= (and METRICS= when args hold -metrics).
// A daemon still running when the test ends is killed and reaped.
func startNvramd(t *testing.T, env []string, args ...string) *daemonProc {
	t.Helper()
	p := &daemonProc{
		cmd:    nvramdCmd(context.Background(), args...),
		stderr: new(bytes.Buffer),
		done:   make(chan error, 1),
	}
	p.cmd.Env = append(p.cmd.Env, env...)
	p.cmd.Stderr = p.stderr
	stdout, err := p.cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := p.cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if !p.exited {
			p.cmd.Process.Kill()
			p.wait()
		}
	})

	// One goroutine reads stdout to end-of-file and then reaps the process,
	// the order exec requires. The buffer holds every line nvramd prints
	// (three); any line nobody waits for is dropped rather than blocking.
	lines := make(chan string, 3)
	go func() {
		for sc := bufio.NewScanner(stdout); sc.Scan(); {
			select {
			case lines <- sc.Text():
			default:
			}
		}
		close(lines)
		p.done <- p.cmd.Wait()
	}()

	var recovered string
	want := map[string]*string{"RECOVERED": &recovered, "ADDR": &p.addr}
	if slices.Contains(args, "-metrics") {
		want["METRICS"] = &p.metrics
	}
	timeout := time.After(30 * time.Second)
	for len(want) > 0 {
		select {
		case line, ok := <-lines:
			if !ok {
				t.Fatalf("nvramd exited before announcing: %v\n%s", p.wait(), p.stderr)
			}
			k, v, _ := strings.Cut(line, "=")
			if dst, ok := want[k]; ok {
				*dst = v
				delete(want, k)
			}
		case <-timeout:
			p.cmd.Process.Kill()
			p.wait()
			t.Fatalf("nvramd never announced\n%s", p.stderr)
		}
	}
	if p.recovered, err = strconv.Atoi(recovered); err != nil {
		t.Fatalf("bad RECOVERED=%q", recovered)
	}
	return p
}

func (p *daemonProc) wait() error {
	err := <-p.done
	p.exited = true
	return err
}

// kill SIGKILLs the daemon (no drain, no close, no flush) and requires
// that it died of that signal.
func (p *daemonProc) kill(t *testing.T) {
	t.Helper()
	if err := p.cmd.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	err := p.wait()
	var ee *exec.ExitError
	if !errors.As(err, &ee) {
		t.Fatalf("nvramd did not die by SIGKILL: %v", err)
	}
	if ws, ok := ee.Sys().(syscall.WaitStatus); !ok || !ws.Signaled() || ws.Signal() != syscall.SIGKILL {
		t.Fatalf("nvramd died wrong: %v\n%s", err, p.stderr)
	}
}

// term SIGTERMs the daemon and requires a clean exit: the drain finished.
func (p *daemonProc) term(t *testing.T) {
	t.Helper()
	if err := p.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	if err := p.wait(); err != nil {
		t.Fatalf("nvramd did not exit cleanly on SIGTERM: %v\n%s", err, p.stderr)
	}
}

// waitFor polls cond every 150 ms until it holds or 20 s pass.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(20 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(150 * time.Millisecond)
	}
}

// TestNvramdRejectsBadSizes: a size the cache cannot be built from ends
// nvramd at startup with a message and a non-zero exit, before it
// announces anything, instead of a panic or a bad-request on every write.
func TestNvramdRejectsBadSizes(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-block", "0"}, "-block 0: the block size must be positive"},
		{[]string{"-block", "-4096"}, "-block -4096: the block size must be positive"},
		{[]string{"-cache-mb", "-1"}, "unified model given negative VolatileBlocks"},
		{[]string{"-org", "hybrid", "-cache-mb", "-1"}, "hybrid model given negative VolatileBlocks"},
		{[]string{"-nvram-mb", "0"}, "unified model needs NVRAMBlocks > 0"},
		{[]string{"-org", "volatile", "-cache-mb", "0"}, "volatile model needs VolatileBlocks > 0"},
	} {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		out, err := nvramdCmd(ctx, append([]string{"-addr", "127.0.0.1:0"}, tc.args...)...).CombinedOutput()
		cancel()
		if err == nil || strings.Contains(string(out), "ADDR=") || !strings.Contains(string(out), tc.want) {
			t.Errorf("nvramd %v: err %v, want an exit before ADDR= naming %q:\n%s", tc.args, err, tc.want, out)
		}
	}
}

// TestNvramdRunsOnTwoPs starts nvramd the way a one-CPU confinement would
// have the runtime size it (GOMAXPROCS=1 in the environment) and requires
// that it raised itself to two Ps anyway (the write-back goroutine's msync
// barrier needs a P the handlers are not waiting for), then that it serves
// and drains cleanly on SIGTERM.
func TestNvramdRunsOnTwoPs(t *testing.T) {
	p := startNvramd(t, []string{"GOMAXPROCS=1"},
		"-addr", "127.0.0.1:0", "-metrics", "127.0.0.1:0", "-dir", t.TempDir())

	resp, err := http.Get(p.metrics)
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

	c, err := daemon.Dial(p.addr, 5*time.Second)
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

	p.term(t)
	if !strings.Contains(p.stderr.String(), "drained: ok=1") {
		t.Fatalf("no clean drain report:\n%s", p.stderr)
	}
}

// TestLiveKillRestartZeroLoss loads nvramd over TCP under a write-back
// outage that never ends until a parked backlog accumulates, SIGKILLs it,
// reads the image the dead daemon left as ground truth, restarts it healthy
// on the same directory, and requires the recovered backlog to drain with
// zero committed-byte loss. The final SIGTERM must drain the parked
// namespace empty.
func TestLiveKillRestartZeroLoss(t *testing.T) {
	dir := t.TempDir()
	// 1 MiB of each memory is 256 blocks per client; 1500 one-block writes
	// over four clients force NVRAM evictions, hence write-backs.
	sized := []string{"-addr", "127.0.0.1:0", "-dir", dir, "-org", "unified", "-cache-mb", "1", "-nvram-mb", "1"}

	// Phase 1: the write-back server is down forever. Every stable delivery
	// fails both attempts, sleeping a real 0.5-1 ms backoff between them
	// (the injector commits its open batch before each sleep), and parks in
	// the durable image.
	p1 := startNvramd(t, nil, slices.Concat(sized, []string{"-faults", "seed=7,retries=2,backoff=1ms,cap=2ms,outage=0s+never"})...)
	if p1.recovered != 0 {
		t.Fatalf("fresh image recovered %d parked deliveries, want 0", p1.recovered)
	}
	events := make([]trace.Event, 1500)
	for i := range events {
		events[i] = trace.Event{
			Time:   int64(i) * 100,
			Client: uint32(i % 4),
			Op:     trace.OpWrite,
			File:   100 + uint64(i%6),
			Offset: int64(i/6) * 4096,
			Length: 4096,
		}
	}
	rep, err := daemon.Replay(events, daemon.ReplayOptions{Addr: p1.addr, Conns: 4})
	if err != nil {
		t.Fatal(err)
	}
	// Every write is answered ok or parked: nothing shed, refused or cut off.
	if rep.OK+rep.Parked != rep.Events {
		t.Fatalf("outage replay: %s", rep)
	}
	c, err := daemon.Dial(p1.addr, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	// Quiesce: every offered byte is accounted for and the write-back state
	// has not moved for quietFor. Equal consecutive snapshots are not
	// enough: the write-back goroutine publishes only between batches, and
	// each delivery in a batch here sleeps a backoff, so a batch still
	// parking shows the snapshot from before it. One batch is at most the
	// 64-slot write-back queue at about a millisecond per delivery, far
	// under quietFor. Under the eternal outage nothing can commit.
	const quietFor = time.Second
	var last daemon.Snapshot
	moved := time.Now()
	waitFor(t, "parked backlog quiescent", func() bool {
		sn, err := c.Stats()
		if err != nil {
			t.Fatalf("stats: %v", err)
		}
		if sn.Faults != last.Faults || sn.PendingStable != last.PendingStable ||
			sn.WritebackBatches != last.WritebackBatches {
			moved = time.Now()
		}
		last = sn
		f := sn.Faults
		return sn.PendingStable > 0 &&
			f.OfferedBytes == f.CommittedBytes+f.LostBytes+sn.PendingStable+sn.PendingVolatile &&
			time.Since(moved) >= quietFor
	})
	c.Close()
	if last.Faults.CommittedBytes != 0 {
		t.Fatalf("committed %d bytes through a never-ending outage", last.Faults.CommittedBytes)
	}
	if last.Faults.Retries == 0 {
		t.Fatal("no write-back was retried; the backoff path went untested")
	}

	// The crash under test.
	p1.kill(t)

	// Ground truth: the parked backlog a recovery agent finds in the image.
	imgPath := filepath.Join(dir, imageName)
	img, _, err := nvram.OpenImage(imgPath, nvram.ImageOptions{})
	if err != nil {
		t.Fatal(err)
	}
	entries, err := faults.RecoverParked(img)
	if err != nil {
		t.Fatal(err)
	}
	var parkedBytes int64
	for _, e := range entries {
		parkedBytes += e.D.End - e.D.Start
	}
	// Release the image and its lock so the restarted daemon can own it.
	if err := img.Close(); err != nil {
		t.Fatal(err)
	}
	if len(entries) == 0 {
		t.Fatal("no parked backlog survived the kill; the test is vacuous")
	}
	if parkedBytes != last.PendingStable {
		t.Fatalf("image holds %d parked bytes, the daemon last reported %d pending stable",
			parkedBytes, last.PendingStable)
	}

	// Phase 2: a healthy restart on the same directory must re-adopt the
	// whole backlog and drain it to committed.
	p2 := startNvramd(t, nil, slices.Concat(sized, []string{"-faults", "seed=7"})...)
	if p2.recovered != len(entries) {
		t.Fatalf("restart recovered %d parked deliveries, want %d", p2.recovered, len(entries))
	}
	c2, err := daemon.Dial(p2.addr, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	var final daemon.Snapshot
	waitFor(t, "recovered backlog to drain", func() bool {
		sn, err := c2.Stats()
		if err != nil {
			t.Fatalf("stats: %v", err)
		}
		final = sn
		return sn.PendingStable == 0 && sn.Faults.CommittedBytes >= parkedBytes
	})
	c2.Close()
	if final.RestoredBytes != parkedBytes {
		t.Errorf("restored %d bytes, want %d", final.RestoredBytes, parkedBytes)
	}
	if final.Faults.LostBytes != 0 {
		t.Errorf("lost %d bytes across the crash, want 0", final.Faults.LostBytes)
	}
	if f := final.Faults; f.OfferedBytes != f.CommittedBytes+f.LostBytes+final.PendingStable+final.PendingVolatile {
		t.Errorf("conservation violated after recovery: %+v", f)
	}

	// Graceful drain: SIGTERM exits cleanly, leaving nothing parked.
	p2.term(t)
	img2, _, err := nvram.OpenImage(imgPath, nvram.ImageOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer img2.Close()
	if n := img2.Len(nvram.NSParked); n != 0 {
		t.Errorf("image still holds %d parked entries after a clean drain, want 0", n)
	}
	t.Logf("outage replay %s; %d retries; %d deliveries (%d B) parked across SIGKILL, all re-adopted and committed",
		rep, last.Faults.Retries, len(entries), parkedBytes)
}
