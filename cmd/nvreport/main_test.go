package main

// TestMain re-execs the test binary as nvreport's main() when asMainEnv is
// set, so the golden below pins the dispatch that ships: experiment
// selection, the shared Figure 6 and server-study results, -plot and -csv.
//
// To accept an intended change in nvreport's output:
//
//	go test -run TestGoldenOutput ./cmd/nvreport -update

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// asMainEnv, when set in a child's environment, makes the test binary run
// nvreport's main() with its arguments instead of the tests.
const asMainEnv = "NVREPORT_TEST_AS_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(asMainEnv) != "" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

var update = flag.Bool("update", false, "rewrite testdata/golden.sha256 from this run")

const goldenFile = "testdata/golden.sha256"

// goldenExps is every experiment that finishes in seconds at the scale
// below: all of Section 2 and 3, the shared results (fig6 feeds cost, one
// server study feeds table3, table4 and buffer), every CSV writer but the
// slow extensions', and the crash and fault-profile grids (reliability,
// degraded) that drive sim.Stepper rather than the lockstep sweeps.
const goldenExps = "table1,fig2,table2,fig3,fig4,fig5,fig6,bus,cost,table3,table4,buffer,sort,servercache,fsynclat,readlat,stack,ablate,reliability,degraded"

// goldenJobs is the engine job count of the run: the shared results are
// computed once, and the workspace's cell memo simulates no grid cell
// twice.
const goldenJobs = 576

// TestGoldenOutput runs nvreport on goldenExps with -plot and -csv and
// compares the sha256 of its stdout and of each CSV file with the
// checked-in digests (sha256sum's format, stdout named "-").
func TestGoldenOutput(t *testing.T) {
	csvDir := t.TempDir()
	cmd := exec.Command(os.Args[0], "-exp", goldenExps, "-scale", "0.02", "-server-days", "0.1",
		"-j", "2", "-plot", "-csv", csvDir)
	cmd.Env = append(os.Environ(), asMainEnv+"=1")
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	if err := cmd.Run(); err != nil {
		t.Fatalf("nvreport: %v\n%s", err, stderr.String())
	}
	if want := fmt.Sprintf("nvreport: %d jobs on 2 workers", goldenJobs); !strings.Contains(stderr.String(), want) {
		t.Errorf("stderr does not contain %q:\n%s", want, stderr.String())
	}

	digest := func(b []byte) string {
		sum := sha256.Sum256(b)
		return hex.EncodeToString(sum[:])
	}
	var got strings.Builder
	fmt.Fprintf(&got, "%s  -\n", digest(stdout.Bytes()))
	entries, err := os.ReadDir(csvDir) // sorted by name
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		b, err := os.ReadFile(filepath.Join(csvDir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&got, "%s  %s\n", digest(b), e.Name())
	}

	if *update {
		if err := os.WriteFile(goldenFile, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(goldenFile)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if got.String() != string(want) {
		t.Fatalf("digests differ from %s:\n--- got ---\n%s--- want ---\n%s--- stdout ---\n%s",
			goldenFile, got.String(), want, stdout.String())
	}
}
