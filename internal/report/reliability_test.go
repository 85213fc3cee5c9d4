package report

import (
	"bytes"
	"context"
	"strings"
	"testing"

	"nvramfs/internal/engine"
)

// runReliability renders the crash-injection grid at the given worker
// count on a small-scale workspace.
func runReliability(t *testing.T, workers int) (*ReliabilityResult, string) {
	t.Helper()
	ws := NewWorkspace(0.02)
	ws.SetEngine(engine.New(workers))
	r, err := ReliabilityContext(context.Background(), ws)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := r.Render(&buf); err != nil {
		t.Fatal(err)
	}
	return r, buf.String()
}

// TestReliabilityGrid runs the crash-injection grid twice — one worker
// and eight — and checks the experiment's acceptance criteria: the two
// renders are byte-identical, NVRAM organizations lose no committed bytes
// at any crash point, the volatile baseline's losses stay inside the
// write-back window, and no harness invariant fires. Skipped under
// -short (the grid runs every trace; the per-event sweeps in
// internal/crash cover the invariants cheaply).
func TestReliabilityGrid(t *testing.T) {
	if testing.Short() {
		t.Skip("full grid; internal/crash sweeps cover the invariants in the short set")
	}
	r, serial := runReliability(t, 1)
	_, parallel := runReliability(t, 8)
	if serial != parallel {
		t.Fatalf("output differs between 1 and 8 workers:\n--- serial ---\n%s\n--- parallel ---\n%s",
			serial, parallel)
	}

	if want := len(AllTraces()) * len(reliabilityConfigs()); len(r.Rows) != want {
		t.Fatalf("rows = %d, want %d", len(r.Rows), want)
	}
	var volatileLoss bool
	for _, row := range r.Rows {
		if row.Violations != 0 {
			t.Errorf("trace %d %s: %d invariant violations", row.Trace, row.Config, row.Violations)
		}
		switch row.Config {
		case "write-aside", "unified":
			if row.MaxLost != 0 {
				t.Errorf("trace %d %s: lost %d committed bytes", row.Trace, row.Config, row.MaxLost)
			}
		case "volatile":
			if row.MaxLost > 0 {
				volatileLoss = true
			}
			if row.MaxLostAge >= 30*1e6 {
				t.Errorf("trace %d volatile: lost bytes aged %dus, outside the 30s window",
					row.Trace, row.MaxLostAge)
			}
		}
		if row.MaxLost > row.MaxAtRisk {
			t.Errorf("trace %d %s: lost %d > at-risk %d", row.Trace, row.Config, row.MaxLost, row.MaxAtRisk)
		}
	}
	if !volatileLoss {
		t.Error("no volatile crash point lost bytes; the sweep is vacuous")
	}
	if !strings.Contains(serial, "all loss-model invariants held") {
		t.Errorf("render did not report a clean sweep:\n%s", serial)
	}
}
