package report

import (
	"bytes"
	"context"
	"runtime"
	"strings"
	"testing"
	"time"

	"nvramfs/internal/cache"
	"nvramfs/internal/engine"
	"nvramfs/internal/faults"
	"nvramfs/internal/prep"
	"nvramfs/internal/sim"
)

// TestDegradedHeadlineHolds runs the degraded grid at test scale and
// checks the study's central claim end to end: outage profiles make the
// volatile organization stall or lose bytes while the NVRAM
// organizations absorb the outage with zero loss and a nonzero NVRAM
// high-water mark.
func TestDegradedHeadlineHolds(t *testing.T) {
	ws := NewWorkspace(0.02)
	res, err := DegradedContext(context.Background(), ws)
	if err != nil {
		t.Fatal(err)
	}
	want := len(AllTraces()) * len(degradedOrgs()) * len(degradedProfiles())
	if len(res.Rows) != want {
		t.Fatalf("rows = %d, want %d", len(res.Rows), want)
	}
	if !res.ConservationOK {
		t.Fatal("fault-stage conservation broke in some cell")
	}
	if !res.HeadlineHolds() {
		t.Fatalf("headline failed: volatile stall %dus lost %d, nvram lost %d high-water %d",
			res.VolatileStallUS, res.VolatileLost, res.NVRAMLost, res.NVRAMHighWater)
	}
	var buf bytes.Buffer
	if err := res.Render(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "headline:") {
		t.Fatalf("render missing headline line:\n%s", buf.String())
	}
}

// TestDegradedDeterministicAcrossWorkerCounts renders the degraded study
// on one worker and on eight and requires byte-identical output.
func TestDegradedDeterministicAcrossWorkerCounts(t *testing.T) {
	render := func(workers int) string {
		ws := NewWorkspace(0.02)
		ws.SetEngine(engine.New(workers))
		res, err := DegradedContext(context.Background(), ws)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := res.Render(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	serial := render(1)
	parallel := render(8)
	if serial != parallel {
		t.Fatalf("output differs between 1 and 8 workers:\n--- serial ---\n%s\n--- parallel ---\n%s",
			serial, parallel)
	}
}

// TestDegradedCancellation checks that a cancelled context aborts the
// degraded grid with the context's error.
func TestDegradedCancellation(t *testing.T) {
	ws := NewWorkspace(0.02)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := DegradedContext(ctx, ws); err == nil {
		t.Fatal("cancelled DegradedContext returned nil error")
	}
}

// TestDegradedCancelDuringNeverOutageNoGoroutineLeak is the engine
// cancellation regression test: a grid whose every job simulates against
// a never-recovering outage is cancelled mid-flight, and the whole grid
// must return promptly with the context error and leave no worker
// goroutines behind.
func TestDegradedCancelDuringNeverOutageNoGoroutineLeak(t *testing.T) {
	ws := NewWorkspace(0.02)
	ws.SetEngine(engine.New(4))
	src, err := ws.OpsSourceContext(context.Background(), 1)
	if err != nil {
		t.Fatal(err)
	}
	ops, err := prep.Collect(src)
	if err != nil {
		t.Fatal(err)
	}
	before := runtime.NumGoroutine()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	go func() {
		_, err := engine.Map(ctx, ws.Engine(), 64, func(ctx context.Context, i int) (int, error) {
			arena := getArena()
			defer putArena(arena)
			s := sim.NewStepper(prep.NewSliceSource(ops), sim.Config{
				Model: cache.ModelVolatile,
				Cache: cache.Config{VolatileBlocks: 2048, Arena: arena},
				Seed:  int64(i),
				Faults: &faults.Profile{
					Seed:    int64(i),
					Outages: []faults.Window{{Start: 0, End: faults.Never}},
				},
			})
			defer s.Release()
			// Step in slices, checking the context between them, so a
			// cancelled cell stops mid-trace.
			for s.Index() < len(ops) {
				if err := ctx.Err(); err != nil {
					return 0, err
				}
				if err := s.StepTo(min(s.Index()+256, len(ops))); err != nil {
					return 0, err
				}
			}
			s.Finish()
			return s.Index(), nil
		})
		done <- err
	}()
	// Let a few jobs get underway, then pull the plug.
	time.AfterFunc(50*time.Millisecond, cancel)

	select {
	case err := <-done:
		if err == nil {
			t.Fatal("cancelled grid returned nil error")
		}
	case <-time.After(30 * time.Second):
		t.Fatal("cancelled grid did not return promptly")
	}

	// The engine must have torn its workers down; poll briefly to let
	// runtime bookkeeping settle.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if g := runtime.NumGoroutine(); g <= before+2 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutine leak after cancel: before %d, after %d", before, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}
}
