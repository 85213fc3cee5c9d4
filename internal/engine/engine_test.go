package engine

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestMapOrder(t *testing.T) {
	e := New(8)
	out, err := Map(context.Background(), e, 100, func(_ context.Context, i int) (int, error) {
		return i * i, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range out {
		if v != i*i {
			t.Fatalf("out[%d] = %d", i, v)
		}
	}
	m := e.Metrics()
	if m.JobsStarted != 100 || m.JobsFinished != 100 || m.JobsFailed != 0 {
		t.Fatalf("metrics %+v", m)
	}
}

// TestCancelOnFirstError is the engine's core contract: one failing job
// cancels the context seen by every other job, no further jobs are
// dispatched once the cancellation is observed, and the reported error is
// the lowest-indexed failure regardless of scheduling.
func TestCancelOnFirstError(t *testing.T) {
	boom := errors.New("boom")
	e := New(4)
	var sawCancel atomic.Int64
	err := e.Run(context.Background(), 64, func(ctx context.Context, i int) error {
		switch {
		case i == 3:
			return fmt.Errorf("job %d: %w", i, boom)
		case i < 3:
			// Jobs 0-2 occupy three of the four workers, so job 3 is
			// dispatched concurrently with them; its failure is the only
			// thing that can fire this Done (the parent is Background).
			<-ctx.Done()
			sawCancel.Add(1)
			return nil
		default:
			// Jobs after the failure may or may not be dispatched; any
			// that are must see the already-cancelled context.
			if ctx.Err() != nil {
				sawCancel.Add(1)
			}
			return nil
		}
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want %v", err, boom)
	}
	if n := sawCancel.Load(); n < 3 {
		t.Fatalf("only %d jobs observed the cancellation, want >= 3", n)
	}
	if e.Metrics().JobsFailed != 1 {
		t.Fatalf("failed = %d", e.Metrics().JobsFailed)
	}
}

func TestLowestIndexErrorWins(t *testing.T) {
	// Every job fails; whatever the interleaving, the error reported must
	// be job 0's.
	e := New(8)
	err := e.Run(context.Background(), 32, func(_ context.Context, i int) error {
		return fmt.Errorf("job %d failed", i)
	})
	if err == nil || err.Error() != "job 0 failed" {
		t.Fatalf("err = %v, want job 0's", err)
	}
}

func TestExternalCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	e := New(4)
	err := e.Run(ctx, 10, func(context.Context, int) error {
		t.Error("job ran under a cancelled context")
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v", err)
	}
}

func TestNilEngineIsSerial(t *testing.T) {
	var e *Engine
	if e.Workers() != 1 {
		t.Fatalf("nil workers = %d", e.Workers())
	}
	var running, maxRunning int
	var mu sync.Mutex
	out, err := Map(context.Background(), e, 20, func(_ context.Context, i int) (int, error) {
		mu.Lock()
		running++
		if running > maxRunning {
			maxRunning = running
		}
		mu.Unlock()
		mu.Lock()
		running--
		mu.Unlock()
		return i, nil
	})
	if err != nil || len(out) != 20 || maxRunning != 1 {
		t.Fatalf("out=%v err=%v maxRunning=%d", out, err, maxRunning)
	}
}

func TestHooksSerializedAndCounted(t *testing.T) {
	e := New(8)
	var started, finished int // protected by the engine's hook lock
	e.SetHooks(Hooks{
		JobStarted:  func(index, total int) { started++ },
		JobFinished: func(index, total int, err error) { finished++ },
	})
	if err := e.Run(context.Background(), 50, func(context.Context, int) error { return nil }); err != nil {
		t.Fatal(err)
	}
	if started != 50 || finished != 50 {
		t.Fatalf("started=%d finished=%d", started, finished)
	}
}

// TestSharedTokenBudgetCapsConcurrentRuns is the oversubscription
// regression test: two grids submitted at once from separate goroutines
// to a four-worker engine must never have more than four jobs executing
// together, because both callers and all their pool workers draw on one
// token budget; and both grids must still run every job.
func TestSharedTokenBudgetCapsConcurrentRuns(t *testing.T) {
	const workers, jobs = 4, 16
	e := New(workers)
	var ran [2]atomic.Int64
	var wg sync.WaitGroup
	errs := make([]error, 2)
	for g := range ran {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[g] = e.Run(context.Background(), jobs, func(context.Context, int) error {
				time.Sleep(2 * time.Millisecond)
				ran[g].Add(1)
				return nil
			})
		}()
	}
	wg.Wait()
	for g := range ran {
		if errs[g] != nil {
			t.Fatalf("grid %d: %v", g, errs[g])
		}
		if n := ran[g].Load(); n != jobs {
			t.Fatalf("grid %d ran %d of %d jobs", g, n, jobs)
		}
	}
	if m := e.Metrics(); m.PeakConcurrent > workers || m.JobsFinished != 2*jobs {
		t.Fatalf("PeakConcurrent = %d (budget caps at %d), JobsFinished = %d", m.PeakConcurrent, workers, m.JobsFinished)
	}
}

func TestMemoSingleflight(t *testing.T) {
	var m Memo[int, int]
	var builds atomic.Int64
	var wg sync.WaitGroup
	start := make(chan struct{})
	for g := 0; g < 32; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			for key := 0; key < 4; key++ {
				v, err := m.Do(key, func() (int, error) {
					builds.Add(1)
					return key * 10, nil
				})
				if err != nil || v != key*10 {
					t.Errorf("Do(%d) = %d, %v", key, v, err)
				}
			}
		}()
	}
	close(start)
	wg.Wait()
	if builds.Load() != 4 {
		t.Fatalf("build ran %d times, want once per key", builds.Load())
	}
}

func TestMemoCachesErrors(t *testing.T) {
	var m Memo[string, int]
	boom := errors.New("boom")
	calls := 0
	for i := 0; i < 3; i++ {
		_, err := m.Do("k", func() (int, error) { calls++; return 0, boom })
		if !errors.Is(err, boom) {
			t.Fatalf("err = %v", err)
		}
	}
	if calls != 1 {
		t.Fatalf("build ran %d times", calls)
	}
}
