package engine

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// Hooks observe the job lifecycle, for progress reporting. Callbacks run
// on worker goroutines but are serialized by the engine, so they may
// write to a shared sink without locking.
type Hooks struct {
	// JobStarted is called before a job runs; index is the job's position
	// in its grid of total jobs.
	JobStarted func(index, total int)
	// JobFinished is called after a job returns.
	JobFinished func(index, total int, err error)
}

// Metrics is a snapshot of an engine's cumulative counters across every
// Run it has executed.
type Metrics struct {
	JobsStarted  int64
	JobsFinished int64
	JobsFailed   int64
	// Busy is the summed execution time of all finished jobs (it exceeds
	// wall-clock time when workers run in parallel).
	Busy time.Duration
	// PeakConcurrent is the high-water mark of simultaneously executing
	// jobs. It never exceeds Workers(), however many Runs are in flight:
	// that is the shared-token-budget guarantee.
	PeakConcurrent int64
}

// Engine is a fixed-size worker pool. The zero value is not usable; use
// New. A nil *Engine is valid everywhere and degenerates to a serial
// runner with no hooks or metrics.
//
// Concurrency is governed by a shared budget of Workers() tokens: every
// goroutine that runs jobs — Run's caller as well as its pool workers —
// holds one while it does, so grids submitted from several goroutines at
// once share the cap instead of multiplying it. A job must therefore not
// call Run on its own engine: with every token held by the outer grid,
// the inner Run would wait for one forever.
type Engine struct {
	workers int
	// tokens holds one concurrency slot per worker.
	tokens chan struct{}

	mu    sync.Mutex // serializes hook callbacks
	hooks Hooks

	started  atomic.Int64
	finished atomic.Int64
	failed   atomic.Int64
	busyNS   atomic.Int64
	running  atomic.Int64
	peak     atomic.Int64
}

// New returns an engine with the given worker count; workers <= 0 selects
// runtime.NumCPU.
func New(workers int) *Engine {
	if workers <= 0 {
		workers = runtime.NumCPU()
	}
	e := &Engine{workers: workers, tokens: make(chan struct{}, workers)}
	for i := 0; i < workers; i++ {
		e.tokens <- struct{}{}
	}
	return e
}

// Workers reports the pool size (1 for a nil engine).
func (e *Engine) Workers() int {
	if e == nil {
		return 1
	}
	return e.workers
}

// SetHooks installs progress callbacks. Not safe to call concurrently
// with Run.
func (e *Engine) SetHooks(h Hooks) {
	if e == nil {
		return
	}
	e.hooks = h
}

// Metrics returns the cumulative counters.
func (e *Engine) Metrics() Metrics {
	if e == nil {
		return Metrics{}
	}
	return Metrics{
		JobsStarted:    e.started.Load(),
		JobsFinished:   e.finished.Load(),
		JobsFailed:     e.failed.Load(),
		Busy:           time.Duration(e.busyNS.Load()),
		PeakConcurrent: e.peak.Load(),
	}
}

// Run executes fn(ctx, i) for every i in [0, n) on the worker pool. The
// first job failure cancels the context passed to the remaining jobs and
// Run returns, after all in-flight jobs complete, the error of the
// lowest-indexed failed job. If ctx is cancelled externally Run stops
// dispatching and returns ctx.Err(). Runs called from several goroutines
// at once share the engine's Workers() tokens; fn must not call Run on
// the same engine.
func (e *Engine) Run(ctx context.Context, n int, fn func(ctx context.Context, i int) error) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if n <= 0 {
		return nil
	}

	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()

	var (
		next     atomic.Int64
		mu       sync.Mutex
		errIndex = -1
		firstErr error
	)
	// Each goroutine working the grid, the caller included, holds a token
	// from the shared budget for its whole stint, so concurrent grids all
	// draw down the same cap.
	work := func() {
		if !e.acquire(runCtx) {
			return
		}
		defer e.release()
		for {
			i := int(next.Add(1)) - 1
			if i >= n || runCtx.Err() != nil {
				return
			}
			e.jobStarted(i, n)
			start := time.Now()
			e.enter()
			err := fn(runCtx, i)
			e.exit()
			e.jobFinished(i, n, time.Since(start), err)
			if err != nil {
				mu.Lock()
				if errIndex < 0 || i < errIndex {
					errIndex, firstErr = i, err
				}
				mu.Unlock()
				cancel()
			}
		}
	}

	helpers := e.Workers() - 1
	if helpers > n-1 {
		helpers = n - 1
	}
	var wg sync.WaitGroup
	for w := 0; w < helpers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			work()
		}()
	}
	work()
	wg.Wait()
	if errIndex >= 0 {
		return firstErr
	}
	return ctx.Err()
}

// enter/exit track the number of concurrently executing jobs for the
// PeakConcurrent metric.
func (e *Engine) enter() {
	if e == nil {
		return
	}
	cur := e.running.Add(1)
	for {
		p := e.peak.Load()
		if cur <= p || e.peak.CompareAndSwap(p, cur) {
			return
		}
	}
}

func (e *Engine) exit() {
	if e != nil {
		e.running.Add(-1)
	}
}

// acquire blocks for a concurrency token until ctx is done; it reports
// whether a token was obtained. A nil engine has no budget: its caller,
// the only goroutine it runs jobs on, always proceeds.
func (e *Engine) acquire(ctx context.Context) bool {
	if e == nil {
		return true
	}
	select {
	case <-e.tokens:
		return true
	case <-ctx.Done():
		return false
	}
}

func (e *Engine) release() {
	if e != nil {
		e.tokens <- struct{}{}
	}
}

// RunFuncs executes a heterogeneous job list (each closure writes its own
// result slot) with Run's cancellation and error semantics.
func (e *Engine) RunFuncs(ctx context.Context, jobs ...func(ctx context.Context) error) error {
	return e.Run(ctx, len(jobs), func(ctx context.Context, i int) error {
		return jobs[i](ctx)
	})
}

// Map runs fn for every index in [0, n) and assembles the results in
// index order. On error the partial results are discarded.
func Map[T any](ctx context.Context, e *Engine, n int, fn func(ctx context.Context, i int) (T, error)) ([]T, error) {
	out := make([]T, n)
	err := e.Run(ctx, n, func(ctx context.Context, i int) error {
		v, err := fn(ctx, i)
		if err != nil {
			return err
		}
		out[i] = v
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

func (e *Engine) jobStarted(i, n int) {
	if e == nil {
		return
	}
	e.started.Add(1)
	e.mu.Lock()
	if e.hooks.JobStarted != nil {
		e.hooks.JobStarted(i, n)
	}
	e.mu.Unlock()
}

func (e *Engine) jobFinished(i, n int, d time.Duration, err error) {
	if e == nil {
		return
	}
	e.finished.Add(1)
	if err != nil {
		e.failed.Add(1)
	}
	e.busyNS.Add(int64(d))
	e.mu.Lock()
	if e.hooks.JobFinished != nil {
		e.hooks.JobFinished(i, n, err)
	}
	e.mu.Unlock()
}
