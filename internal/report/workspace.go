// Package report regenerates every table and figure of the paper's
// evaluation from the simulators: the byte-lifetime curves (Figure 2), the
// fate-of-bytes summary (Table 2), the omniscient and realistic
// replacement-policy sweeps (Figures 3-4), the cache-model and
// cost-effectiveness comparisons (Figures 5-6, Table 1), the memory-bus
// and NVRAM-access claims of Section 2.6, and the LFS partial-segment and
// write-buffer studies (Tables 3-4, Section 3).
//
// Each experiment returns a typed result and can render itself as text.
// Experiments is the registry of them all, with how each runs:
// cmd/nvreport runs it, and examples/costmodel and examples/endtoend run
// entries of it by name. The root package's benchmarks call the drivers
// directly, and so does the benchmark module's sweep, through the seven
// drivers the root facade still re-exports.
//
// The paper's evaluation is embarrassingly parallel — eight independent
// traces, each swept across models, policies, and NVRAM sizes — so every
// driver declares its work as a (trace, configuration) job grid and
// submits it to an internal/engine worker pool, assembling results in
// index order. Because each cell is a pure function of seeded inputs, the
// output is byte-identical whether the grid runs on one worker or many.
// Every driver takes a context and stops its grid when it is cancelled.
package report

import (
	"context"
	"fmt"
	"slices"
	"sync"
	"time"

	"nvramfs/internal/cache"
	"nvramfs/internal/engine"
	"nvramfs/internal/lifetime"
	"nvramfs/internal/prep"
	"nvramfs/internal/sim"
	"nvramfs/internal/workload"
)

// arenas recycles cache.BlockArenas across grid cells: each simulation cell
// checks one out for its run, so a sweep's thousands of evict/insert cycles
// reuse the same block objects instead of re-allocating them per cell.
// sync.Pool keeps the arena count bounded by the engine's worker count.
var arenas = sync.Pool{New: func() any { return cache.NewBlockArena() }}

// getArena checks an arena out of the shared pool.
func getArena() *cache.BlockArena { return arenas.Get().(*cache.BlockArena) }

// putArena returns an arena (and the blocks a finished run released into
// it) to the shared pool.
func putArena(a *cache.BlockArena) { arenas.Put(a) }

// lockstep simulates every configuration over one replay of the trace's
// recording: sim.Broadcast runs the op stream's cache-independent work
// (consistency protocol, size tracking) once for the lot, and each
// client's cache once per capacity class. Each configuration's result is
// exactly what a standalone sim.Run of it would produce, for one replay
// and one protocol pass. The configurations must be Broadcast-compatible;
// the helper attaches a pooled block arena and the trace's file-count
// hint, and also returns the model calls the replay made.
func (ws *Workspace) lockstep(ctx context.Context, tr int, cfgs []sim.Config) ([]*sim.Result, sim.Calls, error) {
	src, err := ws.OpsSourceContext(ctx, tr)
	if err != nil {
		return nil, sim.Calls{}, err
	}
	var filesHint int
	if st, err := ws.TraceStatsContext(ctx, tr); err == nil {
		filesHint = st.Files
	}
	arena := getArena()
	defer putArena(arena)
	cfgs = slices.Clone(cfgs)
	for i := range cfgs {
		cfgs[i].Cache.Arena = arena
		cfgs[i].FilesHint = filesHint
	}
	bc, err := sim.NewBroadcast(cfgs)
	if err != nil {
		return nil, sim.Calls{}, err
	}
	// A writes-only set ignores reads entirely (Broadcast drops them
	// before any cache or size-tracking effect), so skip the dispatch.
	// Traffic is unchanged: the only effect of feeding the read would be
	// instantiating the reading client's empty cache model.
	skipReads := cfgs[0].WritesOnly
	const checkEvery = 4096
	for n := 0; ; n++ {
		if n%checkEvery == 0 {
			if err := ctx.Err(); err != nil {
				return nil, sim.Calls{}, err
			}
		}
		op, ok, err := src.Next()
		if err != nil {
			return nil, sim.Calls{}, err
		}
		if !ok {
			break
		}
		if skipReads && op.Kind == prep.Read {
			continue
		}
		if err := bc.Apply(op); err != nil {
			return nil, sim.Calls{}, err
		}
	}
	res := bc.Finish()
	bc.Release()
	return res, bc.Calls(), nil
}

// Workspace generates each standard trace once, recording its canonical
// ops (a prep.Recording, not a materialized op slice), and caches the
// lifetime analyses, the omniscient schedules and the traffic of every
// simulated grid cell, so that the experiment drivers share passes the
// way the paper's simulator did while every consumer replays ops through
// its own cursor.
//
// Every cached pass is built under per-trace singleflight: concurrent
// callers for the same trace share one build, while different traces
// build in parallel. The cached values (recordings, analyses, schedules)
// are immutable after construction and safe to read from any goroutine;
// cursors handed out by OpsSourceContext are independent and single-use. The
// cell traffic is memoized under a mutex instead, because cells are
// simulated in groups (cellTraffic).
type Workspace struct {
	// Scale is the workload volume scale (1.0 = paper scale). Experiments
	// in tests use small scales for speed.
	Scale float64

	eng *engine.Engine

	ops      engine.Memo[int, *prep.Recording]
	mids     engine.Memo[int, int64]
	analyses engine.Memo[int, *lifetime.Analysis]
	scheds   engine.Memo[int, *lifetime.Schedule]

	// cells memoizes each simulated grid cell's traffic (cellTraffic),
	// shared by Figures 3-6 and the bus study.
	cellsMu sync.Mutex
	cells   map[cellKey]cache.Traffic
}

// NewWorkspace returns a workspace at the given scale, running its
// experiment grids on a default engine sized by runtime.NumCPU.
func NewWorkspace(scale float64) *Workspace {
	if scale <= 0 {
		scale = 1.0
	}
	return &Workspace{Scale: scale, eng: engine.New(0)}
}

// SetEngine routes the workspace's trace builds and the drivers' job
// grids through e (nil restores the default engine). Call before handing
// the workspace to concurrent users.
func (ws *Workspace) SetEngine(e *engine.Engine) {
	if e == nil {
		e = engine.New(0)
	}
	ws.eng = e
}

// Engine returns the runner the experiment drivers submit their grids to.
func (ws *Workspace) Engine() *engine.Engine { return ws.eng }

// OpsSourceContext returns a fresh single-use cursor over the canonical
// op stream of the given standard trace (1-based), recording the trace on
// first use. Cursors decode the shared recording independently, so any
// number of grid cells can stream the same trace concurrently. A
// cancelled context fails fast before a build starts (an in-flight build
// always runs to completion so its cached result stays valid for other
// callers).
func (ws *Workspace) OpsSourceContext(ctx context.Context, tr int) (prep.Source, error) {
	rec, err := ws.recording(ctx, tr)
	if err != nil {
		return nil, err
	}
	return rec.Ops()
}

// traceReplay hands out fresh cursors over one workspace trace.
type traceReplay struct {
	ws *Workspace
	tr int
}

// Ops implements prep.Replayable.
func (r traceReplay) Ops() (prep.Source, error) {
	return r.ws.OpsSourceContext(context.Background(), r.tr)
}

// Replayable returns a handle producing fresh cursors over the trace's op
// stream; the crash harness's multi-pass LFS oracle consumes it.
func (ws *Workspace) Replayable(tr int) prep.Replayable { return traceReplay{ws: ws, tr: tr} }

// recording returns the trace's recorded canonical ops (which carry their
// statistics), generating and canonicalizing the trace on first use; every
// later pass replays the recording.
func (ws *Workspace) recording(ctx context.Context, tr int) (*prep.Recording, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return ws.ops.Do(tr, func() (*prep.Recording, error) {
		rec, err := prep.Record(workload.NewCursor(workload.StandardProfile(tr, ws.Scale)), prep.Options{Trusted: true})
		if err != nil {
			return nil, fmt.Errorf("report: generating trace %d: %w", tr, err)
		}
		return rec, nil
	})
}

// TraceStatsContext returns the canonical-op statistics for a trace.
func (ws *Workspace) TraceStatsContext(ctx context.Context, tr int) (prep.Stats, error) {
	rec, err := ws.recording(ctx, tr)
	if err != nil {
		return prep.Stats{}, err
	}
	return rec.Stats(), nil
}

// MidTimeContext returns the time of the trace's midpoint operation (op
// index Ops/2, zero for an empty trace): the degraded study anchors its
// outage windows there so they always land in active workload.
func (ws *Workspace) MidTimeContext(ctx context.Context, tr int) (int64, error) {
	rec, err := ws.recording(ctx, tr)
	if err != nil {
		return 0, err
	}
	return ws.mids.Do(tr, func() (int64, error) {
		// A partial replay finds the midpoint op's time: the total count
		// isn't known until the recording ends.
		n := rec.Stats().Ops
		if n == 0 {
			return 0, nil
		}
		src, err := rec.Ops()
		if err != nil {
			return 0, err
		}
		var mid int64
		for i := int64(0); i <= n/2; i++ {
			op, ok, err := src.Next()
			if err != nil || !ok {
				return 0, fmt.Errorf("report: trace %d midpoint replay failed at op %d: %w", tr, i, err)
			}
			mid = op.Time
		}
		return mid, nil
	})
}

// AnalysisContext returns the infinite-cache lifetime analysis for a
// trace.
func (ws *Workspace) AnalysisContext(ctx context.Context, tr int) (*lifetime.Analysis, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return ws.analyses.Do(tr, func() (*lifetime.Analysis, error) {
		// Deliberately not the caller's ctx: a build that has started runs
		// to completion so a bystander's cancellation can never be cached
		// as this trace's permanent result.
		rec, err := ws.recording(context.Background(), tr)
		if err != nil {
			return nil, err
		}
		src, err := rec.Ops()
		if err != nil {
			return nil, err
		}
		a, err := lifetime.AnalyzeWith(src, lifetime.Options{FilesHint: rec.Stats().Files})
		if err != nil {
			return nil, fmt.Errorf("report: analyzing trace %d: %w", tr, err)
		}
		return a, nil
	})
}

// ScheduleContext returns the omniscient next-modify schedule for a
// trace.
func (ws *Workspace) ScheduleContext(ctx context.Context, tr int) (*lifetime.Schedule, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return ws.scheds.Do(tr, func() (*lifetime.Schedule, error) {
		rec, err := ws.recording(context.Background(), tr)
		if err != nil {
			return nil, err
		}
		src, err := rec.Ops()
		if err != nil {
			return nil, err
		}
		s, err := lifetime.BuildSchedule(src, cache.DefaultBlockSize)
		if err != nil {
			return nil, fmt.Errorf("report: scheduling trace %d: %w", tr, err)
		}
		return s, nil
	})
}

// Prewarm builds every standard trace's recording, lifetime analysis,
// and omniscient schedule concurrently on the workspace engine. The
// drivers hit the same singleflight entries, so a prewarmed workspace
// serves every experiment from cache.
func (ws *Workspace) Prewarm(ctx context.Context) error {
	traces := AllTraces()
	return ws.eng.Run(ctx, len(traces), func(ctx context.Context, i int) error {
		if _, err := ws.AnalysisContext(ctx, traces[i]); err != nil {
			return err
		}
		_, err := ws.ScheduleContext(ctx, traces[i])
		return err
	})
}

// AllTraces lists the standard trace indices.
func AllTraces() []int {
	out := make([]int, workload.NumStandardTraces)
	for i := range out {
		out[i] = i + 1
	}
	return out
}

// Minutes converts minutes to simulated microseconds (including
// fractional minutes, for the log sweep of Figure 2).
func Minutes(m float64) int64 { return int64(m * float64(time.Minute/time.Microsecond)) }
