// Package nvramfs reproduces the systems and experiments of Baker, Asami,
// Deprit, Ousterhout & Seltzer, "Non-Volatile Memory for Fast, Reliable
// File Systems" (ASPLOS V, 1992).
//
// The library contains two trace-driven simulation studies:
//
//   - Client-side NVRAM file caches (paper Section 2): synthetic
//     Sprite-like multi-client traces are replayed through the volatile,
//     write-aside, and unified cache organizations under LRU, random, and
//     omniscient replacement, with Sprite's cache-consistency protocol
//     (recalls, concurrent write-sharing, migration flushes) in the loop.
//
//   - Server-side NVRAM write buffers for a log-structured file system
//     (Section 3): workload models of the Sprite server's eight LFS
//     volumes drive a segment-based LFS simulator — with summary and
//     metadata overheads, a 30-second delayed write-back, fsync-forced
//     partial segments, and a garbage collector — with and without a
//     half-megabyte NVRAM buffer in front of the disk.
//
// Quick start:
//
//	tr, _ := nvramfs.StandardTrace(7, 1.0)
//	res, _ := tr.RunCache(nvramfs.CacheConfig{
//		Model: "unified", Policy: "lru", VolatileMB: 8, NVRAMMB: 1,
//	})
//	fmt.Printf("net write traffic: %.1f%%\n", res.Traffic.NetWriteFrac()*100)
//
// The experiment registry (Experiments) regenerates every table and
// figure of the paper's evaluation: run an entry by name on a Session, as
// cmd/nvreport does for all of them and examples/costmodel and
// examples/endtoend do for a few.
package nvramfs

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"time"

	"nvramfs/internal/cache"
	"nvramfs/internal/crash"
	"nvramfs/internal/disk"
	"nvramfs/internal/engine"
	"nvramfs/internal/faults"
	"nvramfs/internal/lfs"
	"nvramfs/internal/lifetime"
	"nvramfs/internal/nvram"
	"nvramfs/internal/prep"
	"nvramfs/internal/report"
	"nvramfs/internal/serverload"
	"nvramfs/internal/sim"
	"nvramfs/internal/trace"
	"nvramfs/internal/workload"
)

// Re-exported result and helper types. These are the package's public
// data model; the implementation lives in internal packages.
type (
	// Traffic is the client-server traffic accounting of one simulation.
	Traffic = cache.Traffic
	// CacheResult is the outcome of a client cache simulation.
	CacheResult = sim.Result
	// Lifetime is the infinite-cache byte-lifetime analysis (Figure 2,
	// Table 2).
	Lifetime = lifetime.Analysis
	// Fate tallies written bytes into the Table 2 categories.
	Fate = lifetime.Fate
	// LFSStats holds the server file-system measurements (Tables 3-4).
	LFSStats = lfs.Stats
	// TraceStats summarizes a canonicalized trace.
	TraceStats = prep.Stats
	// Workspace caches trace passes shared between experiments. Its
	// builds run under per-trace singleflight, so one workspace may be
	// used from many goroutines; SetEngine controls the parallelism of
	// the experiment drivers below.
	Workspace = report.Workspace
	// Engine is the concurrent experiment runner the drivers submit
	// their job grids to: a worker pool with context cancellation on
	// first error and progress/metrics hooks. Results are always
	// assembled in deterministic index order, so experiment output is
	// byte-identical at any worker count.
	Engine = engine.Engine
	// EngineHooks observe job starts and finishes (cmd/nvreport's
	// -progress flag uses them).
	EngineHooks = engine.Hooks
	// EngineMetrics is a snapshot of an engine's job counters.
	EngineMetrics = engine.Metrics

	// Experiment results, one per table/figure.
	Figure2Result      = report.Figure2Result
	Table2Result       = report.Table2Result
	PolicySweepResult  = report.PolicySweepResult
	ModelCompareResult = report.ModelCompareResult
	BusResult          = report.BusResult
	ServerStudyResult  = report.ServerStudyResult
	SortedBufferResult = report.SortedBufferResult
	CostStudyResult    = report.CostStudyResult
	AblationResult     = report.AblationResult
	ServerCacheResult  = report.ServerCacheResult
	LatencyResult      = report.LatencyResult
	StackResult        = report.StackResult
	ReadResponseResult = report.ReadResponseResult

	// Experiment is one registered nvreport experiment: its name, a
	// one-line description, how to run it, and its chart title and CSV
	// name; see Experiments.
	Experiment = report.Experiment
	// Session is the state one run of the registry shares between
	// experiments: the workspace, the server studies' duration, and the
	// server study Tables 3-4 and the buffer table render.
	Session = report.Session

	// FaultStats is the fault-injection stage's counter snapshot: retry
	// and backoff activity, degradation costs (stall time, shed bytes),
	// and the NVRAM dirty high-water mark while the server was down.
	FaultStats = faults.Stats

	// Crash-injection harness types (internal/crash): the outcome of one
	// fault injected at a trace-event boundary.
	CacheCrashOutcome = crash.CacheOutcome
	LFSCrashConfig    = crash.LFSConfig

	// Tabular is any experiment result exportable as CSV rows.
	Tabular = report.Tabular

	// FS is the log-structured file system simulator, exposed for direct
	// use (segment writes, fsync behavior, checkpoints, crash recovery).
	FS = lfs.FS
	// RecoveryReport describes a crash-recovery outcome.
	RecoveryReport = lfs.RecoveryReport
	// Store is a battery-backed client memory with crash/detach modeling
	// (the paper's Section 4 reliability discussion).
	Store = nvram.Store

	// Image is a file-backed (mmap) NVRAM image: a checksummed record log
	// with crash-consistent commits, reopened and replayed after a kill.
	Image = nvram.Image
	// ImageOptions configures OpenImage (capacity, power-loss shadow).
	ImageOptions = nvram.ImageOptions
	// ImageRecovery describes what reopening an image found: committed
	// records replayed, torn tail discarded.
	ImageRecovery = nvram.ImageRecovery
	// ImageStats counts an image's record and msync activity.
	ImageStats = nvram.ImageStats
	// DurableOutcome is the result of one kill/reopen crash verification
	// against a durable NVRAM image.
	DurableOutcome = crash.DurableOutcome
)

// NumStandardTraces is the number of standard traces (eight 24-hour
// traces, as in the paper).
const NumStandardTraces = workload.NumStandardTraces

// Trace is a file-system trace ready for simulation, held as its
// recorded canonical operations (varint-encoded, about 1.5 bytes a field).
// Every simulation entry point replays them through a fresh cursor (Ops),
// so running a trace needs memory for the recording and the cache under
// test, never for a materialized op slice.
type Trace struct {
	Name string
	rec  *prep.Recording
}

// recordProfile synthesizes a workload and records its canonical
// operations in one streaming pass; nothing materializes the event or op
// stream.
func recordProfile(p workload.Profile) (*Trace, error) {
	rec, err := prep.Record(workload.NewCursor(p), prep.Options{Trusted: true})
	if err != nil {
		return nil, err
	}
	return &Trace{Name: p.Name, rec: rec}, nil
}

// StandardTrace synthesizes standard trace i (1..8) at the given volume
// scale (1.0 = paper scale; traces 3 and 4 carry the heavy simulation
// workloads).
func StandardTrace(i int, scale float64) (*Trace, error) {
	if i < 1 || i > NumStandardTraces {
		return nil, fmt.Errorf("nvramfs: trace index %d out of range 1..%d", i, NumStandardTraces)
	}
	return recordProfile(workload.StandardProfile(i, scale))
}

// WorkloadTemplate writes an example JSON workload profile (the standard
// trace 1 cast) that can be edited and fed back via CustomTrace or
// cmd/nvtrace -config.
func WorkloadTemplate(w io.Writer) error {
	spec := workload.StandardProfile(1, 1.0).Spec()
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(spec)
}

// CustomTrace synthesizes a trace from a JSON workload profile (see
// workload.ProfileSpec's documentation for the schema; cmd/nvtrace
// -config uses this).
func CustomTrace(config io.Reader) (*Trace, error) {
	p, err := workload.ParseProfile(config)
	if err != nil {
		return nil, err
	}
	return recordProfile(p)
}

// WriteCustomTrace synthesizes a trace from a JSON workload profile and
// writes it in the binary trace format, returning the event count.
func WriteCustomTrace(w io.Writer, config io.Reader) (int64, error) {
	p, err := workload.ParseProfile(config)
	if err != nil {
		return 0, err
	}
	return writeProfile(w, p)
}

// writeProfile synthesizes p's trace and writes it in the binary trace
// format, returning the event count.
func writeProfile(w io.Writer, p workload.Profile) (int64, error) {
	tw, err := trace.NewWriter(w, p.Header())
	if err != nil {
		return 0, err
	}
	n, err := workload.Generate(p, tw.Write)
	if err != nil {
		return n, err
	}
	return n, tw.Close()
}

// ReadTrace loads a trace from the binary trace format (as written by
// cmd/nvtrace or WriteStandardTrace), canonicalizing it once into a
// recording; the pass rejects corrupt or out-of-order input.
func ReadTrace(r io.Reader) (*Trace, error) {
	tr, err := trace.NewReader(r)
	if err != nil {
		return nil, err
	}
	// The Reader validates every event and rejects clock regressions at
	// decode, so the canonicalizer can trust the stream.
	rec, err := prep.Record(tr, prep.Options{Trusted: true})
	if err != nil {
		return nil, err
	}
	return &Trace{Name: tr.Header().Name, rec: rec}, nil
}

// WriteStandardTrace synthesizes standard trace i and writes it in the
// binary trace format, returning the event count.
func WriteStandardTrace(w io.Writer, i int, scale float64) (int64, error) {
	if i < 1 || i > NumStandardTraces {
		return 0, fmt.Errorf("nvramfs: trace index %d out of range 1..%d", i, NumStandardTraces)
	}
	return writeProfile(w, workload.StandardProfile(i, scale))
}

// Stats returns trace-level totals (events, bytes read/written, files).
func (t *Trace) Stats() TraceStats { return t.rec.Stats() }

// NumOps returns the number of canonicalized simulation operations —
// the domain of CrashCache's event boundaries (0..NumOps inclusive).
func (t *Trace) NumOps() int { return int(t.rec.Stats().Ops) }

// Ops returns a fresh single-use cursor over the trace's canonical
// operations; Trace implements the simulators' replayable stream
// interface, so multi-pass consumers (the LFS crash oracle) ask for a new
// cursor per pass. Cursors are independent: any number may be open at
// once, each decoding the shared recording on its own.
func (t *Trace) Ops() (prep.Source, error) { return t.rec.Ops() }

// DumpTrace pretty-prints a trace file's header and first n events (all
// when n <= 0); a trace-inspection aid for cmd/nvtrace -dump.
func DumpTrace(w io.Writer, r io.Reader, n int) error {
	tr, err := trace.NewReader(r)
	if err != nil {
		return err
	}
	h := tr.Header()
	fmt.Fprintf(w, "trace %q: %d clients, %v, seed %d\n", h.Name, h.Clients, h.Duration, h.Seed)
	count := 0
	for n <= 0 || count < n {
		e, err := tr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return err
		}
		fmt.Fprintln(w, e)
		count++
	}
	fmt.Fprintf(w, "(%d events shown)\n", count)
	return nil
}

// Analyze runs the infinite-cache lifetime analysis (Figure 2, Table 2).
func (t *Trace) Analyze() (*Lifetime, error) {
	src, err := t.Ops()
	if err != nil {
		return nil, err
	}
	return lifetime.AnalyzeWith(src, lifetime.Options{FilesHint: t.rec.Stats().Files})
}

// CacheConfig parameterizes a client cache simulation.
type CacheConfig struct {
	// Model is "volatile", "write-aside", or "unified".
	Model string
	// Policy is the NVRAM replacement policy: "lru" (default), "random",
	// or "omniscient" (the omniscient schedule is built automatically).
	Policy string
	// VolatileMB and NVRAMMB size the two memories per client.
	VolatileMB float64
	NVRAMMB    float64
	// WritesOnly ignores read traffic (the paper's Figure 3 methodology).
	WritesOnly bool
	// Seed drives the random policy.
	Seed int64
	// Faults, when non-empty, installs the fault-injection stage on the
	// client→server write-back path: an unreliable network and server
	// model (RPC drops, latency spikes, outage windows) with a retrying,
	// backoff-driven scheduler. The spec grammar is comma-separated
	// key=value pairs; FaultSpecUsage lists the keys.
	Faults string
}

// FaultSpecUsage describes the -faults spec grammar: one line per key
// with its meaning and default.
func FaultSpecUsage() string { return faults.SpecUsage() }

// DescribeFaultSpec validates a fault spec and returns its canonical
// description with every default filled in (including the seed, so a
// run's schedule can be reproduced from the printed banner alone).
func DescribeFaultSpec(spec string) (string, error) {
	p, err := faults.ParseSpec(spec)
	if err != nil {
		return "", err
	}
	return p.Describe(), nil
}

// simConfig translates a CacheConfig into the simulator's configuration.
func (t *Trace) simConfig(cfg CacheConfig) (sim.Config, error) {
	var model cache.ModelKind
	switch cfg.Model {
	case "volatile", "":
		model = cache.ModelVolatile
	case "write-aside":
		model = cache.ModelWriteAside
	case "unified":
		model = cache.ModelUnified
	case "hybrid":
		model = cache.ModelHybrid
	default:
		return sim.Config{}, fmt.Errorf("nvramfs: unknown cache model %q", cfg.Model)
	}
	var policy cache.PolicyKind
	var sched cache.Schedule
	switch cfg.Policy {
	case "lru", "":
		policy = cache.LRU
	case "random":
		policy = cache.Random
	case "omniscient":
		policy = cache.Omniscient
		src, err := t.Ops()
		if err != nil {
			return sim.Config{}, err
		}
		s, err := lifetime.BuildSchedule(src, cache.DefaultBlockSize)
		if err != nil {
			return sim.Config{}, err
		}
		sched = s
	default:
		return sim.Config{}, fmt.Errorf("nvramfs: unknown policy %q", cfg.Policy)
	}
	var fp *faults.Profile
	if cfg.Faults != "" {
		var err error
		fp, err = faults.ParseSpec(cfg.Faults)
		if err != nil {
			return sim.Config{}, err
		}
	}
	return sim.Config{
		Model: model,
		Cache: cache.Config{
			VolatileBlocks: sim.BlocksForBytes(int64(cfg.VolatileMB*float64(sim.MB)), cache.DefaultBlockSize),
			NVRAMBlocks:    sim.BlocksForBytes(int64(cfg.NVRAMMB*float64(sim.MB)), cache.DefaultBlockSize),
			Policy:         policy,
			Schedule:       sched,
		},
		Seed:       cfg.Seed,
		WritesOnly: cfg.WritesOnly,
		FilesHint:  t.rec.Stats().Files,
		Faults:     fp,
	}, nil
}

// RunCache simulates the trace under the configured client cache model.
func (t *Trace) RunCache(cfg CacheConfig) (*CacheResult, error) {
	sc, err := t.simConfig(cfg)
	if err != nil {
		return nil, err
	}
	src, err := t.Ops()
	if err != nil {
		return nil, err
	}
	return sim.Run(src, sc)
}

// CrashCache simulates the trace's first `at` operations under the
// configured cache model, injects a crash at that event boundary, and
// applies the paper's loss model (internal/crash). at < 0 or beyond the
// trace crashes at the end.
func (t *Trace) CrashCache(cfg CacheConfig, at int) (*CacheCrashOutcome, error) {
	sc, err := t.simConfig(cfg)
	if err != nil {
		return nil, err
	}
	if at < 0 || at > t.NumOps() {
		at = t.NumOps()
	}
	src, err := t.Ops()
	if err != nil {
		return nil, err
	}
	return crash.RunCache(src, sc, at)
}

// KillReopenCache runs the durable kill/reopen harness on the client
// cache path: the trace's first `at` operations are simulated with the
// fault stage's NVRAM write-back backlog mirrored into an image file
// under dir, the power is cut at that event boundary, and the image is
// reopened and verified against an in-memory oracle replay — zero
// committed-byte loss, element-wise. The configuration must carry a
// fault spec (the image holds the parked backlog). at < 0 or beyond the
// trace kills at the end.
func (t *Trace) KillReopenCache(cfg CacheConfig, dir string, at int) (*DurableOutcome, error) {
	sc, err := t.simConfig(cfg)
	if err != nil {
		return nil, err
	}
	if at < 0 || at > t.NumOps() {
		at = t.NumOps()
	}
	return crash.KillReopenCache(t, sc, dir, at, nil)
}

// KillReopenLFS runs the durable kill/reopen harness on the server LFS
// path: the write buffer and checkpoint mirror into an image file under
// dir, the power is cut after `at` operations, and recovery seeded from
// the reopened image must reach the same durable fingerprint as recovery
// from process memory. at < 0 or beyond the trace kills at the end.
func (t *Trace) KillReopenLFS(cfg LFSCrashConfig, dir string, at int) (*DurableOutcome, error) {
	if at < 0 || at > t.NumOps() {
		at = t.NumOps()
	}
	return crash.KillReopenLFS(t, cfg, dir, at, nil)
}

// ServerResult is the outcome of one server file-system run.
type ServerResult struct {
	Name       string
	Stats      LFSStats
	DiskWrites int64
	DiskReads  int64
	// DiskBusy is total disk service time.
	DiskBusy time.Duration
}

// ServerFileSystems lists the eight standard LFS volumes of Tables 3-4.
func ServerFileSystems() []string {
	var names []string
	for _, p := range serverload.StandardProfiles() {
		names = append(names, p.Name)
	}
	return names
}

// RunServer replays the named standard file-system workload (e.g.
// "/user6") for the given duration against the LFS simulator, with an
// optional NVRAM write buffer of bufferBytes in front of the disk
// (0 disables it; the paper studies 512 KiB).
func RunServer(fsName string, duration time.Duration, bufferBytes int64) (*ServerResult, error) {
	p, ok := serverload.ProfileByName(fsName)
	if !ok {
		return nil, fmt.Errorf("nvramfs: unknown file system %q (see ServerFileSystems)", fsName)
	}
	if duration <= 0 {
		duration = serverload.DefaultDuration
	}
	d := disk.New(disk.DefaultParams())
	fs := lfs.New(lfs.Config{Name: fsName, BufferBytes: bufferBytes}, d)
	serverload.Run(p, fs, duration)
	return &ServerResult{
		Name:       fsName,
		Stats:      *fs.Stats(),
		DiskWrites: d.Writes,
		DiskReads:  d.Reads,
		DiskBusy:   d.BusyTime,
	}, nil
}

// NewRecoverableFS builds a log-structured file system on a default disk
// with an optional NVRAM write buffer (0 disables it), for direct
// experimentation with segments, fsync behavior, checkpoints, and crash
// recovery.
func NewRecoverableFS(bufferBytes int64) (*FS, error) {
	if bufferBytes < 0 {
		return nil, fmt.Errorf("nvramfs: negative buffer size %d", bufferBytes)
	}
	return lfs.New(lfs.Config{BufferBytes: bufferBytes}, disk.New(disk.DefaultParams())), nil
}

// NewStore returns a battery-backed store with the given number of
// lithium batteries (Table 1's components carry one to three).
func NewStore(batteries int) *Store { return nvram.NewStore(batteries) }

// OpenImage opens (creating if absent) a durable NVRAM image file: a
// mmap-backed, checksummed record log whose committed records survive
// SIGKILL and — via the two-phase commit protocol — power loss. The
// returned recovery report says what reopening found.
func OpenImage(path string, opts ImageOptions) (*Image, *ImageRecovery, error) {
	return nvram.OpenImage(path, opts)
}

// NewWorkspace returns a workspace for the experiment drivers below at
// the given workload scale (1.0 = paper scale). Its default engine uses
// every CPU; use SetEngine(NewEngine(n)) to bound or serialize it.
func NewWorkspace(scale float64) *Workspace { return report.NewWorkspace(scale) }

// NewEngine returns a parallel experiment runner with the given worker
// count (<= 0 selects runtime.NumCPU). Pass it to a workspace via
// SetEngine and to the server studies.
func NewEngine(workers int) *Engine { return engine.New(workers) }

// Experiment drivers for Figures 2-6, Table 2 and Tables 3-4, which the
// benchmark's sweep calls directly; every other experiment is reached
// through the registry (Experiments). Each result renders itself as text
// via its Render method(s).
//
// Every driver takes a context and propagates its cancellation into the
// job grid (the first error or a cancelled context stops the remaining
// jobs); callers with nothing to cancel pass context.Background(). The
// sweep cells run concurrently on the workspace's engine and are
// assembled in deterministic index order.

// Figure2Context sweeps write-back delay against net write traffic per
// trace.
func Figure2Context(ctx context.Context, ws *Workspace) (*Figure2Result, error) {
	return report.Figure2Context(ctx, ws)
}

// Table2Context tallies the fate of every written byte with infinite
// NVRAM.
func Table2Context(ctx context.Context, ws *Workspace) (*Table2Result, error) {
	return report.Table2Context(ctx, ws)
}

// Figure3Context sweeps NVRAM size under the omniscient policy for every
// trace.
func Figure3Context(ctx context.Context, ws *Workspace) (*PolicySweepResult, error) {
	return report.Figure3Context(ctx, ws)
}

// Figure4Context compares LRU, random, and omniscient replacement on
// trace 7.
func Figure4Context(ctx context.Context, ws *Workspace) (*PolicySweepResult, error) {
	return report.Figure4Context(ctx, ws)
}

// Figure5Context compares the three cache models' total traffic on
// trace 7.
func Figure5Context(ctx context.Context, ws *Workspace) (*ModelCompareResult, error) {
	return report.Figure5Context(ctx, ws)
}

// Figure6Context compares volatile vs unified growth from 8 MB and 16 MB
// bases.
func Figure6Context(ctx context.Context, ws *Workspace) (*ModelCompareResult, error) {
	return report.Figure6Context(ctx, ws)
}

// ServerStudyContext produces Tables 3-4 and the write-buffer comparison,
// running its sixteen LFS replays on eng (nil runs them serially).
func ServerStudyContext(ctx context.Context, eng *Engine, duration time.Duration) (*ServerStudyResult, error) {
	return report.ServerStudyContext(ctx, eng, duration)
}

// WriteCSV exports an experiment result's data rows as CSV (for external
// plotting tools).
func WriteCSV(w io.Writer, t Tabular) error { return report.WriteCSV(w, t) }

// Experiments returns the nvreport experiment registry in report order —
// the single source of truth for -exp names, help text and how each
// experiment runs.
func Experiments() []Experiment { return report.Experiments() }
