// Package sim drives trace-driven simulations of the client cache models:
// it feeds canonical trace operations through per-client caches and the
// Sprite consistency protocol, and accumulates the cluster-wide traffic
// that the paper's Figures 3-6 report.
package sim

import (
	"context"
	"fmt"
	"slices"

	"nvramfs/internal/cache"
	"nvramfs/internal/consist"
	"nvramfs/internal/faults"
	"nvramfs/internal/interval"
	"nvramfs/internal/nvram"
	"nvramfs/internal/prep"
)

// Config parameterizes one simulation run.
type Config struct {
	// Model selects the cache organization.
	Model cache.ModelKind
	// Cache is the per-client cache configuration. Schedule may be left
	// nil; Cache.Seed is ignored: each client's random policy draws from
	// its own source seeded from Seed.
	Cache cache.Config
	// Seed drives the random replacement policy.
	Seed int64
	// WritesOnly ignores read operations, reproducing the paper's
	// Figure 3 omniscient setup, which measured write traffic without the
	// effects of read traffic on cache replacement.
	WritesOnly bool
	// FilesHint pre-sizes the per-file bookkeeping maps (typically
	// prep.Stats.Files); zero means no hint.
	FilesHint int
	// Faults, when non-nil, routes every write-back through a
	// fault-injecting retry stage (package faults) before it reaches the
	// consistency server and any downstream hooks. nil (the default)
	// leaves the write-back path untouched, byte-identical to a build
	// without the stage.
	Faults *faults.Profile
	// DurableImage, when set together with Faults, durably mirrors the
	// fault stage's NVRAM-parked backlog into an on-disk image
	// (faults.Injector.AttachImage): the crash harness can then kill the
	// process and recover the backlog from the file. nil (the default)
	// keeps everything in memory, byte-identical to pre-image builds.
	DurableImage *nvram.Image
}

// Result is the outcome of a simulation run.
type Result struct {
	// Traffic is the cluster-wide total.
	Traffic cache.Traffic
	// PerClient holds each client's counters.
	PerClient map[uint32]*cache.Traffic
	// Recalls and DisableEvents summarize the consistency server.
	Recalls       int64
	DisableEvents int64
	// ReplayedWrites counts write-back RPCs the server detected as
	// idempotent re-deliveries (lost acks); zero without fault injection.
	ReplayedWrites int64
	// Faults carries the fault stage's counters when Config.Faults was
	// set, nil otherwise.
	Faults *faults.Stats
	// EndTime is the time of the last processed op.
	EndTime int64
}

// Run simulates a canonical op stream under the configured cache model,
// consuming the source in one forward pass: memory stays O(cache size)
// regardless of trace length.
func Run(src prep.Source, cfg Config) (*Result, error) {
	s := NewStepper(src, cfg)
	if err := s.StepAll(); err != nil {
		return nil, err
	}
	res := s.Finish()
	s.Release()
	return res, nil
}

// Stepper runs a simulation one trace operation at a time. Run drives it
// straight through; the crash-injection harness (internal/crash) instead
// halts it at an arbitrary event boundary and inspects the mid-run cache
// and server state. State after StepTo(k) is exactly the state Run passes
// through after applying ops[:k], so a stepped run and a straight run of
// the same prefix are interchangeable.
type Stepper struct {
	src    prep.Source
	idx    int
	cfg    Config
	server *consist.Server
	// models is indexed directly by client id (ids are small and dense in
	// the Sprite-like traces); nil entries are clients not yet seen.
	models  []cache.Model
	sizes   map[uint64]int64
	clients []uint32 // known clients, sorted; rebuilt lazily
	sorted  bool
	now     int64
	// curClient is the client whose cache model is currently being
	// driven; the fault stage reads it because the cache hooks carry no
	// client identity.
	curClient uint32
	fault     *faults.Injector
}

// NewStepper prepares a stepwise simulation pulling from src. A nil source
// is allowed for callers that push operations themselves via Apply (the
// live daemon feeds each op as it arrives).
func NewStepper(src prep.Source, cfg Config) *Stepper {
	if cfg.Cache.BlockSize <= 0 {
		cfg.Cache.BlockSize = cache.DefaultBlockSize
	}
	if cfg.Cache.Arena == nil {
		// One arena per run: every client's evictions feed every client's
		// allocations. Callers that run many configurations (the report
		// drivers) pass a longer-lived arena instead.
		cfg.Cache.Arena = cache.NewBlockArena()
	}
	d := &Stepper{
		src:    src,
		cfg:    cfg,
		server: consist.NewServerSized(cfg.FilesHint),
		sizes:  make(map[uint64]int64, cfg.FilesHint),
	}
	if cfg.Faults != nil {
		d.installFaultStage()
	}
	return d
}

// installFaultStage interposes the fault injector between the cache
// models' write-backs and the downstream world: committed deliveries are
// presented to the consistency server for replay detection, then
// forwarded to whatever hooks the caller installed. Reads and deletes
// pass through untouched.
func (d *Stepper) installFaultStage() {
	inner := d.cfg.Cache.Hooks
	d.fault = faults.NewInjector(*d.cfg.Faults, func(now int64, dv faults.Delivery, replay bool) {
		if first := d.server.DeliverWriteback(dv.File, dv.Seq); !first || replay {
			return
		}
		if inner != nil && inner.Write != nil {
			inner.Write(now, dv.File, interval.Range{Start: dv.Start, End: dv.End},
				cache.Cause(dv.Cause), dv.Stable)
		}
	})
	if d.cfg.DurableImage != nil {
		d.fault.AttachImage(d.cfg.DurableImage)
	}
	hooks := &cache.ServerHooks{
		Write: func(now int64, file uint64, r interval.Range, cause cache.Cause, stable bool) {
			d.fault.Deliver(now, faults.Delivery{
				Client: d.curClient,
				File:   file,
				Start:  r.Start,
				End:    r.End,
				Cause:  uint8(cause),
				Stable: stable,
			})
		},
	}
	if inner != nil {
		hooks.Read = inner.Read
		hooks.Delete = inner.Delete
	}
	d.cfg.Cache.Hooks = hooks
}

// Index returns how many operations have been applied.
func (d *Stepper) Index() int { return d.idx }

// Now returns the time of the last applied operation (0 before the first).
func (d *Stepper) Now() int64 { return d.now }

// Server exposes the consistency server for invariant checks.
func (d *Stepper) Server() *consist.Server { return d.server }

// CurrentClient returns the client whose cache model the stepper is
// currently driving. Cache hooks carry no client identity, so an external
// write-back stage (the daemon interposes its own, the way
// installFaultStage does internally) reads the originating client here
// while a hook is firing.
func (d *Stepper) CurrentClient() uint32 { return d.curClient }

// StepTo pulls and applies operations until k have been applied. It cannot
// rewind: k below the current index is an error, as is a stream that ends
// before the k-th operation.
func (d *Stepper) StepTo(k int) error {
	if k < d.idx {
		return fmt.Errorf("sim: StepTo(%d) cannot rewind below %d", k, d.idx)
	}
	for d.idx < k {
		op, ok, err := d.src.Next()
		if err != nil {
			return err
		}
		if !ok {
			return fmt.Errorf("sim: op stream ended after %d ops, before StepTo(%d)", d.idx, k)
		}
		if err := d.apply(op); err != nil {
			return err
		}
		d.idx++
	}
	return nil
}

// StepAll drains the source, applying every remaining operation.
func (d *Stepper) StepAll() error {
	for {
		op, ok, err := d.src.Next()
		if err != nil {
			return err
		}
		if !ok {
			return nil
		}
		if err := d.apply(op); err != nil {
			return err
		}
		d.idx++
	}
}

// Apply applies one caller-supplied operation, bypassing the source.
func (d *Stepper) Apply(op prep.Op) error {
	if err := d.apply(op); err != nil {
		return err
	}
	d.idx++
	return nil
}

// StepToContext is StepTo with cooperative cancellation: the context is
// checked every few hundred operations, so a long run (for example one
// riding out a never-recovering outage) returns promptly when its grid
// is cancelled.
func (d *Stepper) StepToContext(ctx context.Context, k int) error {
	const checkEvery = 256
	for d.idx < k {
		next := d.idx + checkEvery
		if next > k {
			next = k
		}
		if err := ctx.Err(); err != nil {
			return err
		}
		if err := d.StepTo(next); err != nil {
			return err
		}
	}
	if k < d.idx {
		return d.StepTo(k) // surface the rewind error
	}
	return nil
}

// Faults exposes the fault injector (nil without Config.Faults) so the
// crash harness can compose a crash with the in-flight backlog.
func (d *Stepper) Faults() *faults.Injector { return d.fault }

// ForEachModel visits each client's cache model in client-id order. The
// visited client is also made current for the fault stage, so a harness
// that drives models directly (crash injection) attributes any resulting
// write-backs to the right client.
func (d *Stepper) ForEachModel(fn func(client uint32, m cache.Model)) {
	for _, c := range d.clientOrder() {
		d.curClient = c
		fn(c, d.models[c])
	}
}

// Finish ends the trace — every cache advances to the last applied
// operation's time and flushes its remaining dirty bytes, as Run does —
// and collects the Result. Call Release afterwards to recycle the blocks.
func (d *Stepper) Finish() *Result {
	d.finish()
	res := &Result{
		PerClient:      make(map[uint32]*cache.Traffic, len(d.clients)),
		Recalls:        d.server.Recalls,
		DisableEvents:  d.server.DisableEvents,
		ReplayedWrites: d.server.ReplayedWrites,
		EndTime:        d.now,
	}
	if d.fault != nil {
		st := d.fault.Stats()
		res.Faults = &st
	}
	for _, c := range d.clientOrder() {
		m := d.models[c]
		res.PerClient[c] = m.Traffic()
		res.Traffic.Add(m.Traffic())
	}
	return res
}

// Release returns every model's blocks to the arena. Traffic counters are
// owned by the models but survive Release (a Result references them); the
// blocks go back to the arena for the caller's next run.
func (d *Stepper) Release() {
	for _, m := range d.models {
		if m != nil {
			m.Release()
		}
	}
}

// model returns (creating on first use) the cache for a client.
func (d *Stepper) model(client uint32) (cache.Model, error) {
	if int(client) < len(d.models) {
		if m := d.models[client]; m != nil {
			return m, nil
		}
	} else {
		grown := make([]cache.Model, int(client)+1)
		copy(grown, d.models)
		d.models = grown
	}
	cc := d.cfg.Cache
	cc.Seed = clientSeed(d.cfg.Seed, client)
	m, err := cache.NewModel(d.cfg.Model, cc)
	if err != nil {
		return nil, fmt.Errorf("sim: client %d: %w", client, err)
	}
	d.models[client] = m
	d.clients = append(d.clients, client)
	d.sorted = false
	return m, nil
}

// clientSeed is the seed of a client's random replacement policy: each
// client draws its own stream.
func clientSeed(seed int64, client uint32) int64 { return seed + int64(client)*7919 }

func (d *Stepper) apply(op prep.Op) error {
	d.now = op.Time
	if d.fault != nil {
		d.fault.Advance(op.Time)
	}
	d.curClient = op.Client
	m, err := d.model(op.Client)
	if err != nil {
		return err
	}
	m.Advance(op.Time)

	switch op.Kind {
	case prep.Open:
		res := d.server.Open(op.Client, op.File, op.WriteMode)
		if res.RecallFrom != consist.NoClient {
			wm, err := d.model(res.RecallFrom)
			if err != nil {
				return err
			}
			wm.Advance(op.Time)
			d.curClient = res.RecallFrom
			if wm.FlushFile(op.Time, op.File, cache.CauseCallback) > 0 {
				d.server.Flushed(res.RecallFrom, op.File)
			}
			d.curClient = op.Client
		}
		if res.JustDisabled {
			// Concurrent write-sharing: every cached copy is flushed and
			// invalidated; subsequent I/O bypasses the caches.
			for _, c := range d.clientOrder() {
				d.curClient = c
				d.models[c].Invalidate(op.Time, op.File)
			}
			d.curClient = op.Client
		} else if res.InvalidateOpener {
			m.Invalidate(op.Time, op.File)
		}

	case prep.Close:
		d.server.Close(op.Client, op.File)

	case prep.Read:
		if d.cfg.WritesOnly {
			return nil
		}
		if d.server.Disabled(op.File) {
			m.NoteConcurrent(true, op.Range.Len())
			if h := d.cfg.Cache.Hooks; h != nil && h.Read != nil {
				h.Read(op.Time, op.File, op.Range)
			}
			return nil
		}
		size := d.sizes[op.File]
		if op.Range.End > size {
			size = op.Range.End
			d.sizes[op.File] = size
		}
		m.Read(op.Time, op.File, op.Range, size)

	case prep.Write:
		if op.Range.End > d.sizes[op.File] {
			d.sizes[op.File] = op.Range.End
		}
		if d.server.Disabled(op.File) {
			m.NoteConcurrent(false, op.Range.Len())
			if h := d.cfg.Cache.Hooks; h != nil && h.Write != nil {
				h.Write(op.Time, op.File, op.Range, cache.CauseConcurrent, d.cfg.Model.StagesWritesInNVRAM())
			}
			d.server.Write(op.Client, op.File)
			return nil
		}
		m.Write(op.Time, op.File, op.Range)
		d.server.Write(op.Client, op.File)

	case prep.DeleteRange:
		// Deletion is cluster-visible: every client's cached copy of the
		// dead bytes is discarded, and the writer's dirty bytes die in
		// place (absorption). Client order, not map order: the models'
		// hooks feed a shared server whose replay must be deterministic.
		for _, c := range d.clientOrder() {
			d.curClient = c
			d.models[c].Advance(op.Time)
			d.models[c].DeleteRange(op.Time, op.File, op.Range)
		}
		d.curClient = op.Client
		if h := d.cfg.Cache.Hooks; h != nil && h.Delete != nil {
			h.Delete(op.Time, op.File, op.Range)
		}
		if size := d.sizes[op.File]; op.Range.Start == 0 && op.Range.End >= size {
			delete(d.sizes, op.File)
			d.server.Deleted(op.File)
		} else if op.Range.End >= size {
			d.sizes[op.File] = op.Range.Start
		}

	case prep.Fsync:
		m.Fsync(op.Time, op.File)
		// Volatile caches flush to the server's disk on fsync.
		if d.cfg.Model == cache.ModelVolatile {
			d.server.Flushed(op.Client, op.File)
		}

	case prep.MigrateFlush:
		m.FlushAll(op.Time, cache.CauseMigration)
		d.server.FlushedClient(op.Client)

	default:
		return fmt.Errorf("sim: unknown op kind %v", op.Kind)
	}
	return nil
}

// clientOrder returns the known clients sorted by id. The slice is cached
// and re-sorted only when a new client appears, since cluster-wide events
// (deletes, sharing disables) consult it per operation.
func (d *Stepper) clientOrder() []uint32 {
	if !d.sorted {
		slices.Sort(d.clients)
		d.sorted = true
	}
	return d.clients
}

// finish advances every cache to the end of the trace and flushes the
// remaining dirty bytes (counted pessimistically as server traffic, as the
// paper's figures do).
func (d *Stepper) finish() {
	for _, c := range d.clientOrder() {
		d.curClient = c
		m := d.models[c]
		m.Advance(d.now)
		m.FlushAll(d.now, cache.CauseEnd)
	}
	if d.fault != nil {
		d.fault.Close(d.now)
	}
}

// BlocksForBytes converts a memory size in bytes to whole cache blocks.
func BlocksForBytes(bytes, blockSize int64) int {
	if blockSize <= 0 {
		blockSize = cache.DefaultBlockSize
	}
	n := bytes / blockSize
	if n < 1 {
		n = 1
	}
	return int(n)
}

// MB is one megabyte (the unit of the paper's memory-size sweeps).
const MB = int64(1 << 20)
