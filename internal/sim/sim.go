// Package sim drives trace-driven simulations of the client cache models:
// it feeds canonical trace operations through per-client caches and the
// Sprite consistency protocol, and accumulates the cluster-wide traffic
// that the paper's Figures 3-6 report.
package sim

import (
	"fmt"

	"nvramfs/internal/cache"
	"nvramfs/internal/consist"
	"nvramfs/internal/faults"
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
//
// A Stepper is a one-cell Broadcast (whose one capacity class never
// forks) plus a cursor over its source: every simulation runs the same
// op dispatch.
type Stepper struct {
	src prep.Source
	idx int
	b   *Broadcast
}

// NewStepper prepares a stepwise simulation pulling from src. A nil source
// is allowed for callers that push operations themselves via Apply (the
// live daemon feeds each op as it arrives).
func NewStepper(src prep.Source, cfg Config) *Stepper {
	return &Stepper{
		src: src,
		b:   newBroadcast(cfg, [][2]int{{cfg.Cache.VolatileBlocks, cfg.Cache.NVRAMBlocks}}),
	}
}

// Index returns how many operations have been applied.
func (d *Stepper) Index() int { return d.idx }

// Now returns the time of the last applied operation (0 before the first).
func (d *Stepper) Now() int64 { return d.b.now }

// Server exposes the consistency server for invariant checks.
func (d *Stepper) Server() *consist.Server { return d.b.server }

// CurrentClient returns the client whose cache model the stepper is
// currently driving. Cache hooks carry no client identity, so an external
// write-back stage (the daemon interposes its own, the way the fault
// stage does internally) reads the originating client here while a hook
// is firing.
func (d *Stepper) CurrentClient() uint32 { return d.b.cur }

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
		if err := d.Apply(op); err != nil {
			return err
		}
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
		if err := d.Apply(op); err != nil {
			return err
		}
	}
}

// Apply applies one caller-supplied operation, bypassing the source.
func (d *Stepper) Apply(op prep.Op) error {
	if err := d.b.Apply(op); err != nil {
		return err
	}
	d.idx++
	return nil
}

// Faults exposes the fault injector (nil without Config.Faults) so the
// crash harness can compose a crash with the in-flight backlog.
func (d *Stepper) Faults() *faults.Injector { return d.b.fault }

// ForEachModel visits each client's cache model in client-id order. The
// visited client is also made current for the fault stage, so a harness
// that drives models directly (crash injection) attributes any resulting
// write-backs to the right client.
func (d *Stepper) ForEachModel(fn func(client uint32, m cache.Model)) {
	for _, c := range d.b.clients {
		d.b.visit(c, 0, false, func(m cache.Model) { fn(c, m) })
	}
}

// Finish ends the trace — every cache advances to the last applied
// operation's time and flushes its remaining dirty bytes, as Run does —
// and collects the Result. Call Release afterwards to recycle the blocks.
func (d *Stepper) Finish() *Result { return d.b.Finish()[0] }

// Release returns every model's blocks to the arena. Traffic counters
// survive Release (a Result holds its own copies); the blocks go back to
// the arena for the caller's next run.
func (d *Stepper) Release() { d.b.Release() }

// clientSeed is the seed of a client's random replacement policy: each
// client draws its own stream.
func clientSeed(seed int64, client uint32) int64 { return seed + int64(client)*7919 }

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
