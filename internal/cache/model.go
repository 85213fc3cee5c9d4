package cache

import (
	"fmt"

	"nvramfs/internal/interval"
)

// ModelKind selects one of the paper's client cache organizations.
type ModelKind uint8

// Cache models (paper Section 2.1 and Figure 1).
const (
	// ModelVolatile is the baseline: a single volatile cache with strict
	// LRU replacement (no dirty preference), Sprite's 30-second delayed
	// write-back, and synchronous fsync flushes.
	ModelVolatile ModelKind = iota
	// ModelWriteAside adds an NVRAM that shadows dirty data: blocks are
	// written into both memories, the NVRAM is never read except after a
	// crash, and there is no delayed write-back (dirty data leaves the
	// NVRAM only on replacement or consistency flushes).
	ModelWriteAside
	// ModelUnified integrates the NVRAM with the volatile cache: dirty
	// blocks reside only in the NVRAM, clean blocks in either memory, and
	// reads are satisfied from both.
	ModelUnified
	// ModelHybrid is the extension the paper's Section 2.6 sketches:
	// dirty blocks may be written to either memory (the whole cache is
	// the replacement pool for new writes), with volatile-resident dirty
	// data protected only by the 30-second delayed write-back.
	ModelHybrid
)

func (k ModelKind) String() string {
	switch k {
	case ModelVolatile:
		return "volatile"
	case ModelWriteAside:
		return "write-aside"
	case ModelUnified:
		return "unified"
	case ModelHybrid:
		return "hybrid"
	}
	return fmt.Sprintf("model(%d)", uint8(k))
}

// StagesWritesInNVRAM reports whether the organization stages every
// incoming dirty byte in NVRAM before it reaches the server: write-aside
// copies all writes into the NVRAM shadow and unified places dirty
// blocks only in NVRAM, so even a write that bypasses the cache (the
// consistency protocol's write-through mode) has a stable staging copy.
// Volatile has no NVRAM, and hybrid commits a write to one pool only
// after placement, so a bypassed write is unstaged for both.
func (k ModelKind) StagesWritesInNVRAM() bool {
	return k == ModelWriteAside || k == ModelUnified
}

// Config parameterizes a client cache.
type Config struct {
	// BlockSize is the cache block size; defaults to DefaultBlockSize.
	BlockSize int64
	// VolatileBlocks is the volatile cache capacity in blocks.
	VolatileBlocks int
	// NVRAMBlocks is the NVRAM capacity in blocks (ignored by the
	// volatile model).
	NVRAMBlocks int
	// Policy is the NVRAM replacement policy (the volatile cache is
	// always LRU, as in all of the paper's simulations).
	Policy PolicyKind
	// Schedule supplies next-modify times for the omniscient policy.
	Schedule Schedule
	// Seed seeds the random policy's source.
	Seed int64
	// WriteBackDelay is the volatile model's delayed write-back age in
	// microseconds; defaults to 30 seconds.
	WriteBackDelay int64
	// DirtyPreference makes the volatile model replace the first *clean*
	// block in LRU order before any dirty block, like real Sprite caches.
	// The paper's simplified volatile model disables this (its Section
	// 2.1 notes the preference trades read traffic for write traffic);
	// enabling it is an ablation.
	DirtyPreference bool
	// Hooks, when non-nil, receives every byte of client-server traffic
	// the cache generates, so a server model can be attached downstream
	// (the end-to-end stack study).
	Hooks *ServerHooks
	// Arena recycles evicted blocks. When nil the model allocates a
	// private arena, so within-run recycling always works; the simulation
	// driver shares one arena across a run's clients, and the report
	// drivers share arenas across a workspace's grid cells.
	Arena *BlockArena
}

// ServerHooks receives the client-server traffic a cache model generates.
type ServerHooks struct {
	// Write is called for each run of dirty bytes written back to the
	// server, with the write-back time and cause. stable reports whether
	// the run's source bytes were NVRAM-resident at the flush: a stable
	// write-back's data remains recoverable client-side while the RPC is
	// in flight, an unstable one's data exists only on the wire (the
	// fault-injection stage uses this to pick degradation semantics).
	Write func(now int64, file uint64, r interval.Range, cause Cause, stable bool)
	// Read is called for each range fetched from the server on a miss.
	Read func(now int64, file uint64, r interval.Range)
	// Delete is called (by the simulation driver) when a byte range dies
	// cluster-wide, so the server can reclaim it.
	Delete func(now int64, file uint64, r interval.Range)
}

// emitWrite delivers flushed segments to the hooks (no-op when unhooked).
// stable marks segments flushed out of NVRAM (see ServerHooks.Write).
func (h *ServerHooks) emitWrite(now int64, file uint64, segs []interval.Seg, cause Cause, stable bool) {
	if h == nil || h.Write == nil {
		return
	}
	for _, g := range segs {
		h.Write(now, file, interval.Range{Start: g.Start, End: g.End}, cause, stable)
	}
}

// emitRead delivers the missing sub-ranges of ext (those not covered by
// valid) to the hooks.
func (h *ServerHooks) emitRead(now int64, file uint64, valid *interval.Set, ext interval.Range) {
	if h == nil || h.Read == nil {
		return
	}
	cur := ext.Start
	for _, have := range valid.IntersectRange(ext) {
		if have.Start > cur {
			h.Read(now, file, interval.Range{Start: cur, End: have.Start})
		}
		cur = have.End
	}
	if cur < ext.End {
		h.Read(now, file, interval.Range{Start: cur, End: ext.End})
	}
}

func (c *Config) fillDefaults() {
	if c.BlockSize <= 0 {
		c.BlockSize = DefaultBlockSize
	}
	if c.WriteBackDelay <= 0 {
		c.WriteBackDelay = 30 * 1e6
	}
	if c.Arena == nil {
		c.Arena = NewBlockArena()
	}
}

// Model is a client file cache under simulation. The simulation driver
// calls Advance before delivering each operation so time-based machinery
// (the volatile model's block cleaner) can run.
//
// All byte ranges are file-absolute. fileSize bounds block fetches so a
// read miss near end-of-file does not fetch bytes past it.
type Model interface {
	Kind() ModelKind
	// Advance runs background machinery up to the given time.
	Advance(now int64)
	// Read serves an application read.
	Read(now int64, file uint64, r interval.Range, fileSize int64)
	// Write serves an application write.
	Write(now int64, file uint64, r interval.Range)
	// DeleteRange kills the bytes of r: cached copies are discarded and
	// dirty bytes die in place (absorption).
	DeleteRange(now int64, file uint64, r interval.Range)
	// Fsync flushes the file's volatile-resident dirty bytes: all of them
	// in the volatile model, those outside the NVRAM in the hybrid model.
	// Write-aside and unified treat NVRAM as stable storage and do
	// nothing.
	Fsync(now int64, file uint64)
	// FlushFile writes the file's dirty bytes to the server, returning the
	// byte count.
	FlushFile(now int64, file uint64, cause Cause) int64
	// FlushAll writes every dirty byte to the server.
	FlushAll(now int64, cause Cause) int64
	// Invalidate discards the file's cached blocks (flushing any dirty
	// bytes first, attributed to CauseCallback).
	Invalidate(now int64, file uint64)
	// NoteConcurrent accounts for traffic that bypassed the cache while
	// caching was disabled on a file.
	NoteConcurrent(read bool, n int64)
	// Traffic exposes the accumulated counters.
	Traffic() *Traffic
	// DirtyBytes reports currently-dirty bytes (for invariant checks).
	DirtyBytes() int64
	// ForEachDirty calls fn for every dirty byte run, in (file, offset)
	// order within each memory. The Seg's Tag is the simulated time the
	// run's bytes were written. stable reports whether the run resides in
	// NVRAM (it survives a crash) or only in volatile memory (it is
	// destroyed). The crash harness uses it to apply the loss model; it
	// may allocate, so it must stay off the simulation hot path.
	ForEachDirty(fn func(file uint64, g interval.Seg, stable bool))
	// CachedBlocks reports the number of resident blocks across memories.
	CachedBlocks() int
	// Release returns every resident block to the configured arena. The
	// model must not be used afterwards; callers invoke it after the run's
	// results have been collected so the arena can serve the next run.
	Release()
	// Pools returns the volatile pool and the NVRAM pool (nil for the
	// volatile model), so a driver that shares one model among several
	// capacities can size them (Pool.SetCapacity).
	Pools() (vol, nv *Pool)
	// Fork returns a deep copy whose volatile and NVRAM pools hold
	// volBlocks and nvBlocks blocks (the volatile model ignores nvBlocks):
	// blocks, per-file chains, replacement order (the omniscient heap with
	// its schedule cursors, the random policy's members and source), the
	// cleaner heap and the traffic counters. The copy shares the arena and
	// schedule and is unshared (Pool.SetCapacity). Each pool must hold no
	// more blocks than its new capacity.
	Fork(volBlocks, nvBlocks int) Model
}

// NewModel constructs a cache model.
func NewModel(kind ModelKind, cfg Config) (Model, error) {
	cfg.fillDefaults()
	switch kind {
	case ModelVolatile:
		if cfg.VolatileBlocks <= 0 {
			return nil, fmt.Errorf("cache: volatile model needs VolatileBlocks > 0")
		}
		return newVolatile(cfg), nil
	case ModelWriteAside, ModelUnified, ModelHybrid:
		if cfg.NVRAMBlocks <= 0 {
			return nil, fmt.Errorf("cache: %v model needs NVRAMBlocks > 0", kind)
		}
		if cfg.VolatileBlocks < 0 {
			return nil, fmt.Errorf("cache: %v model given negative VolatileBlocks %d", kind, cfg.VolatileBlocks)
		}
		pol, err := newPolicy(cfg)
		if err != nil {
			return nil, err
		}
		switch kind {
		case ModelWriteAside:
			if cfg.VolatileBlocks <= 0 {
				return nil, fmt.Errorf("cache: write-aside model needs VolatileBlocks > 0")
			}
			return newWriteAside(cfg, pol), nil
		case ModelHybrid:
			return newHybrid(cfg, pol), nil
		}
		return newUnified(cfg, pol), nil
	default:
		return nil, fmt.Errorf("cache: unknown model kind %d", kind)
	}
}
