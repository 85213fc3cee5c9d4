package cache

import (
	"slices"

	"nvramfs/internal/heapq"
	"nvramfs/internal/interval"
)

// core is what the four organizations share: the configuration, the
// volatile pool (always LRU), the NVRAM pool (nil for the volatile
// model), the cleaner heap of the delayed write-back and the traffic
// counters, and every Model operation that does not depend on where a
// block is placed. Each model embeds a core and adds only its placement:
// where a new block goes, its Write, its Read lookup and its Fork.
//
// The core reads one property of the organization,
// ModelKind.StagesWritesInNVRAM. When it holds, the volatile pool is never
// dirty, so Fsync does nothing, flushes and enumerations skip the
// volatile pool, and a write-back out of the NVRAM takes the block out of
// it (leaveNV). Otherwise a dirty volatile block is on the cleaner heap
// at its FirstDirty, and a write-back leaves every block where it is.
type core struct {
	kind    ModelKind
	cfg     Config
	vol     *Pool
	nv      *Pool
	cleaner heapq.Heap[cleanerEntry, cleanerOrder]
	traffic Traffic
}

// newCore returns a core whose NVRAM pool uses pol, or which has no NVRAM
// when pol is nil.
func newCore(kind ModelKind, cfg Config, pol Policy) core {
	c := core{kind: kind, cfg: cfg, vol: NewPool(cfg.VolatileBlocks, newLRUPolicy())}
	if pol != nil {
		c.nv = NewPool(cfg.NVRAMBlocks, pol)
	}
	return c
}

func (c *core) Kind() ModelKind        { return c.kind }
func (c *core) Traffic() *Traffic      { return &c.traffic }
func (c *core) Pools() (vol, nv *Pool) { return c.vol, c.nv }

func (c *core) NoteConcurrent(read bool, n int64) {
	if read {
		c.traffic.AppReadBytes += n
		c.traffic.ServerReadBytes += n
	} else {
		c.traffic.AppWriteBytes += n
		c.traffic.WriteBack[CauseConcurrent] += n
	}
}

// cleanerEntry schedules a volatile block for the delayed write-back; the
// cleaner heap orders them by the time their dirty data first appeared.
// Entries are lazily invalidated: a popped entry is ignored unless the
// block is still dirty with the same first-dirty time.
type cleanerEntry struct {
	at int64
	id BlockID
}

type cleanerOrder struct{}

func (cleanerOrder) Less(a, b cleanerEntry) bool { return a.at < b.at }
func (cleanerOrder) Moved(cleanerEntry, int)     {}

// dirtyVolatile notes a write into volatile block b: a block that was
// clean becomes due for the delayed write-back WriteBackDelay from now. A
// block that stays dirty keeps its FirstDirty, and with it its cleaner
// entry (DESIGN.md §4).
func (c *core) dirtyVolatile(now int64, b *Block) {
	if b.FirstDirty == -1 {
		b.FirstDirty = now
		c.cleaner.Push(cleanerEntry{at: now, id: b.ID})
	}
}

// Advance runs the block cleaner: volatile blocks whose dirty data is
// older than the write-back delay are flushed to the server. (Sprite's
// cleaner runs every five seconds; we flush event-driven at exactly
// firstDirty+delay, an equivalent idealization.)
func (c *core) Advance(now int64) {
	for len(c.cleaner) > 0 && c.cleaner[0].at+c.cfg.WriteBackDelay <= now {
		e := c.cleaner.Pop()
		b := c.vol.Get(e.id)
		if b == nil || !b.IsDirty() || b.FirstDirty != e.at {
			continue // stale entry
		}
		c.writeBack(e.at+c.cfg.WriteBackDelay, b, CauseCleaner, false)
	}
}

// writeBack writes b's dirty bytes to the server and marks it clean.
// stable marks a block resident in the NVRAM, whose bytes are read out of
// it.
func (c *core) writeBack(now int64, b *Block, cause Cause, stable bool) int64 {
	segs := b.Dirty.RemoveAll()
	n := segsLen(segs)
	c.traffic.WriteBack[cause] += n
	if stable {
		c.traffic.NVRAMReadBytes += n
		c.traffic.NVRAMAccesses++
	}
	c.cfg.Hooks.emitWrite(now, b.ID.File, segs, cause, stable)
	b.markClean()
	return n
}

// writeBackOut writes back b, resident in the NVRAM of an organization
// that stages writes there, and takes it out of the NVRAM.
func (c *core) writeBackOut(now int64, b *Block, cause Cause) int64 {
	n := c.writeBack(now, b, cause, true)
	c.nv.Remove(b.ID)
	c.leaveNV(now, b)
	return n
}

// leaveNV disposes of a clean block that has just left the NVRAM, by the
// unified model's transfer rule: if the volatile pool has a free slot or
// its least-recently-used block is older than b, b moves into it;
// otherwise b is dropped. A write-aside shadow holds no valid bytes, so it
// is always dropped.
//
// One approximation: a transferred block is inserted at the MRU end of the
// volatile LRU list although its recorded access time may be older than
// other residents'. The placement *decision* is the paper's.
func (c *core) leaveNV(now int64, b *Block) {
	if c.vol.Capacity() == 0 || b.Valid.Len() == 0 {
		c.cfg.Arena.Put(b)
		return
	}
	if c.vol.Full() {
		lru := c.vol.Victim()
		if lru.LastAccess >= b.LastAccess {
			// The block is older than everything in the volatile cache.
			c.cfg.Arena.Put(b)
			return
		}
		c.vol.Remove(lru.ID) // clean by invariant; just dropped
		c.cfg.Arena.Put(lru)
	}
	n := b.Valid.Len()
	c.traffic.NVRAMReadBytes += n
	c.traffic.BusWriteBytes += n
	c.traffic.NVRAMAccesses++
	c.vol.Put(b, now)
}

// readHit serves sub from block b, resident in pool p.
func (c *core) readHit(now int64, p *Pool, b *Block, sub interval.Range) {
	c.traffic.ReadHitBytes += sub.Len()
	if p == c.nv {
		c.traffic.NVRAMReadBytes += sub.Len()
		c.traffic.NVRAMAccesses++
	}
	b.LastAccess = now
	p.Touch(b, now)
}

// fetch reads the bytes of block b's extent that it lacks from the
// server; b is resident in pool p.
func (c *core) fetch(now int64, p *Pool, b *Block, fileSize int64) {
	ext := blockExtent(b.ID.Index, c.cfg.BlockSize, fileSize)
	missing := ext.Len() - b.Valid.OverlapLen(ext)
	c.traffic.ServerReadBytes += missing
	c.traffic.BusReadBytes += missing
	c.cfg.Hooks.emitRead(now, b.ID.File, &b.Valid, ext)
	b.Valid.Add(ext)
	b.LastAccess = now
	if p == c.nv {
		c.traffic.NVRAMWriteBytes += missing
		c.traffic.NVRAMAccesses++
	}
	p.Touch(b, now)
}

// DeleteRange walks each pool's chain of the file rather than probing for
// every block index the range spans: whole-file deletes cover far more
// indexes than are ever cached. A block is in at most one pool, apart
// from a write-aside shadow, which interacts only with its own volatile
// copy, so walking the NVRAM first leaves the same state as any order.
func (c *core) DeleteRange(now int64, file uint64, r interval.Range) {
	for _, p := range [2]*Pool{c.nv, c.vol} {
		if p == nil {
			continue
		}
		p.ForEachFileBlock(file, func(b *Block) {
			sub := r.Intersect(blockRange(b.ID.Index, c.cfg.BlockSize))
			if sub.Empty() {
				return
			}
			c.traffic.AbsorbedDeleteBytes += segsLen(b.Dirty.Remove(sub))
			b.Valid.Remove(sub)
			switch {
			case b.Valid.Len() == 0 && !b.IsDirty():
				p.Remove(b.ID)
				c.cfg.Arena.Put(b)
			case !b.IsDirty():
				b.FirstDirty = -1
			}
		})
	}
}

// Fsync flushes the file's volatile-resident dirty bytes: data in the
// NVRAM is already permanent.
func (c *core) Fsync(now int64, file uint64) {
	if c.kind.StagesWritesInNVRAM() {
		return
	}
	c.vol.ForEachFileBlock(file, func(b *Block) {
		if b.IsDirty() {
			c.writeBack(now, b, CauseFsync, false)
		}
	})
}

func (c *core) FlushFile(now int64, file uint64, cause Cause) int64 {
	return c.flush(now, file, false, cause)
}

func (c *core) FlushAll(now int64, cause Cause) int64 {
	return c.flush(now, 0, true, cause)
}

// flush writes back the dirty bytes of one file's blocks, or of every
// block when all is set.
func (c *core) flush(now int64, file uint64, all bool, cause Cause) int64 {
	var n int64
	stages := c.kind.StagesWritesInNVRAM()
	for _, p := range c.dirtyPools() {
		if p == nil {
			continue
		}
		fn := func(b *Block) {
			switch {
			case !b.IsDirty():
			case p == c.vol:
				n += c.writeBack(now, b, cause, false)
			case stages:
				n += c.writeBackOut(now, b, cause)
			default:
				n += c.writeBack(now, b, cause, true)
			}
		}
		if all {
			p.ForEachBlock(fn)
		} else {
			p.ForEachFileBlock(file, fn)
		}
	}
	return n
}

// Invalidate writes back the file's dirty bytes (attributed to
// CauseCallback) and drops its blocks from both memories.
func (c *core) Invalidate(now int64, file uint64) {
	for _, p := range [2]*Pool{c.nv, c.vol} {
		if p == nil {
			continue
		}
		p.ForEachFileBlock(file, func(b *Block) {
			if b.IsDirty() {
				c.writeBack(now, b, CauseCallback, p == c.nv)
			}
			p.Remove(b.ID)
			c.cfg.Arena.Put(b)
		})
	}
}

// dirtyPools returns the pools that can hold dirty blocks, the NVRAM
// first; the others are nil.
func (c *core) dirtyPools() [2]*Pool {
	if c.kind.StagesWritesInNVRAM() {
		return [2]*Pool{c.nv, nil}
	}
	return [2]*Pool{c.nv, c.vol}
}

func (c *core) DirtyBytes() int64 {
	var n int64
	for _, p := range c.dirtyPools() {
		if p != nil {
			p.ForEachBlock(func(b *Block) { n += b.Dirty.Len() })
		}
	}
	return n
}

// ForEachDirty enumerates the dirty runs, NVRAM-resident runs (stable:
// they survive a crash) before volatile-resident ones (a crash destroys
// them).
func (c *core) ForEachDirty(fn func(file uint64, g interval.Seg, stable bool)) {
	for _, p := range c.dirtyPools() {
		if p == nil {
			continue
		}
		stable := p == c.nv
		p.ForEachBlock(func(b *Block) {
			b.Dirty.ForEach(func(g interval.Seg) { fn(b.ID.File, g, stable) })
		})
	}
}

func (c *core) CachedBlocks() int {
	if c.nv == nil {
		return c.vol.Len()
	}
	return c.vol.Len() + c.nv.Len()
}

// fork returns a deep copy of the core whose pools hold volBlocks and
// nvBlocks blocks (see Model.Fork).
func (c *core) fork(volBlocks, nvBlocks int) core {
	f := *c
	f.cfg.VolatileBlocks = volBlocks
	f.vol = c.vol.fork(volBlocks)
	if c.nv != nil {
		f.cfg.NVRAMBlocks = nvBlocks
		f.nv = c.nv.fork(nvBlocks)
	}
	f.cleaner = slices.Clone(c.cleaner)
	return f
}

func (c *core) Release() {
	c.vol.Drain(c.cfg.Arena)
	if c.nv != nil {
		c.nv.Drain(c.cfg.Arena)
	}
	c.cleaner = c.cleaner[:0]
}
