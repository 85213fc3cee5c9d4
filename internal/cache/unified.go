package cache

import "nvramfs/internal/interval"

// unifiedModel implements the paper's unified NVRAM organization: the two
// memories form one cache. Blocks are never duplicated — dirty blocks
// reside only in the NVRAM, clean blocks in either memory. Application
// writes are directed only to the NVRAM (a clean volatile copy is first
// migrated there); reads are satisfied from either memory. Dirty blocks
// leave the NVRAM only via replacement or the consistency mechanism, and a
// block evicted or flushed from the NVRAM may be transferred to the
// volatile cache as a clean copy if it is younger than the volatile LRU
// block.
//
// One approximation: a block transferred from NVRAM into the volatile
// cache is inserted at the MRU end of the volatile LRU list although its
// recorded access time may be older than other residents'. The paper's
// placement *decision* (compare against the volatile LRU block's age) is
// implemented exactly.
type unifiedModel struct {
	cfg     Config
	vol     *Pool // clean blocks only, LRU
	nv      *Pool // dirty and clean blocks, configured policy
	traffic Traffic
}

func newUnified(cfg Config, pol Policy) *unifiedModel {
	return &unifiedModel{
		cfg: cfg,
		vol: NewPool(cfg.VolatileBlocks, newLRUPolicy()),
		nv:  NewPool(cfg.NVRAMBlocks, pol),
	}
}

func (m *unifiedModel) Kind() ModelKind   { return ModelUnified }
func (m *unifiedModel) Traffic() *Traffic { return &m.traffic }
func (m *unifiedModel) Advance(int64)     {}

// maybeToVolatile applies the paper's transfer rule to a block that has
// just left the NVRAM (clean by now): if the volatile cache has a free slot
// or its least-recently-used block is older than b, b moves into the
// volatile cache; otherwise b is dropped.
func (m *unifiedModel) maybeToVolatile(now int64, b *Block) {
	if m.vol.Capacity() == 0 || b.Valid.Len() == 0 {
		m.cfg.Arena.Put(b)
		return
	}
	if m.vol.Full() {
		lru := m.vol.Victim()
		if lru.LastAccess >= b.LastAccess {
			// The block is older than everything in the volatile cache.
			m.cfg.Arena.Put(b)
			return
		}
		m.vol.Remove(lru.ID) // clean by invariant; just dropped
		m.cfg.Arena.Put(lru)
	}
	n := b.Valid.Len()
	m.traffic.NVRAMReadBytes += n
	m.traffic.BusWriteBytes += n
	m.traffic.NVRAMAccesses++
	m.vol.Put(b, now)
}

// makeRoomNV evicts the NVRAM policy victim if the NVRAM is full. A dirty
// victim is written to the server (replacement traffic); either way the
// block may be transferred to the volatile cache.
func (m *unifiedModel) makeRoomNV(now int64) {
	if !m.nv.Full() {
		return
	}
	v := m.nv.EvictVictim()
	if v.IsDirty() {
		segs := v.Dirty.RemoveAll()
		n := segsLen(segs)
		m.traffic.WriteBack[CauseReplacement] += n
		m.traffic.NVRAMReadBytes += n
		m.traffic.NVRAMAccesses++
		m.cfg.Hooks.emitWrite(now, v.ID.File, segs, CauseReplacement, true)
		v.markClean()
	}
	m.maybeToVolatile(now, v)
}

func (m *unifiedModel) Write(now int64, file uint64, r interval.Range) {
	m.traffic.AppWriteBytes += r.Len()
	blockSpan(r, m.cfg.BlockSize, func(idx int64, sub interval.Range) {
		id := BlockID{file, idx}
		b := m.nv.Get(id)
		inserted := b == nil
		if inserted {
			if bv := m.vol.Get(id); bv != nil {
				// The block is clean in the volatile cache: transfer it to
				// the NVRAM and update it there (Section 2.6 notes this
				// cache-to-NVRAM traffic is rare and under 1% of writes).
				m.vol.Remove(id)
				moved := bv.Valid.Len()
				m.traffic.BusWriteBytes += moved
				m.traffic.NVRAMWriteBytes += moved
				m.traffic.NVRAMAccesses++
				m.makeRoomNV(now)
				m.nv.Put(bv, now)
				b = bv
			} else {
				m.makeRoomNV(now)
				b = m.cfg.Arena.Get(id, now)
				m.nv.Put(b, now)
			}
		}
		m.traffic.AbsorbedOverwriteBytes += segsLen(b.Dirty.Insert(sub, now))
		b.Valid.Add(sub)
		b.LastAccess, b.LastModify = now, now
		m.traffic.BusWriteBytes += sub.Len()
		m.traffic.NVRAMWriteBytes += sub.Len()
		m.traffic.NVRAMAccesses++
		if !inserted {
			// A freshly Put block is already policy-tracked at this
			// timestamp: Modify would recompute the same key and leave the
			// heap (or LRU order) untouched.
			m.nv.Modify(b, now)
		}
	})
}

// placeForRead chooses where a newly fetched block goes: the volatile
// cache if it has a free slot, else the NVRAM if it has one, else whichever
// memory holds the older replacement candidate (preserving global LRU
// semantics with respect to the volatile cache).
func (m *unifiedModel) placeForRead(now int64, id BlockID) (*Block, bool) {
	intoNV := false
	switch {
	case m.vol.Capacity() > 0 && !m.vol.Full():
	case m.nv.Capacity() > 0 && !m.nv.Full():
		intoNV = true
	case m.vol.Capacity() == 0:
		intoNV = true
	default:
		volV, nvV := m.vol.Victim(), m.nv.Victim()
		if nvV != nil && volV.LastAccess >= nvV.LastAccess {
			intoNV = true
		}
	}
	b := m.cfg.Arena.Get(id, now)
	if intoNV {
		m.makeRoomNV(now)
		m.nv.Put(b, now)
	} else {
		if m.vol.Full() {
			lru := m.vol.Victim() // clean; dropped
			m.vol.Remove(lru.ID)
			m.cfg.Arena.Put(lru)
		}
		m.vol.Put(b, now)
	}
	return b, intoNV
}

func (m *unifiedModel) Read(now int64, file uint64, r interval.Range, fileSize int64) {
	m.traffic.AppReadBytes += r.Len()
	if fileSize < r.End {
		fileSize = r.End
	}
	blockSpan(r, m.cfg.BlockSize, func(idx int64, sub interval.Range) {
		id := BlockID{file, idx}
		if b := m.vol.Get(id); b != nil && b.Valid.ContainsRange(sub) {
			m.traffic.ReadHitBytes += sub.Len()
			b.LastAccess = now
			m.vol.Touch(b, now)
			return
		}
		if b := m.nv.Get(id); b != nil && b.Valid.ContainsRange(sub) {
			m.traffic.ReadHitBytes += sub.Len()
			m.traffic.NVRAMReadBytes += sub.Len()
			m.traffic.NVRAMAccesses++
			b.LastAccess = now
			m.nv.Touch(b, now)
			return
		}
		// Miss (or partial miss): fetch the block's missing bytes into the
		// resident copy, or place a new block.
		b, inNV := m.nv.Get(id), true
		if b == nil {
			b, inNV = m.vol.Get(id), false
		}
		if b == nil {
			b, inNV = m.placeForRead(now, id)
		}
		ext := blockExtent(idx, m.cfg.BlockSize, fileSize)
		missing := ext.Len() - b.Valid.OverlapLen(ext)
		m.traffic.ServerReadBytes += missing
		m.traffic.BusReadBytes += missing
		m.cfg.Hooks.emitRead(now, id.File, &b.Valid, ext)
		b.Valid.Add(ext)
		b.LastAccess = now
		if inNV {
			m.traffic.NVRAMWriteBytes += missing
			m.traffic.NVRAMAccesses++
			m.nv.Touch(b, now)
		} else {
			m.vol.Touch(b, now)
		}
	})
}

func (m *unifiedModel) DeleteRange(now int64, file uint64, r interval.Range) {
	// Walk each pool's per-file chain rather than probing both pools for
	// every block index in the range (blocks are in at most one pool, so
	// the two walks touch disjoint blocks).
	m.nv.ForEachFileBlock(file, func(b *Block) {
		sub := r.Intersect(blockRange(b.ID.Index, m.cfg.BlockSize))
		if sub.Empty() {
			return
		}
		m.traffic.AbsorbedDeleteBytes += segsLen(b.Dirty.Remove(sub))
		b.Valid.Remove(sub)
		if b.Valid.Len() == 0 {
			m.nv.Remove(b.ID)
			m.cfg.Arena.Put(b)
		}
	})
	m.vol.ForEachFileBlock(file, func(b *Block) {
		sub := r.Intersect(blockRange(b.ID.Index, m.cfg.BlockSize))
		if sub.Empty() {
			return
		}
		b.Valid.Remove(sub)
		if b.Valid.Len() == 0 {
			m.vol.Remove(b.ID)
			m.cfg.Arena.Put(b)
		}
	})
}

// Fsync is a no-op: NVRAM is stable storage.
func (m *unifiedModel) Fsync(int64, uint64) {}

// flushBlock writes a dirty NVRAM block's bytes to the server, removes it
// from the NVRAM (consistency flushes push blocks out), and maybe transfers
// it to the volatile cache.
func (m *unifiedModel) flushBlock(now int64, b *Block, cause Cause) int64 {
	segs := b.Dirty.RemoveAll()
	n := segsLen(segs)
	m.traffic.WriteBack[cause] += n
	m.traffic.NVRAMReadBytes += n
	m.traffic.NVRAMAccesses++
	m.cfg.Hooks.emitWrite(now, b.ID.File, segs, cause, true)
	b.markClean()
	m.nv.Remove(b.ID)
	m.maybeToVolatile(now, b)
	return n
}

func (m *unifiedModel) FlushFile(now int64, file uint64, cause Cause) int64 {
	var n int64
	m.nv.ForEachFileBlock(file, func(b *Block) {
		if b.IsDirty() {
			n += m.flushBlock(now, b, cause)
		}
	})
	return n
}

func (m *unifiedModel) FlushAll(now int64, cause Cause) int64 {
	var n int64
	m.nv.ForEachBlock(func(b *Block) {
		if b.IsDirty() {
			n += m.flushBlock(now, b, cause)
		}
	})
	return n
}

func (m *unifiedModel) Invalidate(now int64, file uint64) {
	m.nv.ForEachFileBlock(file, func(b *Block) {
		if b.IsDirty() {
			segs := b.Dirty.RemoveAll()
			n := segsLen(segs)
			m.traffic.WriteBack[CauseCallback] += n
			m.traffic.NVRAMReadBytes += n
			m.traffic.NVRAMAccesses++
			m.cfg.Hooks.emitWrite(now, b.ID.File, segs, CauseCallback, true)
		}
		m.nv.Remove(b.ID)
		m.cfg.Arena.Put(b)
	})
	m.vol.ForEachFileBlock(file, func(b *Block) {
		m.vol.Remove(b.ID)
		m.cfg.Arena.Put(b)
	})
}

func (m *unifiedModel) NoteConcurrent(read bool, n int64) { noteConcurrent(&m.traffic, read, n) }

func (m *unifiedModel) DirtyBytes() int64 {
	var n int64
	m.nv.ForEachBlock(func(b *Block) { n += b.Dirty.Len() })
	return n
}

// ForEachDirty enumerates the dirty runs. The unified cache keeps dirty
// blocks only in the NVRAM, so every run is stable.
func (m *unifiedModel) ForEachDirty(fn func(file uint64, g interval.Seg, stable bool)) {
	m.nv.ForEachBlock(func(b *Block) {
		b.Dirty.ForEach(func(g interval.Seg) { fn(b.ID.File, g, true) })
	})
}

func (m *unifiedModel) CachedBlocks() int { return m.vol.Len() + m.nv.Len() }

func (m *unifiedModel) Pools() (vol, nv *Pool) { return m.vol, m.nv }

func (m *unifiedModel) Fork(volBlocks, nvBlocks int) Model {
	c := *m
	c.cfg.VolatileBlocks, c.cfg.NVRAMBlocks = volBlocks, nvBlocks
	c.vol, c.nv = m.vol.fork(volBlocks), m.nv.fork(nvBlocks)
	return &c
}

func (m *unifiedModel) Release() {
	m.vol.Drain(m.cfg.Arena)
	m.nv.Drain(m.cfg.Arena)
}
