package cache

import (
	"slices"

	"nvramfs/internal/interval"
)

// hybridModel is the "even more closely integrated" organization the
// paper's Section 2.6 sketches but does not simulate: dirty blocks may be
// written to *either* memory, so the pool of blocks available to receive
// newly-written data is the entire cache, as in the volatile model.
// Dirty data in the NVRAM is permanent; dirty data in the volatile memory
// is vulnerable and therefore subject to the ordinary 30-second delayed
// write-back. The paper predicts this model would outperform both NVRAM
// models at small NVRAM sizes, at the price of exposing some dirty data
// for up to 30 seconds; Traffic.VulnerableWriteBytes quantifies that
// exposure.
//
// Placement: a block already resident is updated in place. A new block
// goes to whichever memory has a free slot (NVRAM first, so dirty data is
// protected when possible); when both are full, the globally
// least-recently-used block between the two replacement candidates is
// evicted and the new block takes its slot.
type hybridModel struct {
	cfg     Config
	vol     *Pool // LRU; may hold dirty blocks (exposed, cleaner-flushed)
	nv      *Pool // configured policy; dirty blocks here are permanent
	cleaner cleanerHeap
	traffic Traffic
}

func newHybrid(cfg Config, pol Policy) *hybridModel {
	return &hybridModel{
		cfg: cfg,
		vol: NewPool(cfg.VolatileBlocks, newLRUPolicy()),
		nv:  NewPool(cfg.NVRAMBlocks, pol),
	}
}

func (m *hybridModel) Kind() ModelKind   { return ModelHybrid }
func (m *hybridModel) Traffic() *Traffic { return &m.traffic }

// Advance runs the cleaner over volatile-resident dirty blocks only.
func (m *hybridModel) Advance(now int64) {
	for len(m.cleaner) > 0 && m.cleaner[0].at+m.cfg.WriteBackDelay <= now {
		e := m.cleaner.pop()
		b := m.vol.Get(e.id)
		if b == nil || !b.IsDirty() || b.FirstDirty != e.at {
			continue
		}
		segs := b.Dirty.RemoveAll()
		m.traffic.WriteBack[CauseCleaner] += segsLen(segs)
		m.cfg.Hooks.emitWrite(e.at+m.cfg.WriteBackDelay, b.ID.File, segs, CauseCleaner, false)
		b.markClean()
	}
}

// locate returns the resident block and which memory holds it.
func (m *hybridModel) locate(id BlockID) (b *Block, inNV bool) {
	if b := m.nv.Get(id); b != nil {
		return b, true
	}
	return m.vol.Get(id), false
}

// evictFrom removes the pool's victim, flushing dirty bytes.
func (m *hybridModel) evictFrom(now int64, p *Pool) {
	v := p.EvictVictim()
	if v == nil {
		return
	}
	if v.IsDirty() {
		segs := v.Dirty.RemoveAll()
		m.traffic.WriteBack[CauseReplacement] += segsLen(segs)
		m.cfg.Hooks.emitWrite(now, v.ID.File, segs, CauseReplacement, p == m.nv)
	}
	m.cfg.Arena.Put(v)
}

// place installs a new block, choosing the memory per the model's global
// replacement rule, and reports which memory received it.
func (m *hybridModel) place(now int64, id BlockID) (*Block, bool) {
	intoNV := false
	switch {
	case m.nv.Capacity() > 0 && !m.nv.Full():
		intoNV = true
	case m.vol.Capacity() > 0 && !m.vol.Full():
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
		if m.nv.Full() {
			m.evictFrom(now, m.nv)
		}
		m.nv.Put(b, now)
	} else {
		if m.vol.Full() {
			m.evictFrom(now, m.vol)
		}
		m.vol.Put(b, now)
	}
	return b, intoNV
}

func (m *hybridModel) Write(now int64, file uint64, r interval.Range) {
	m.traffic.AppWriteBytes += r.Len()
	m.traffic.BusWriteBytes += r.Len()
	blockSpan(r, m.cfg.BlockSize, func(idx int64, sub interval.Range) {
		id := BlockID{file, idx}
		b, inNV := m.locate(id)
		if b == nil {
			b, inNV = m.place(now, id)
		}
		m.traffic.AbsorbedOverwriteBytes += segsLen(b.Dirty.Insert(sub, now))
		b.Valid.Add(sub)
		b.LastAccess, b.LastModify = now, now
		if inNV {
			m.traffic.NVRAMWriteBytes += sub.Len()
			m.traffic.NVRAMAccesses++
			m.nv.Modify(b, now)
			return
		}
		// Dirty data in volatile memory: vulnerable until the cleaner
		// flushes it.
		m.traffic.VulnerableWriteBytes += sub.Len()
		if b.FirstDirty == -1 {
			b.FirstDirty = now
			m.cleaner.push(cleanerEntry{at: now, id: id})
		}
		m.vol.Modify(b, now)
	})
}

func (m *hybridModel) Read(now int64, file uint64, r interval.Range, fileSize int64) {
	m.traffic.AppReadBytes += r.Len()
	if fileSize < r.End {
		fileSize = r.End
	}
	blockSpan(r, m.cfg.BlockSize, func(idx int64, sub interval.Range) {
		id := BlockID{file, idx}
		b, inNV := m.locate(id)
		if b != nil && b.Valid.ContainsRange(sub) {
			m.traffic.ReadHitBytes += sub.Len()
			b.LastAccess = now
			if inNV {
				m.traffic.NVRAMReadBytes += sub.Len()
				m.traffic.NVRAMAccesses++
				m.nv.Touch(b, now)
			} else {
				m.vol.Touch(b, now)
			}
			return
		}
		if b == nil {
			b, inNV = m.place(now, id)
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

func (m *hybridModel) DeleteRange(now int64, file uint64, r interval.Range) {
	// Chain walk per pool; a block is resident in exactly one pool, so the
	// two walks cover disjoint blocks.
	for _, p := range [2]*Pool{m.nv, m.vol} {
		p.ForEachFileBlock(file, func(b *Block) {
			sub := r.Intersect(blockRange(b.ID.Index, m.cfg.BlockSize))
			if sub.Empty() {
				return
			}
			m.traffic.AbsorbedDeleteBytes += segsLen(b.Dirty.Remove(sub))
			b.Valid.Remove(sub)
			if b.Valid.Len() == 0 {
				p.Remove(b.ID)
				m.cfg.Arena.Put(b)
			} else if !b.IsDirty() {
				b.FirstDirty = -1
			}
		})
	}
}

// Fsync flushes only the volatile-resident dirty bytes: data already in
// NVRAM is permanent.
func (m *hybridModel) Fsync(now int64, file uint64) {
	var n int64
	m.vol.ForEachFileBlock(file, func(b *Block) {
		if b.IsDirty() {
			segs := b.Dirty.RemoveAll()
			n += segsLen(segs)
			m.cfg.Hooks.emitWrite(now, b.ID.File, segs, CauseFsync, false)
			b.markClean()
		}
	})
	m.traffic.WriteBack[CauseFsync] += n
}

func (m *hybridModel) flushPools(now int64, file uint64, all bool, cause Cause) int64 {
	var n int64
	for _, p := range [2]*Pool{m.nv, m.vol} {
		stable := p == m.nv
		flush := func(b *Block) {
			if b.IsDirty() {
				segs := b.Dirty.RemoveAll()
				n += segsLen(segs)
				m.cfg.Hooks.emitWrite(now, b.ID.File, segs, cause, stable)
				b.markClean()
			}
		}
		if all {
			p.ForEachBlock(flush)
		} else {
			p.ForEachFileBlock(file, flush)
		}
	}
	m.traffic.WriteBack[cause] += n
	return n
}

func (m *hybridModel) FlushFile(now int64, file uint64, cause Cause) int64 {
	return m.flushPools(now, file, false, cause)
}

func (m *hybridModel) FlushAll(now int64, cause Cause) int64 {
	return m.flushPools(now, 0, true, cause)
}

func (m *hybridModel) Invalidate(now int64, file uint64) {
	m.FlushFile(now, file, CauseCallback)
	for _, p := range [2]*Pool{m.nv, m.vol} {
		p.ForEachFileBlock(file, func(b *Block) {
			p.Remove(b.ID)
			m.cfg.Arena.Put(b)
		})
	}
}

func (m *hybridModel) NoteConcurrent(read bool, n int64) { noteConcurrent(&m.traffic, read, n) }

func (m *hybridModel) DirtyBytes() int64 {
	var n int64
	for _, p := range [2]*Pool{m.nv, m.vol} {
		p.ForEachBlock(func(b *Block) { n += b.Dirty.Len() })
	}
	return n
}

// ForEachDirty enumerates the dirty runs: NVRAM-resident runs first
// (stable — they survive a crash), then volatile-resident runs (protected
// only by the delayed write-back, so a crash destroys them).
func (m *hybridModel) ForEachDirty(fn func(file uint64, g interval.Seg, stable bool)) {
	m.nv.ForEachBlock(func(b *Block) {
		b.Dirty.ForEach(func(g interval.Seg) { fn(b.ID.File, g, true) })
	})
	m.vol.ForEachBlock(func(b *Block) {
		b.Dirty.ForEach(func(g interval.Seg) { fn(b.ID.File, g, false) })
	})
}

func (m *hybridModel) CachedBlocks() int { return m.vol.Len() + m.nv.Len() }

func (m *hybridModel) Pools() (vol, nv *Pool) { return m.vol, m.nv }

func (m *hybridModel) Fork(volBlocks, nvBlocks int) Model {
	c := *m
	c.cfg.VolatileBlocks, c.cfg.NVRAMBlocks = volBlocks, nvBlocks
	c.vol, c.nv = m.vol.fork(volBlocks), m.nv.fork(nvBlocks)
	c.cleaner = slices.Clone(m.cleaner)
	return &c
}

func (m *hybridModel) Release() {
	m.vol.Drain(m.cfg.Arena)
	m.nv.Drain(m.cfg.Arena)
	m.cleaner = m.cleaner[:0]
}
