package cache

import "nvramfs/internal/interval"

// writeAsideModel implements the paper's write-aside NVRAM organization:
// the NVRAM only protects the permanence of dirty data held in the volatile
// cache. Every write is stored into both memories; the NVRAM is never read
// except after a crash; there is no delayed write-back, and fsync'd data
// remains in the NVRAM (it is already permanent). Dirty data leaves the
// NVRAM only when replaced there or when flushed by the consistency
// mechanism.
//
// Representation: the volatile pool holds full blocks (Valid ranges only —
// dirty state is not tracked there); the NVRAM pool holds shadow blocks
// whose Dirty map is authoritative for the block's dirty bytes. A dirty
// block always has its shadow present; replacing the volatile copy of a
// dirty block writes it to the server and invalidates both copies, exactly
// as Section 2.1 specifies.
type writeAsideModel struct {
	cfg     Config
	vol     *Pool // all blocks, LRU
	nv      *Pool // shadows of dirty blocks, configured policy
	traffic Traffic
}

func newWriteAside(cfg Config, pol Policy) *writeAsideModel {
	return &writeAsideModel{
		cfg: cfg,
		vol: NewPool(cfg.VolatileBlocks, newLRUPolicy()),
		nv:  NewPool(cfg.NVRAMBlocks, pol),
	}
}

func (m *writeAsideModel) Kind() ModelKind   { return ModelWriteAside }
func (m *writeAsideModel) Traffic() *Traffic { return &m.traffic }
func (m *writeAsideModel) Advance(int64)     {}

// flushShadow writes the shadow's dirty bytes to the server and removes it
// from the NVRAM. The volatile copy (if any) is left cached and clean.
func (m *writeAsideModel) flushShadow(now int64, bn *Block, cause Cause) int64 {
	segs := bn.Dirty.RemoveAll()
	n := segsLen(segs)
	m.traffic.WriteBack[cause] += n
	m.traffic.NVRAMReadBytes += n
	m.traffic.NVRAMAccesses++
	m.cfg.Hooks.emitWrite(now, bn.ID.File, segs, cause, true)
	m.nv.Remove(bn.ID)
	m.cfg.Arena.Put(bn)
	return n
}

// ensureVol returns the volatile block, evicting the LRU victim if needed.
// Evicting a dirty block (one with a shadow) writes it to the server and
// invalidates it in both memories.
func (m *writeAsideModel) ensureVol(now int64, id BlockID) *Block {
	if b := m.vol.Get(id); b != nil {
		return b
	}
	if m.vol.Full() {
		v := m.vol.EvictVictim()
		if shadow := m.nv.Get(v.ID); shadow != nil {
			m.flushShadow(now, shadow, CauseReplacement)
		}
		m.cfg.Arena.Put(v)
	}
	b := m.cfg.Arena.Get(id, now)
	m.vol.Put(b, now)
	return b
}

func (m *writeAsideModel) Write(now int64, file uint64, r interval.Range) {
	m.traffic.AppWriteBytes += r.Len()
	// The data is stored into both memories.
	m.traffic.BusWriteBytes += 2 * r.Len()
	m.traffic.NVRAMWriteBytes += r.Len()
	blockSpan(r, m.cfg.BlockSize, func(idx int64, sub interval.Range) {
		id := BlockID{file, idx}
		bv := m.ensureVol(now, id)
		bv.Valid.Add(sub)
		bv.LastAccess, bv.LastModify = now, now
		m.vol.Modify(bv, now)

		bn := m.nv.Get(id)
		if bn == nil {
			if m.nv.Full() {
				// NVRAM replacement: the victim shadow (necessarily dirty)
				// goes to the server; its volatile copy stays, now clean.
				m.flushShadow(now, m.nv.Victim(), CauseReplacement)
			}
			bn = m.cfg.Arena.Get(id, now)
			m.nv.Put(bn, now)
		}
		m.traffic.AbsorbedOverwriteBytes += segsLen(bn.Dirty.Insert(sub, now))
		bn.LastAccess, bn.LastModify = now, now
		m.nv.Modify(bn, now)
		m.traffic.NVRAMAccesses++
	})
}

func (m *writeAsideModel) Read(now int64, file uint64, r interval.Range, fileSize int64) {
	// Reads are served from the volatile cache only; the NVRAM is not
	// read during normal operation.
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
		b := m.ensureVol(now, id)
		ext := blockExtent(idx, m.cfg.BlockSize, fileSize)
		missing := ext.Len() - b.Valid.OverlapLen(ext)
		m.traffic.ServerReadBytes += missing
		m.traffic.BusReadBytes += missing
		m.cfg.Hooks.emitRead(now, id.File, &b.Valid, ext)
		b.Valid.Add(ext)
		b.LastAccess = now
		m.vol.Touch(b, now)
	})
}

func (m *writeAsideModel) DeleteRange(now int64, file uint64, r interval.Range) {
	// Walk the per-file chains instead of probing both pools per block
	// index. Each block id interacts only with its own shadow, so handling
	// all shadows before all volatile copies leaves the same final state as
	// the old per-index interleaving.
	m.nv.ForEachFileBlock(file, func(bn *Block) {
		sub := r.Intersect(blockRange(bn.ID.Index, m.cfg.BlockSize))
		if sub.Empty() {
			return
		}
		m.traffic.AbsorbedDeleteBytes += segsLen(bn.Dirty.Remove(sub))
		if !bn.IsDirty() {
			m.nv.Remove(bn.ID)
			m.cfg.Arena.Put(bn)
		}
	})
	m.vol.ForEachFileBlock(file, func(bv *Block) {
		sub := r.Intersect(blockRange(bv.ID.Index, m.cfg.BlockSize))
		if sub.Empty() {
			return
		}
		bv.Valid.Remove(sub)
		if bv.Valid.Len() == 0 {
			m.vol.Remove(bv.ID)
			m.cfg.Arena.Put(bv)
			if bn := m.nv.Get(bv.ID); bn != nil {
				// Shadow of a fully-deleted block: its remaining dirty
				// bytes (outside r) can only exist if the volatile copy
				// had them valid, so by construction there are none.
				m.nv.Remove(bn.ID)
				m.cfg.Arena.Put(bn)
			}
		}
	})
}

// Fsync is a no-op: the data is already permanent in NVRAM. (Section 2.1:
// "dirty blocks, even those from files explicitly fsync'd by the user,
// remain in the NVRAM until replaced ... or flushed back ... by Sprite's
// consistency mechanism".)
func (m *writeAsideModel) Fsync(int64, uint64) {}

func (m *writeAsideModel) FlushFile(now int64, file uint64, cause Cause) int64 {
	var n int64
	m.nv.ForEachFileBlock(file, func(bn *Block) {
		n += m.flushShadow(now, bn, cause)
	})
	return n
}

func (m *writeAsideModel) FlushAll(now int64, cause Cause) int64 {
	var n int64
	m.nv.ForEachBlock(func(bn *Block) {
		n += m.flushShadow(now, bn, cause)
	})
	return n
}

func (m *writeAsideModel) Invalidate(now int64, file uint64) {
	m.FlushFile(now, file, CauseCallback)
	m.vol.ForEachFileBlock(file, func(b *Block) {
		m.vol.Remove(b.ID)
		m.cfg.Arena.Put(b)
	})
}

func (m *writeAsideModel) NoteConcurrent(read bool, n int64) { noteConcurrent(&m.traffic, read, n) }

func (m *writeAsideModel) DirtyBytes() int64 {
	var n int64
	m.nv.ForEachBlock(func(b *Block) { n += b.Dirty.Len() })
	return n
}

// ForEachDirty enumerates the dirty runs. Dirty data lives (only) in the
// NVRAM shadow pool, so every run is stable: a crash loses nothing that
// was written.
func (m *writeAsideModel) ForEachDirty(fn func(file uint64, g interval.Seg, stable bool)) {
	m.nv.ForEachBlock(func(b *Block) {
		b.Dirty.ForEach(func(g interval.Seg) { fn(b.ID.File, g, true) })
	})
}

func (m *writeAsideModel) CachedBlocks() int { return m.vol.Len() + m.nv.Len() }

func (m *writeAsideModel) Pools() (vol, nv *Pool) { return m.vol, m.nv }

func (m *writeAsideModel) Fork(volBlocks, nvBlocks int) Model {
	c := *m
	c.cfg.VolatileBlocks, c.cfg.NVRAMBlocks = volBlocks, nvBlocks
	c.vol, c.nv = m.vol.fork(volBlocks), m.nv.fork(nvBlocks)
	return &c
}

func (m *writeAsideModel) Release() {
	m.vol.Drain(m.cfg.Arena)
	m.nv.Drain(m.cfg.Arena)
}
