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
// block (core.leaveNV).
type unifiedModel struct{ core }

func newUnified(cfg Config, pol Policy) *unifiedModel {
	return &unifiedModel{newCore(ModelUnified, cfg, pol)}
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
		m.writeBack(now, v, CauseReplacement, true)
	}
	m.leaveNV(now, v)
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
				b = bv
			}
			m.makeRoomNV(now)
			if b == nil {
				b = m.cfg.Arena.Get(id, now)
			}
			m.nv.Put(b, now)
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
func (m *unifiedModel) placeForRead(now int64, id BlockID) (*Block, *Pool) {
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
		return b, m.nv
	}
	if m.vol.Full() {
		m.cfg.Arena.Put(m.vol.EvictVictim()) // clean; dropped
	}
	m.vol.Put(b, now)
	return b, m.vol
}

func (m *unifiedModel) Read(now int64, file uint64, r interval.Range, fileSize int64) {
	m.traffic.AppReadBytes += r.Len()
	fileSize = max(fileSize, r.End)
	blockSpan(r, m.cfg.BlockSize, func(idx int64, sub interval.Range) {
		// A block is in at most one memory.
		id := BlockID{file, idx}
		b, p := m.vol.Get(id), m.vol
		if b == nil {
			b, p = m.nv.Get(id), m.nv
		}
		if b == nil {
			b, p = m.placeForRead(now, id)
		} else if b.Valid.ContainsRange(sub) {
			m.readHit(now, p, b, sub)
			return
		}
		m.fetch(now, p, b, fileSize)
	})
}

func (m *unifiedModel) Fork(volBlocks, nvBlocks int) Model {
	return &unifiedModel{m.fork(volBlocks, nvBlocks)}
}
