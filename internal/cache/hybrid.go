package cache

import "nvramfs/internal/interval"

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
type hybridModel struct{ core }

func newHybrid(cfg Config, pol Policy) *hybridModel {
	return &hybridModel{newCore(ModelHybrid, cfg, pol)}
}

// locate returns the resident block (nil if absent) and the memory that
// holds it; a block is in at most one.
func (m *hybridModel) locate(id BlockID) (*Block, *Pool) {
	if b := m.nv.Get(id); b != nil {
		return b, m.nv
	}
	return m.vol.Get(id), m.vol
}

// evictFrom removes the pool's victim, flushing dirty bytes.
func (m *hybridModel) evictFrom(now int64, p *Pool) {
	v := p.EvictVictim()
	if v == nil {
		return
	}
	if v.IsDirty() {
		m.writeBack(now, v, CauseReplacement, p == m.nv)
	}
	m.cfg.Arena.Put(v)
}

// place installs a new block, choosing the memory per the model's global
// replacement rule, and returns the memory that received it.
func (m *hybridModel) place(now int64, id BlockID) (*Block, *Pool) {
	p := m.vol
	switch {
	case m.nv.Capacity() > 0 && !m.nv.Full():
		p = m.nv
	case m.vol.Capacity() > 0 && !m.vol.Full():
	case m.vol.Capacity() == 0:
		p = m.nv
	default:
		volV, nvV := m.vol.Victim(), m.nv.Victim()
		if nvV != nil && volV.LastAccess >= nvV.LastAccess {
			p = m.nv
		}
	}
	b := m.cfg.Arena.Get(id, now)
	if p.Full() {
		m.evictFrom(now, p)
	}
	p.Put(b, now)
	return b, p
}

func (m *hybridModel) Write(now int64, file uint64, r interval.Range) {
	m.traffic.AppWriteBytes += r.Len()
	m.traffic.BusWriteBytes += r.Len()
	blockSpan(r, m.cfg.BlockSize, func(idx int64, sub interval.Range) {
		id := BlockID{file, idx}
		b, p := m.locate(id)
		if b == nil {
			b, p = m.place(now, id)
		}
		m.traffic.AbsorbedOverwriteBytes += segsLen(b.Dirty.Insert(sub, now))
		b.Valid.Add(sub)
		b.LastAccess, b.LastModify = now, now
		if p == m.nv {
			m.traffic.NVRAMWriteBytes += sub.Len()
			m.traffic.NVRAMAccesses++
		} else {
			// Dirty data in volatile memory: vulnerable until the cleaner
			// flushes it.
			m.traffic.VulnerableWriteBytes += sub.Len()
			m.dirtyVolatile(now, b)
		}
		p.Modify(b, now)
	})
}

func (m *hybridModel) Read(now int64, file uint64, r interval.Range, fileSize int64) {
	m.traffic.AppReadBytes += r.Len()
	fileSize = max(fileSize, r.End)
	blockSpan(r, m.cfg.BlockSize, func(idx int64, sub interval.Range) {
		id := BlockID{file, idx}
		b, p := m.locate(id)
		if b == nil {
			b, p = m.place(now, id)
		} else if b.Valid.ContainsRange(sub) {
			m.readHit(now, p, b, sub)
			return
		}
		m.fetch(now, p, b, fileSize)
	})
}

func (m *hybridModel) Fork(volBlocks, nvBlocks int) Model {
	return &hybridModel{m.fork(volBlocks, nvBlocks)}
}
