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
// whose Dirty map is authoritative for the block's dirty bytes and whose
// Valid set is empty. A dirty block always has its shadow present, and a
// shadow's dirty bytes are valid in its volatile copy; replacing the
// volatile copy of a dirty block writes it to the server and invalidates
// both copies, exactly as Section 2.1 specifies.
type writeAsideModel struct{ core }

func newWriteAside(cfg Config, pol Policy) *writeAsideModel {
	return &writeAsideModel{newCore(ModelWriteAside, cfg, pol)}
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
			m.writeBackOut(now, shadow, CauseReplacement)
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
				m.writeBackOut(now, m.nv.Victim(), CauseReplacement)
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

// Read serves reads from the volatile cache only; the NVRAM is not read
// during normal operation.
func (m *writeAsideModel) Read(now int64, file uint64, r interval.Range, fileSize int64) {
	m.traffic.AppReadBytes += r.Len()
	fileSize = max(fileSize, r.End)
	blockSpan(r, m.cfg.BlockSize, func(idx int64, sub interval.Range) {
		id := BlockID{file, idx}
		if b := m.vol.Get(id); b != nil && b.Valid.ContainsRange(sub) {
			m.readHit(now, m.vol, b, sub)
			return
		}
		m.fetch(now, m.vol, m.ensureVol(now, id), fileSize)
	})
}

func (m *writeAsideModel) Fork(volBlocks, nvBlocks int) Model {
	return &writeAsideModel{m.fork(volBlocks, nvBlocks)}
}
