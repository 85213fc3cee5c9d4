package cache

import "nvramfs/internal/interval"

// volatileModel is the baseline client cache: a single volatile memory with
// strict LRU replacement and Sprite's delayed write-back. Unlike real
// Sprite it gives dirty blocks no preference over clean ones, matching the
// paper's simplified volatile model (Section 2.1).
type volatileModel struct{ core }

func newVolatile(cfg Config) *volatileModel {
	return &volatileModel{newCore(ModelVolatile, cfg, nil)}
}

// ensure returns the cached block, allocating (and evicting the LRU victim
// if necessary) when absent.
func (m *volatileModel) ensure(now int64, id BlockID) *Block {
	if b := m.vol.Get(id); b != nil {
		return b
	}
	if m.vol.Full() {
		var v *Block
		if m.cfg.DirtyPreference {
			// Sprite replaces the first clean block on the LRU list; a
			// dirty block goes only when every block is dirty.
			v = m.vol.VictimPreferring(func(b *Block) bool { return !b.IsDirty() })
			m.vol.Remove(v.ID)
		} else {
			v = m.vol.EvictVictim()
		}
		if v.IsDirty() {
			// LRU replacement of a dirty block writes it to the server.
			m.writeBack(now, v, CauseReplacement, false)
		}
		m.cfg.Arena.Put(v)
	}
	b := m.cfg.Arena.Get(id, now)
	m.vol.Put(b, now)
	return b
}

func (m *volatileModel) Write(now int64, file uint64, r interval.Range) {
	m.traffic.AppWriteBytes += r.Len()
	m.traffic.BusWriteBytes += r.Len()
	blockSpan(r, m.cfg.BlockSize, func(idx int64, sub interval.Range) {
		b := m.ensure(now, BlockID{file, idx})
		m.traffic.AbsorbedOverwriteBytes += segsLen(b.Dirty.Insert(sub, now))
		b.Valid.Add(sub)
		b.LastAccess, b.LastModify = now, now
		m.dirtyVolatile(now, b)
		m.vol.Modify(b, now)
	})
}

func (m *volatileModel) Read(now int64, file uint64, r interval.Range, fileSize int64) {
	m.traffic.AppReadBytes += r.Len()
	fileSize = max(fileSize, r.End)
	blockSpan(r, m.cfg.BlockSize, func(idx int64, sub interval.Range) {
		id := BlockID{file, idx}
		if b := m.vol.Get(id); b != nil && b.Valid.ContainsRange(sub) {
			m.readHit(now, m.vol, b, sub)
			return
		}
		m.fetch(now, m.vol, m.ensure(now, id), fileSize)
	})
}

func (m *volatileModel) Fork(volBlocks, _ int) Model { return &volatileModel{m.fork(volBlocks, 0)} }
