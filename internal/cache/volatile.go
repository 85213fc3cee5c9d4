package cache

import (
	"slices"

	"nvramfs/internal/interval"
)

// volatileModel is the baseline client cache: a single volatile memory with
// strict LRU replacement and Sprite's delayed write-back. Unlike real
// Sprite it gives dirty blocks no preference over clean ones, matching the
// paper's simplified volatile model (Section 2.1).
type volatileModel struct {
	cfg     Config
	pool    *Pool
	cleaner cleanerHeap
	traffic Traffic
}

func newVolatile(cfg Config) *volatileModel {
	return &volatileModel{cfg: cfg, pool: NewPool(cfg.VolatileBlocks, newLRUPolicy())}
}

func (m *volatileModel) Kind() ModelKind   { return ModelVolatile }
func (m *volatileModel) Traffic() *Traffic { return &m.traffic }

// cleanerHeap schedules blocks for the delayed write-back, ordered by the
// time their dirty data first appeared. Entries are lazily invalidated: a
// popped entry is ignored unless the block is still dirty with the same
// first-dirty time.
//
// The heap is hand-rolled (mirroring container/heap's sift order exactly,
// so equal-time entries pop in the same order as before) because
// heap.Push/Pop box every entry through interface{}, which was a per-write
// allocation on the hot path.
type cleanerEntry struct {
	at int64
	id BlockID
}

type cleanerHeap []cleanerEntry

func (h cleanerHeap) less(i, j int) bool { return h[i].at < h[j].at }

func (h cleanerHeap) up(j int) {
	for {
		i := (j - 1) / 2 // parent
		if i == j || !h.less(j, i) {
			break
		}
		h[i], h[j] = h[j], h[i]
		j = i
	}
}

func (h cleanerHeap) down(i0, n int) {
	i := i0
	for {
		j1 := 2*i + 1
		if j1 >= n || j1 < 0 {
			break
		}
		j := j1
		if j2 := j1 + 1; j2 < n && h.less(j2, j1) {
			j = j2
		}
		if !h.less(j, i) {
			break
		}
		h[i], h[j] = h[j], h[i]
		i = j
	}
}

func (h *cleanerHeap) push(e cleanerEntry) {
	*h = append(*h, e)
	h.up(len(*h) - 1)
}

func (h *cleanerHeap) pop() cleanerEntry {
	s := *h
	n := len(s) - 1
	s[0], s[n] = s[n], s[0]
	s.down(0, n)
	*h = s[:n]
	return s[n]
}

// Advance runs the block cleaner: blocks whose dirty data is older than the
// write-back delay are flushed to the server. (Sprite's cleaner runs every
// five seconds; we flush event-driven at exactly firstDirty+delay, an
// equivalent idealization.)
func (m *volatileModel) Advance(now int64) {
	for len(m.cleaner) > 0 && m.cleaner[0].at+m.cfg.WriteBackDelay <= now {
		e := m.cleaner.pop()
		b := m.pool.Get(e.id)
		if b == nil || !b.IsDirty() || b.FirstDirty != e.at {
			continue // stale entry
		}
		segs := b.Dirty.RemoveAll()
		m.traffic.WriteBack[CauseCleaner] += segsLen(segs)
		m.cfg.Hooks.emitWrite(e.at+m.cfg.WriteBackDelay, b.ID.File, segs, CauseCleaner, false)
		b.markClean()
	}
}

// ensure returns the cached block, allocating (and evicting the LRU victim
// if necessary) when absent.
func (m *volatileModel) ensure(now int64, id BlockID) *Block {
	if b := m.pool.Get(id); b != nil {
		return b
	}
	if m.pool.Full() {
		var v *Block
		if m.cfg.DirtyPreference {
			// Sprite replaces the first clean block on the LRU list; a
			// dirty block goes only when every block is dirty.
			v = m.pool.VictimPreferring(func(b *Block) bool { return !b.IsDirty() })
			m.pool.Remove(v.ID)
		} else {
			v = m.pool.EvictVictim()
		}
		if v.IsDirty() {
			// LRU replacement of a dirty block writes it to the server.
			segs := v.Dirty.RemoveAll()
			m.traffic.WriteBack[CauseReplacement] += segsLen(segs)
			m.cfg.Hooks.emitWrite(now, v.ID.File, segs, CauseReplacement, false)
		}
		m.cfg.Arena.Put(v)
	}
	b := m.cfg.Arena.Get(id, now)
	m.pool.Put(b, now)
	return b
}

func (m *volatileModel) Write(now int64, file uint64, r interval.Range) {
	m.traffic.AppWriteBytes += r.Len()
	m.traffic.BusWriteBytes += r.Len()
	blockSpan(r, m.cfg.BlockSize, func(idx int64, sub interval.Range) {
		b := m.ensure(now, BlockID{file, idx})
		m.traffic.AbsorbedOverwriteBytes += segsLen(b.Dirty.Insert(sub, now))
		b.Valid.Add(sub)
		if b.FirstDirty == -1 {
			b.FirstDirty = now
			m.cleaner.push(cleanerEntry{at: now, id: b.ID})
		}
		b.LastAccess, b.LastModify = now, now
		m.pool.Modify(b, now)
	})
}

func (m *volatileModel) Read(now int64, file uint64, r interval.Range, fileSize int64) {
	m.traffic.AppReadBytes += r.Len()
	if fileSize < r.End {
		fileSize = r.End
	}
	blockSpan(r, m.cfg.BlockSize, func(idx int64, sub interval.Range) {
		id := BlockID{file, idx}
		if b := m.pool.Get(id); b != nil && b.Valid.ContainsRange(sub) {
			m.traffic.ReadHitBytes += sub.Len()
			b.LastAccess = now
			m.pool.Touch(b, now)
			return
		}
		b := m.ensure(now, id)
		ext := blockExtent(idx, m.cfg.BlockSize, fileSize)
		missing := ext.Len() - b.Valid.OverlapLen(ext)
		m.traffic.ServerReadBytes += missing
		m.traffic.BusReadBytes += missing
		m.cfg.Hooks.emitRead(now, id.File, &b.Valid, ext)
		b.Valid.Add(ext)
		b.LastAccess = now
		m.pool.Touch(b, now)
	})
}

func (m *volatileModel) DeleteRange(now int64, file uint64, r interval.Range) {
	// Walk the file's resident blocks (index order via the chain) instead
	// of probing the pool for every block index the range spans: whole-file
	// deletes cover far more indexes than are ever cached.
	m.pool.ForEachFileBlock(file, func(b *Block) {
		sub := r.Intersect(blockRange(b.ID.Index, m.cfg.BlockSize))
		if sub.Empty() {
			return
		}
		m.traffic.AbsorbedDeleteBytes += segsLen(b.Dirty.Remove(sub))
		b.Valid.Remove(sub)
		if b.Valid.Len() == 0 {
			m.pool.Remove(b.ID)
			m.cfg.Arena.Put(b)
		} else if !b.IsDirty() {
			// A block that stays dirty keeps its FirstDirty, and with it
			// its cleaner entry: the write-back falls due WriteBackDelay
			// after the block was first dirtied, as in the hybrid model.
			b.FirstDirty = -1
		}
	})
}

func (m *volatileModel) Fsync(now int64, file uint64) {
	m.FlushFile(now, file, CauseFsync)
}

func (m *volatileModel) FlushFile(now int64, file uint64, cause Cause) int64 {
	var n int64
	m.pool.ForEachFileBlock(file, func(b *Block) {
		if b.IsDirty() {
			segs := b.Dirty.RemoveAll()
			n += segsLen(segs)
			m.cfg.Hooks.emitWrite(now, b.ID.File, segs, cause, false)
			b.markClean()
		}
	})
	m.traffic.WriteBack[cause] += n
	return n
}

func (m *volatileModel) FlushAll(now int64, cause Cause) int64 {
	var n int64
	m.pool.ForEachBlock(func(b *Block) {
		if b.IsDirty() {
			segs := b.Dirty.RemoveAll()
			n += segsLen(segs)
			m.cfg.Hooks.emitWrite(now, b.ID.File, segs, cause, false)
			b.markClean()
		}
	})
	m.traffic.WriteBack[cause] += n
	return n
}

func (m *volatileModel) Invalidate(now int64, file uint64) {
	m.FlushFile(now, file, CauseCallback)
	m.pool.ForEachFileBlock(file, func(b *Block) {
		m.pool.Remove(b.ID)
		m.cfg.Arena.Put(b)
	})
}

func (m *volatileModel) NoteConcurrent(read bool, n int64) { noteConcurrent(&m.traffic, read, n) }

func (m *volatileModel) DirtyBytes() int64 {
	var n int64
	m.pool.ForEachBlock(func(b *Block) { n += b.Dirty.Len() })
	return n
}

// ForEachDirty enumerates the dirty runs; everything here is volatile, so
// every run is reported stable=false (a crash destroys it all).
func (m *volatileModel) ForEachDirty(fn func(file uint64, g interval.Seg, stable bool)) {
	m.pool.ForEachBlock(func(b *Block) {
		b.Dirty.ForEach(func(g interval.Seg) { fn(b.ID.File, g, false) })
	})
}

func (m *volatileModel) CachedBlocks() int { return m.pool.Len() }

func (m *volatileModel) Pools() (vol, nv *Pool) { return m.pool, nil }

func (m *volatileModel) Fork(volBlocks, _ int) Model {
	c := *m
	c.cfg.VolatileBlocks = volBlocks
	c.pool = m.pool.fork(volBlocks)
	c.cleaner = slices.Clone(m.cleaner)
	return &c
}

func (m *volatileModel) Release() {
	m.pool.Drain(m.cfg.Arena)
	m.cleaner = m.cleaner[:0]
}
