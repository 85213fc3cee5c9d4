package cache

import (
	"math/rand"
	"testing"

	"nvramfs/internal/interval"
)

// checkUnifiedInvariants verifies the unified model's structural
// invariants from the paper's Section 2.1: blocks are never duplicated
// between the memories, dirty blocks reside only in the NVRAM, and
// neither pool exceeds its capacity.
func checkUnifiedInvariants(t *testing.T, m *unifiedModel) {
	t.Helper()
	if m.vol.Len() > m.vol.Capacity() || m.nv.Len() > m.nv.Capacity() {
		t.Fatalf("pool over capacity: vol %d/%d nv %d/%d",
			m.vol.Len(), m.vol.Capacity(), m.nv.Len(), m.nv.Capacity())
	}
	for _, b := range m.vol.Blocks() {
		if m.nv.Get(b.ID) != nil {
			t.Fatalf("block %v duplicated in both memories", b.ID)
		}
		if b.IsDirty() {
			t.Fatalf("dirty block %v in the volatile cache", b.ID)
		}
		if b.Dirty.Len() > 0 {
			t.Fatalf("block %v has dirty bytes outside NVRAM", b.ID)
		}
	}
	for _, b := range m.nv.Blocks() {
		for _, g := range b.Dirty.Segs() {
			if !b.Valid.ContainsRange(interval.Range{Start: g.Start, End: g.End}) {
				t.Fatalf("block %v: dirty bytes %v not valid", b.ID, g)
			}
		}
	}
}

// checkConservation verifies every written byte is accounted for exactly
// once: flushed to the server, absorbed (overwritten/deleted in cache), or
// still dirty.
func checkConservation(t *testing.T, m Model) {
	t.Helper()
	tr := m.Traffic()
	got := tr.ServerWriteBytes() + tr.AbsorbedBytes() + m.DirtyBytes()
	if got != tr.AppWriteBytes {
		t.Fatalf("conservation violated: flushed+absorbed+dirty = %d, written = %d",
			got, tr.AppWriteBytes)
	}
}

// checkCleanerEntries verifies that every dirty block of the pool has a
// cleaner entry at its FirstDirty, so the delayed write-back takes it
// WriteBackDelay after it was first dirtied.
func checkCleanerEntries(t *testing.T, p *Pool, h cleanerHeap, seed int64, op int) {
	t.Helper()
	scheduled := make(map[cleanerEntry]bool, len(h))
	for _, e := range h {
		scheduled[e] = true
	}
	for _, b := range p.Blocks() {
		if b.IsDirty() && !scheduled[cleanerEntry{at: b.FirstDirty, id: b.ID}] {
			t.Fatalf("seed %d op %d: dirty block %v has no cleaner entry at its FirstDirty %d", seed, op, b.ID, b.FirstDirty)
		}
	}
}

// mixOp is one operation of a seeded random op mix over three files of 24
// 256-byte blocks.
type mixOp struct {
	kind int // 0-3 write, 4-6 read, 7-8 delete, 9 fsync, 10 file flush, 11 last slot
	now  int64
	file uint64
	r    interval.Range
	size int64 // the file's size, for reads
}

// mixBlockSize is the block size the mixes are drawn for.
const mixBlockSize = 256

// randomMix returns n ops of the seeded mix the invariant and fork tests
// drive.
func randomMix(seed int64, n int) []mixOp {
	rng := rand.New(rand.NewSource(seed))
	sizes := map[uint64]int64{}
	var now int64
	const space = 24 * mixBlockSize
	ops := make([]mixOp, n)
	for i := range ops {
		now += 1 + rng.Int63n(5e6)
		file := uint64(1 + rng.Intn(3))
		a := rng.Int63n(space)
		op := mixOp{now: now, file: file, r: interval.Range{Start: a, End: a + 1 + rng.Int63n(512)}}
		op.kind = rng.Intn(12)
		if op.kind <= 6 && op.r.End > sizes[file] {
			sizes[file] = op.r.End
		}
		op.size = sizes[file]
		ops[i] = op
	}
	return ops
}

// apply applies the op to m. The last slot invalidates the file, or with
// advance set runs the cleaner instead.
func (op mixOp) apply(m Model, advance bool) {
	switch op.kind {
	case 0, 1, 2, 3:
		m.Write(op.now, op.file, op.r)
	case 4, 5, 6:
		m.Read(op.now, op.file, op.r, op.size)
	case 7, 8:
		m.DeleteRange(op.now, op.file, op.r)
	case 9:
		m.Fsync(op.now, op.file)
	case 10:
		m.FlushFile(op.now, op.file, CauseCallback)
	case 11:
		if advance {
			m.Advance(op.now)
		} else {
			m.Invalidate(op.now, op.file)
		}
	}
}

// TestUnifiedRandomInvariants drives the unified model with a random
// operation mix, checking the structural invariants and the byte
// conservation law after every operation.
func TestUnifiedRandomInvariants(t *testing.T) {
	for seed := int64(0); seed < 4; seed++ {
		m := mustModel(t, ModelUnified, Config{
			BlockSize:      mixBlockSize,
			VolatileBlocks: 6,
			NVRAMBlocks:    4,
		}).(*unifiedModel)
		ops := randomMix(seed, 3000)
		for _, op := range ops {
			op.apply(m, false)
			checkUnifiedInvariants(t, m)
			checkConservation(t, m)
		}
		m.FlushAll(ops[len(ops)-1].now, CauseEnd)
		checkConservation(t, m)
		if m.DirtyBytes() != 0 {
			t.Fatal("dirty bytes after FlushAll")
		}
	}
}

// TestWriteAsideRandomInvariants does the same for the write-aside model:
// every NVRAM shadow is dirty, every shadow has a volatile counterpart,
// and conservation holds.
func TestWriteAsideRandomInvariants(t *testing.T) {
	for seed := int64(10); seed < 13; seed++ {
		m := mustModel(t, ModelWriteAside, Config{
			BlockSize:      mixBlockSize,
			VolatileBlocks: 8,
			NVRAMBlocks:    4,
		}).(*writeAsideModel)
		for op, o := range randomMix(seed, 3000) {
			o.apply(m, false)
			if m.vol.Len() > m.vol.Capacity() || m.nv.Len() > m.nv.Capacity() {
				t.Fatalf("seed %d op %d: pool over capacity", seed, op)
			}
			for _, bn := range m.nv.Blocks() {
				if !bn.IsDirty() {
					t.Fatalf("seed %d op %d: clean shadow %v in NVRAM", seed, op, bn.ID)
				}
				if m.vol.Get(bn.ID) == nil {
					t.Fatalf("seed %d op %d: shadow %v without volatile copy", seed, op, bn.ID)
				}
			}
			checkConservation(t, m)
		}
	}
}

// TestHybridRandomInvariants: conservation plus capacity bounds for the
// hybrid extension, whose dirty data may live in either memory, and a
// cleaner entry for every dirty volatile block.
func TestHybridRandomInvariants(t *testing.T) {
	const seed = 21
	m := mustModel(t, ModelHybrid, Config{
		BlockSize:      mixBlockSize,
		VolatileBlocks: 6,
		NVRAMBlocks:    3,
	}).(*hybridModel)
	for op, o := range randomMix(seed, 3000) {
		o.apply(m, true)
		checkCleanerEntries(t, m.vol, m.cleaner, seed, op)
		if m.vol.Len() > m.vol.Capacity() || m.nv.Len() > m.nv.Capacity() {
			t.Fatalf("op %d: pool over capacity", op)
		}
		for _, b := range m.vol.Blocks() {
			if m.nv.Get(b.ID) != nil {
				t.Fatalf("op %d: block %v in both memories", op, b.ID)
			}
		}
		checkConservation(t, m)
	}
}

// TestVolatileRandomInvariants puts the volatile model under the same
// per-op checks: capacity, dirty bytes valid, FirstDirty set exactly on
// dirty blocks and no later than their oldest dirty byte, a cleaner entry
// for every dirty block, and byte conservation, with the cleaner run in
// the last slot.
func TestVolatileRandomInvariants(t *testing.T) {
	for seed := int64(30); seed < 33; seed++ {
		m := mustModel(t, ModelVolatile, Config{BlockSize: mixBlockSize, VolatileBlocks: 8}).(*volatileModel)
		for op, o := range randomMix(seed, 3000) {
			o.apply(m, true)
			if m.pool.Len() > m.pool.Capacity() {
				t.Fatalf("seed %d op %d: pool over capacity", seed, op)
			}
			for _, b := range m.pool.Blocks() {
				for _, g := range b.Dirty.Segs() {
					if !b.Valid.ContainsRange(g.Range()) {
						t.Fatalf("seed %d op %d: block %v: dirty bytes %v not valid", seed, op, b.ID, g)
					}
				}
				tag, dirty := b.Dirty.MinTag()
				if dirty != (b.FirstDirty != -1) || dirty && b.FirstDirty > tag {
					t.Fatalf("seed %d op %d: block %v: FirstDirty %d, oldest dirty byte %d (dirty %v)",
						seed, op, b.ID, b.FirstDirty, tag, dirty)
				}
			}
			checkCleanerEntries(t, m.pool, m.cleaner, seed, op)
			checkConservation(t, m)
		}
	}
}
