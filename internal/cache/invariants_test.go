package cache

import (
	"fmt"
	"math/rand"
	"testing"

	"nvramfs/internal/interval"
)

// mixOp is one operation of a random op mix over three files of 24
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

// mixSpace is the byte span of each file the mixes touch.
const mixSpace = 24 * mixBlockSize

// mixer builds an op mix, tracking each file's size for reads.
type mixer struct {
	ops   []mixOp
	now   int64
	sizes [4]int64
}

// add appends an op of the given kind dt after the previous one.
func (x *mixer) add(dt int64, file uint64, start, n int64, kind int) {
	x.now += dt
	op := mixOp{kind: kind, now: x.now, file: file, r: interval.Range{Start: start, End: start + n}}
	if kind <= 6 && op.r.End > x.sizes[file] {
		x.sizes[file] = op.r.End
	}
	op.size = x.sizes[file]
	x.ops = append(x.ops, op)
}

// random appends n ops of a seeded mix.
func (x *mixer) random(seed int64, n int) {
	rng := rand.New(rand.NewSource(seed))
	for range n {
		x.add(1+rng.Int63n(5e6), uint64(1+rng.Intn(3)), rng.Int63n(mixSpace), 1+rng.Int63n(512), rng.Intn(12))
	}
}

// randomMix returns n ops of the seeded mix the invariant, fork and digest
// tests drive.
func randomMix(seed int64, n int) []mixOp {
	var x mixer
	x.random(seed, n)
	return x.ops
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

// coreOf returns the model's shared state.
func coreOf(m Model) *core {
	switch m := m.(type) {
	case *volatileModel:
		return &m.core
	case *writeAsideModel:
		return &m.core
	case *unifiedModel:
		return &m.core
	case *hybridModel:
		return &m.core
	}
	panic("unknown model")
}

// checkInvariants verifies the structural invariants every organization
// keeps between operations:
//   - no pool is over capacity;
//   - no block is in both memories, except a write-aside shadow, which is
//     dirty, holds no valid bytes and has a volatile copy in which its
//     dirty bytes are valid;
//   - every other block's dirty bytes are valid;
//   - no volatile block is dirty when the organization stages writes in
//     NVRAM;
//   - a volatile block has a FirstDirty exactly while dirty, no later than
//     its oldest dirty byte, and a cleaner entry there;
//   - ForEachDirty enumerates DirtyBytes, and every written byte is
//     accounted for once: written back, absorbed or still dirty.
func checkInvariants(m Model) error {
	c := coreOf(m)
	vol, nv := m.Pools()
	shadows := c.kind == ModelWriteAside
	scheduled := make(map[cleanerEntry]bool, len(c.cleaner))
	for _, e := range c.cleaner {
		scheduled[e] = true
	}
	if vol.Len() > vol.Capacity() {
		return fmt.Errorf("volatile pool over capacity: %d/%d", vol.Len(), vol.Capacity())
	}
	for _, b := range vol.Blocks() {
		tag, dirty := b.Dirty.MinTag()
		switch {
		case nv != nil && !shadows && nv.Get(b.ID) != nil:
			return fmt.Errorf("block %v in both memories", b.ID)
		case !dirtyValid(b, b):
			return fmt.Errorf("block %v: dirty bytes not valid", b.ID)
		case dirty && c.kind.StagesWritesInNVRAM():
			return fmt.Errorf("dirty block %v in the volatile pool of %v", b.ID, c.kind)
		case dirty != (b.FirstDirty != -1) || dirty && b.FirstDirty > tag:
			return fmt.Errorf("block %v: FirstDirty %d, oldest dirty byte %d (dirty %v)", b.ID, b.FirstDirty, tag, dirty)
		case dirty && !scheduled[cleanerEntry{at: b.FirstDirty, id: b.ID}]:
			return fmt.Errorf("dirty block %v has no cleaner entry at its FirstDirty %d", b.ID, b.FirstDirty)
		}
	}
	if nv != nil {
		if nv.Len() > nv.Capacity() {
			return fmt.Errorf("NVRAM over capacity: %d/%d", nv.Len(), nv.Capacity())
		}
		for _, b := range nv.Blocks() {
			bv := b
			if shadows {
				bv = vol.Get(b.ID)
				switch {
				case !b.IsDirty() || b.Valid.Len() != 0:
					return fmt.Errorf("shadow %v: %d dirty bytes, %d valid", b.ID, b.Dirty.Len(), b.Valid.Len())
				case bv == nil:
					return fmt.Errorf("shadow %v without volatile copy", b.ID)
				}
			}
			if !dirtyValid(b, bv) {
				return fmt.Errorf("block %v: dirty bytes not valid", b.ID)
			}
		}
	}
	var enumerated int64
	m.ForEachDirty(func(_ uint64, g interval.Seg, _ bool) { enumerated += g.Len() })
	if enumerated != m.DirtyBytes() {
		return fmt.Errorf("ForEachDirty enumerates %d bytes, DirtyBytes %d", enumerated, m.DirtyBytes())
	}
	tr := m.Traffic()
	if got := tr.ServerWriteBytes() + tr.AbsorbedBytes() + m.DirtyBytes(); got != tr.AppWriteBytes {
		return fmt.Errorf("conservation violated: flushed+absorbed+dirty = %d, written = %d", got, tr.AppWriteBytes)
	}
	return nil
}

// dirtyValid reports whether b's dirty bytes are valid in v.
func dirtyValid(b, v *Block) bool {
	for _, g := range b.Dirty.Segs() {
		if !v.Valid.ContainsRange(g.Range()) {
			return false
		}
	}
	return true
}

// randomInvariantRuns are the seeded configurations the four
// random-invariant tests run and FuzzCacheModels starts from: capacities,
// flags (see FuzzCacheModels) and the seeds of the mix, all under LRU.
var randomInvariantRuns = map[ModelKind]struct {
	vol, nv, flags uint8
	seeds          []int64
}{
	ModelUnified:    {6, 4, 0, []int64{0, 1, 2, 3}},
	ModelWriteAside: {8, 4, 0, []int64{10, 11, 12}},
	ModelHybrid:     {6, 3, 1, []int64{21}},
	ModelVolatile:   {8, 0, 1, []int64{30, 31, 32}},
}

// runRandomInvariants runs the organization's seeded configurations.
func runRandomInvariants(t *testing.T, kind ModelKind) {
	r := randomInvariantRuns[kind]
	for _, seed := range r.seeds {
		t.Run(fmt.Sprint("seed", seed), func(t *testing.T) {
			checkModelRun(t, uint8(kind), uint8(LRU), r.vol, r.nv, r.flags, seed, nil)
		})
	}
}

// TestUnifiedRandomInvariants checks the invariants of the unified model
// after every op of its seeded mixes.
func TestUnifiedRandomInvariants(t *testing.T) { runRandomInvariants(t, ModelUnified) }

// TestWriteAsideRandomInvariants does the same for the write-aside model.
func TestWriteAsideRandomInvariants(t *testing.T) { runRandomInvariants(t, ModelWriteAside) }

// TestHybridRandomInvariants does the same for the hybrid model, with the
// cleaner run in the mix's last slot.
func TestHybridRandomInvariants(t *testing.T) { runRandomInvariants(t, ModelHybrid) }

// TestVolatileRandomInvariants does the same for the volatile model, with
// the cleaner run in the mix's last slot.
func TestVolatileRandomInvariants(t *testing.T) { runRandomInvariants(t, ModelVolatile) }

// FuzzCacheModels drives one organization, under one policy and one pair
// of capacities, with a 3000-op seeded mix followed by ops decoded from
// tail (4 bytes each), and checks the invariants after every op. flags
// bit 0 runs the cleaner in the mix's last slot instead of Invalidate; bit
// 1 turns on DirtyPreference. After a final FlushAll nothing is dirty.
func FuzzCacheModels(f *testing.F) {
	for kind := ModelVolatile; kind <= ModelHybrid; kind++ {
		r := randomInvariantRuns[kind]
		for _, seed := range r.seeds {
			f.Add(uint8(kind), uint8(LRU), r.vol, r.nv, r.flags, seed, []byte(nil))
		}
	}
	f.Fuzz(checkModelRun)
}

// runConfig decodes FuzzCacheModels' organization, policy, capacity and
// flag bytes into a model kind and its configuration. Capacities below 10
// are used as they stand, so randomInvariantRuns' entries run the sizes
// they name; a pool that must not be empty gets at least one block.
func runConfig(org, pol, vol, nv, flags uint8, seed int64) (ModelKind, Config) {
	kind := ModelKind(org % 4)
	cfg := Config{
		BlockSize:       mixBlockSize,
		VolatileBlocks:  int(vol % 10),
		NVRAMBlocks:     max(1, int(nv%10)),
		Seed:            seed,
		DirtyPreference: flags&2 != 0,
	}
	if kind != ModelVolatile {
		cfg.Policy = PolicyKind(pol % 3)
	}
	if cfg.VolatileBlocks == 0 && (kind == ModelVolatile || kind == ModelWriteAside) {
		cfg.VolatileBlocks = 1
	}
	return kind, cfg
}

// TestRandomInvariantRunsKeepTheirCapacities checks that the seeded runs
// build their models with the capacities randomInvariantRuns names.
func TestRandomInvariantRunsKeepTheirCapacities(t *testing.T) {
	for kind, r := range randomInvariantRuns {
		k, cfg := runConfig(uint8(kind), uint8(LRU), r.vol, r.nv, r.flags, r.seeds[0])
		m, err := NewModel(k, cfg)
		if err != nil {
			t.Fatal(err)
		}
		vol, nv := m.Pools()
		if k != kind || vol.Capacity() != int(r.vol) || kind != ModelVolatile && nv.Capacity() != int(r.nv) {
			t.Errorf("%v: built %v with capacities %d/%d, want %d/%d", kind, k, vol.Capacity(), cfg.NVRAMBlocks, r.vol, r.nv)
		}
	}
}

// checkModelRun is the body of FuzzCacheModels.
func checkModelRun(t *testing.T, org, pol, vol, nv, flags uint8, seed int64, tail []byte) {
	kind, cfg := runConfig(org, pol, vol, nv, flags, seed)
	var x mixer
	x.random(seed, 3000)
	for ; len(tail) >= 4; tail = tail[4:] {
		// A step of up to 21 s, so the cleaner comes due.
		x.add(1+int64(tail[0]/12)*1e6, uint64(1+tail[1]%3), int64(tail[2])*mixSpace/256, 1+2*int64(tail[3]), int(tail[0]%12))
	}
	cfg.Schedule = newMixSchedule(x.ops)
	m, err := NewModel(kind, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i, op := range x.ops {
		op.apply(m, flags&1 != 0)
		if err := checkInvariants(m); err != nil {
			t.Fatalf("op %d: %v", i, err)
		}
	}
	m.FlushAll(x.now, CauseEnd)
	if err := checkInvariants(m); err != nil {
		t.Fatal(err)
	}
	if m.DirtyBytes() != 0 {
		t.Fatal("dirty bytes after FlushAll")
	}
}
