package cache

import (
	"fmt"
	"reflect"
	"sort"
	"testing"

	"nvramfs/internal/interval"
)

// mixSchedule is the omniscient policy's future knowledge of an op mix:
// each block's write times, served through the cursor fast path
// (timesSchedule) like lifetime.Schedule.
type mixSchedule map[BlockID][]int64

func newMixSchedule(ops []mixOp) mixSchedule {
	s := mixSchedule{}
	for _, op := range ops {
		if op.kind <= 3 {
			blockSpan(op.r, mixBlockSize, func(idx int64, _ interval.Range) {
				id := BlockID{op.file, idx}
				s[id] = append(s[id], op.now)
			})
		}
	}
	return s
}

func (s mixSchedule) ModifyTimes(id BlockID) []int64 { return s[id] }

func (s mixSchedule) NextModify(id BlockID, now int64) int64 {
	ts := s[id]
	if i := sort.Search(len(ts), func(i int) bool { return ts[i] > now }); i < len(ts) {
		return ts[i]
	}
	return NeverModified
}

// modelState is everything observable about a model: its traffic, its
// dirty runs, its resident block count, and the order in which its pools
// would give up their blocks (drained by the last step, so it goes last).
type modelState struct {
	Traffic Traffic
	Dirty   []string
	Cached  int
	Victims [2][]BlockID
}

func stateOf(m Model) modelState {
	st := modelState{Traffic: *m.Traffic(), Cached: m.CachedBlocks()}
	m.ForEachDirty(func(file uint64, g interval.Seg, stable bool) {
		st.Dirty = append(st.Dirty, fmt.Sprintf("f%d %v %v", file, g, stable))
	})
	vol, nv := m.Pools()
	for i, p := range []*Pool{vol, nv} {
		for p != nil {
			b := p.EvictVictim()
			if b == nil {
				break
			}
			st.Victims[i] = append(st.Victims[i], b.ID)
		}
	}
	return st
}

// TestForkMatchesOriginal forks every model kind, under each policy it
// allows, at several points of the invariant tests' op mixes with its
// capacities unchanged, continues the original and the fork on the same
// ops, and requires both to end exactly where a model that was never
// forked does. The random policy is also forked after it has drawn.
func TestForkMatchesOriginal(t *testing.T) {
	policies := map[ModelKind][]PolicyKind{
		ModelVolatile:   {LRU},
		ModelWriteAside: {LRU, Random, Omniscient},
		ModelUnified:    {LRU, Random, Omniscient},
		ModelHybrid:     {LRU, Random, Omniscient},
	}
	for kind, pols := range policies {
		for _, pol := range pols {
			for seed := int64(0); seed < 2; seed++ {
				ops := randomMix(seed, 3000)
				cfg := Config{
					BlockSize:      mixBlockSize,
					VolatileBlocks: 6,
					NVRAMBlocks:    4,
					Policy:         pol,
					Schedule:       newMixSchedule(ops),
					Seed:           seed,
				}
				// The volatile and hybrid models run their cleaner in the
				// mix's last slot; the others invalidate there.
				advance := kind == ModelVolatile || kind == ModelHybrid
				run := func(m Model, ops []mixOp) {
					for _, op := range ops {
						op.apply(m, advance)
					}
				}
				newModel := func() Model {
					m, err := NewModel(kind, cfg)
					if err != nil {
						t.Fatal(err)
					}
					return m
				}
				ref := newModel()
				run(ref, ops)
				end := ops[len(ops)-1].now
				ref.FlushAll(end, CauseMigration)
				want := stateOf(ref)
				for _, at := range []int{0, 1, 700, 2999} {
					name := fmt.Sprintf("%v/%v/seed%d/at%d", kind, pol, seed, at)
					m := newModel()
					run(m, ops[:at])
					vol, nv := m.Pools()
					if pol == Random && at == 2999 && nv.policy.(*randomPolicy).src.draws == 0 {
						t.Fatalf("%s: the random policy has not drawn", name)
					}
					nvBlocks := 0
					if nv != nil {
						nvBlocks = nv.Capacity()
					}
					f := m.Fork(vol.Capacity(), nvBlocks)
					for _, x := range []Model{m, f} {
						run(x, ops[at:])
						x.FlushAll(end, CauseMigration)
					}
					if got := stateOf(m); !reflect.DeepEqual(got, want) {
						t.Errorf("%s: forked original diverges\n got %+v\nwant %+v", name, got, want)
					}
					if got := stateOf(f); !reflect.DeepEqual(got, want) {
						t.Errorf("%s: fork diverges\n got %+v\nwant %+v", name, got, want)
					}
				}
			}
		}
	}
}

// TestSharedPoolPanicsWhenFull holds a shared pool to its contract: it may
// run right up to its capacity, but Full on a full shared pool panics.
func TestSharedPoolPanicsWhenFull(t *testing.T) {
	p := NewPool(4, newLRUPolicy())
	p.SetCapacity(2, true)
	for i := range int64(2) {
		if p.Full() {
			t.Fatalf("Full with %d of 2 blocks", p.Len())
		}
		p.Put(newBlock(bid(1, i), 0), 0)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Full on a full shared pool did not panic")
		}
	}()
	p.Full()
}
