package cache

import (
	"testing"
)

// flatSchedule gives the omniscient policy a constant next-modify time, so
// the heap exercises its insert/remove paths without a real schedule.
type flatSchedule struct{}

func (flatSchedule) NextModify(BlockID, int64) int64 { return NeverModified }

// The zero-allocation contract of the simulator hot path: once a pool is at
// capacity and the arena holds recycled blocks, the per-event cycle —
// evict victim, recycle it, install a block, touch it, modify it — must not
// allocate. These tests pin that budget so a regression (say, a policy that
// boxes blocks again, or a chain insert that builds a slice) fails CI
// instead of silently landing.

func TestPoolSteadyStateAllocs(t *testing.T) {
	for _, tc := range []struct {
		name string
		pol  Policy
	}{
		{"lru", newLRUPolicy()},
		{"random", newRandomPolicy(1)},
		{"omniscient", &omniscientPolicy{sched: flatSchedule{}}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			arena := NewBlockArena()
			p := NewPool(8, tc.pol)
			now := int64(0)
			for ; now < 8; now++ {
				p.Put(arena.Get(bid(1, now), now), now)
			}
			next := now
			avg := testing.AllocsPerRun(200, func() {
				v := p.EvictVictim()
				arena.Put(v)
				b := arena.Get(bid(1, next), now)
				p.Put(b, now)
				p.Touch(b, now)
				p.Modify(b, now)
				next++
				now++
			})
			if avg != 0 {
				t.Fatalf("steady-state insert/touch/evict cycle: %.1f allocs per run, want 0", avg)
			}
		})
	}
}

func TestPoolFileChainWalkAllocs(t *testing.T) {
	arena := NewBlockArena()
	p := NewPool(16, newLRUPolicy())
	for i := int64(0); i < 16; i++ {
		p.Put(arena.Get(bid(uint64(1+i%2), i), i), i)
	}
	avg := testing.AllocsPerRun(200, func() {
		n := 0
		p.ForEachFileBlock(1, func(*Block) { n++ })
		p.ForEachBlock(func(*Block) { n++ })
		if n != 24 {
			t.Fatalf("walked %d blocks, want 24", n)
		}
	})
	if avg != 0 {
		t.Fatalf("chain walks: %.1f allocs per run, want 0", avg)
	}
}
