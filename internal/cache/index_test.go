package cache

import (
	"math/rand"
	"testing"
)

// TestBlockIndexMatchesMap drives random put/get/del traffic through the
// open-addressing table and a reference map, checking every lookup. The
// key space is kept small so probe chains collide and backward-shift
// deletion runs constantly.
func TestBlockIndexMatchesMap(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var idx blockIndex
	ref := make(map[BlockID]*Block)
	randID := func() BlockID {
		return BlockID{File: uint64(rng.Intn(8)), Index: int64(rng.Intn(32))}
	}
	for step := 0; step < 50000; step++ {
		id := randID()
		switch rng.Intn(3) {
		case 0: // put (if absent)
			if ref[id] == nil {
				b := &Block{ID: id}
				ref[id] = b
				idx.put(b)
			}
		case 1: // del
			got := idx.del(id)
			if got != ref[id] {
				t.Fatalf("step %d: del(%v) = %p, want %p", step, id, got, ref[id])
			}
			delete(ref, id)
		case 2: // get
			if got := idx.get(id); got != ref[id] {
				t.Fatalf("step %d: get(%v) = %p, want %p", step, id, got, ref[id])
			}
		}
		if idx.n != len(ref) {
			t.Fatalf("step %d: n = %d, want %d", step, idx.n, len(ref))
		}
	}
	for id, b := range ref {
		if idx.get(id) != b {
			t.Fatalf("final: get(%v) missing", id)
		}
	}
}
