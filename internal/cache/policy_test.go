package cache

import (
	"testing"
	"testing/quick"
)

func bid(f uint64, i int64) BlockID { return BlockID{File: f, Index: i} }

// blockSet hands tests a stable *Block per id, since policies now track
// blocks rather than ids.
type blockSet map[BlockID]*Block

func (s blockSet) get(id BlockID) *Block {
	b := s[id]
	if b == nil {
		b = newBlock(id, 0)
		s[id] = b
	}
	return b
}

func TestLRUPolicyOrder(t *testing.T) {
	s := blockSet{}
	p := newLRUPolicy()
	p.Insert(s.get(bid(1, 0)), 0)
	p.Insert(s.get(bid(1, 1)), 1)
	p.Insert(s.get(bid(1, 2)), 2)
	if v, _ := p.Victim(); v.ID != bid(1, 0) {
		t.Fatalf("victim = %v, want oldest", v.ID)
	}
	p.Touch(s.get(bid(1, 0)), 3)
	if v, _ := p.Victim(); v.ID != bid(1, 1) {
		t.Fatalf("victim after touch = %v", v.ID)
	}
	p.Remove(s.get(bid(1, 1)))
	if v, _ := p.Victim(); v.ID != bid(1, 2) {
		t.Fatalf("victim after remove = %v", v.ID)
	}
	if p.Len() != 2 {
		t.Fatalf("Len = %d", p.Len())
	}
}

func TestLRUPolicyModifyCountsAsUse(t *testing.T) {
	s := blockSet{}
	p := newLRUPolicy()
	p.Insert(s.get(bid(1, 0)), 0)
	p.Insert(s.get(bid(1, 1)), 1)
	p.Modify(s.get(bid(1, 0)), 2)
	if v, _ := p.Victim(); v.ID != bid(1, 1) {
		t.Fatalf("victim = %v", v.ID)
	}
}

func TestLRUPolicyEmptyVictim(t *testing.T) {
	p := newLRUPolicy()
	if _, ok := p.Victim(); ok {
		t.Fatal("victim from empty policy")
	}
}

func TestRandomPolicy(t *testing.T) {
	p, err := newPolicy(Config{Policy: Random, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	s := blockSet{}
	ids := map[BlockID]bool{}
	for i := int64(0); i < 10; i++ {
		p.Insert(s.get(bid(1, i)), i)
		ids[bid(1, i)] = true
	}
	seen := map[BlockID]bool{}
	for i := 0; i < 200; i++ {
		v, ok := p.Victim()
		if !ok || !ids[v.ID] {
			t.Fatalf("victim %v not a member", v)
		}
		seen[v.ID] = true
	}
	if len(seen) < 5 {
		t.Fatalf("random victims not spread: %d distinct", len(seen))
	}
	p.Remove(s.get(bid(1, 3)))
	for i := 0; i < 100; i++ {
		if v, _ := p.Victim(); v.ID == bid(1, 3) {
			t.Fatal("removed block still selected")
		}
	}
	if p.Len() != 9 {
		t.Fatalf("Len = %d", p.Len())
	}
}

// fixedSchedule maps blocks to a static list of future modify times.
type fixedSchedule map[BlockID][]int64

func (s fixedSchedule) NextModify(id BlockID, now int64) int64 {
	for _, t := range s[id] {
		if t > now {
			return t
		}
	}
	return NeverModified
}

func TestOmniscientPolicyPicksFurthest(t *testing.T) {
	sched := fixedSchedule{
		bid(1, 0): {100},
		bid(1, 1): {500},
		bid(1, 2): {200},
	}
	p, err := newPolicy(Config{Policy: Omniscient, Schedule: sched})
	if err != nil {
		t.Fatal(err)
	}
	s := blockSet{}
	p.Insert(s.get(bid(1, 0)), 0)
	p.Insert(s.get(bid(1, 1)), 0)
	p.Insert(s.get(bid(1, 2)), 0)
	if v, _ := p.Victim(); v.ID != bid(1, 1) {
		t.Fatalf("victim = %v, want the block modified furthest in the future", v.ID)
	}
	// A block never modified again is the perfect victim.
	p.Insert(s.get(bid(1, 3)), 0)
	if v, _ := p.Victim(); v.ID != bid(1, 3) {
		t.Fatalf("victim = %v, want never-modified block", v.ID)
	}
}

func TestOmniscientPolicyRekeysOnModify(t *testing.T) {
	sched := fixedSchedule{
		bid(1, 0): {100, 1000},
		bid(1, 1): {500},
	}
	p, _ := newPolicy(Config{Policy: Omniscient, Schedule: sched})
	s := blockSet{}
	p.Insert(s.get(bid(1, 0)), 0) // next modify 100
	p.Insert(s.get(bid(1, 1)), 0) // next modify 500
	if v, _ := p.Victim(); v.ID != bid(1, 1) {
		t.Fatalf("victim = %v", v.ID)
	}
	// Block 0 is modified at t=100; its next modify becomes 1000.
	p.Modify(s.get(bid(1, 0)), 100)
	if v, _ := p.Victim(); v.ID != bid(1, 0) {
		t.Fatalf("victim after rekey = %v", v.ID)
	}
}

func TestOmniscientPolicyRemove(t *testing.T) {
	sched := fixedSchedule{
		bid(1, 0): {100},
		bid(1, 1): {500},
		bid(1, 2): {200},
		bid(1, 3): {400},
	}
	p, _ := newPolicy(Config{Policy: Omniscient, Schedule: sched})
	s := blockSet{}
	for i := int64(0); i < 4; i++ {
		p.Insert(s.get(bid(1, i)), 0)
	}
	p.Remove(s.get(bid(1, 1)))
	if v, _ := p.Victim(); v.ID != bid(1, 3) {
		t.Fatalf("victim after remove = %v", v.ID)
	}
	p.Remove(s.get(bid(1, 3)))
	p.Remove(s.get(bid(1, 2)))
	if v, _ := p.Victim(); v.ID != bid(1, 0) {
		t.Fatalf("victim = %v", v.ID)
	}
	p.Remove(s.get(bid(1, 0)))
	if _, ok := p.Victim(); ok || p.Len() != 0 {
		t.Fatal("policy not empty after removing everything")
	}
}

func TestNewPolicyValidation(t *testing.T) {
	if _, err := newPolicy(Config{Policy: Omniscient}); err == nil {
		t.Fatal("omniscient policy without schedule accepted")
	}
	if _, err := newPolicy(Config{Policy: PolicyKind(9)}); err == nil {
		t.Fatal("unknown policy accepted")
	}
}

func TestPolicyKindString(t *testing.T) {
	if LRU.String() != "lru" || Random.String() != "random" || Omniscient.String() != "omniscient" {
		t.Fatal("policy names wrong")
	}
}

// Property: for any op sequence, an LRU policy's victim is always the
// tracked block with the earliest last-use, matching a reference model.
func TestQuickLRUMatchesReference(t *testing.T) {
	f := func(ops []uint16) bool {
		s := blockSet{}
		p := newLRUPolicy()
		lastUse := map[BlockID]int64{}
		clock := int64(0)
		for _, op := range ops {
			id := bid(1, int64(op%16))
			clock++
			switch (op >> 4) % 3 {
			case 0:
				p.Insert(s.get(id), clock)
				lastUse[id] = clock
			case 1:
				p.Touch(s.get(id), clock)
				if _, ok := lastUse[id]; ok {
					lastUse[id] = clock
				}
			case 2:
				p.Remove(s.get(id))
				delete(lastUse, id)
			}
			// Check the victim matches the reference oldest.
			v, ok := p.Victim()
			if ok != (len(lastUse) > 0) {
				return false
			}
			if ok {
				var oldest BlockID
				oldestT := int64(1 << 62)
				for id, t := range lastUse {
					if t < oldestT {
						oldest, oldestT = id, t
					}
				}
				if v.ID != oldest {
					return false
				}
			}
		}
		return p.Len() == len(lastUse)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
