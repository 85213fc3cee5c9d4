package cache

import "nvramfs/internal/blockmap"

// blockIndex maps BlockID → *Block: the pool's block index, probed on
// every cached byte the simulator moves. It is the one open-addressing
// table in the simulators that is not a blockmap.Table, because it needs
// no stored keys (a block carries its own id, so a slot is one pointer and
// a nil slot is empty) and because its one-entry last cache writes on
// lookup, which a shared table read concurrently must not do. It probes
// and deletes exactly as blockmap.Table does.
type blockIndex struct {
	slots []*Block // power-of-two length
	n     int
	// last is a one-entry cache of the most recently found or inserted
	// block: small sequential writes hit the same block on consecutive
	// operations, turning the hash-and-probe into a single compare.
	last *Block
}

func (t *blockIndex) get(id BlockID) *Block {
	if b := t.last; b != nil && b.ID == id {
		return b
	}
	if t.n == 0 {
		return nil
	}
	mask := uint64(len(t.slots) - 1)
	for i := blockmap.Hash(blockmap.Key(id)) & mask; ; i = (i + 1) & mask {
		b := t.slots[i]
		if b == nil {
			return nil
		}
		if b.ID == id {
			t.last = b
			return b
		}
	}
}

// put inserts b, which must not already be present.
func (t *blockIndex) put(b *Block) {
	if 4*(t.n+1) > 3*len(t.slots) {
		t.grow()
	}
	mask := uint64(len(t.slots) - 1)
	for i := blockmap.Hash(blockmap.Key(b.ID)) & mask; ; i = (i + 1) & mask {
		if t.slots[i] == nil {
			t.slots[i] = b
			t.n++
			t.last = b
			return
		}
	}
}

func (t *blockIndex) grow() {
	old := t.slots
	next := max(2*len(old), 16)
	t.slots = make([]*Block, next)
	mask := uint64(next - 1)
	for _, b := range old {
		if b == nil {
			continue
		}
		for i := blockmap.Hash(blockmap.Key(b.ID)) & mask; ; i = (i + 1) & mask {
			if t.slots[i] == nil {
				t.slots[i] = b
				break
			}
		}
	}
}

// del removes and returns the block with the given id (nil if absent),
// backward-shifting the probe chain so no tombstones accumulate.
func (t *blockIndex) del(id BlockID) *Block {
	if t.n == 0 {
		return nil
	}
	mask := uint64(len(t.slots) - 1)
	i := blockmap.Hash(blockmap.Key(id)) & mask
	for {
		b := t.slots[i]
		if b == nil {
			return nil
		}
		if b.ID == id {
			break
		}
		i = (i + 1) & mask
	}
	removed := t.slots[i]
	if t.last == removed {
		t.last = nil
	}
	j := i
	for {
		j = (j + 1) & mask
		b := t.slots[j]
		if b == nil {
			break
		}
		// b can fill the hole at i unless its home slot lies in (i, j].
		if h := blockmap.Hash(blockmap.Key(b.ID)) & mask; (j-h)&mask >= (j-i)&mask {
			t.slots[i] = b
			i = j
		}
	}
	t.slots[i] = nil
	t.n--
	return removed
}
