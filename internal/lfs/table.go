package lfs

// blockTable is an open-addressing hash table keyed by blockID, the
// representation of the file system's per-block state: block locations,
// dirty blocks and NVRAM-buffered blocks. The server study touches these
// once or more for every block it writes, and Go's generic map (hashing a
// 16-byte key, group-wise control-byte matching) dominated its profile; a
// linear probe over a power-of-two slot array with backward-shift deletion
// costs a multiply-shift hash and a short scan instead. The table never
// shrinks, so hot paths must not scan it: only whole-state walks
// (checkpoints, fingerprints, the cleaner's fallback) use each.
type blockTable[V any] struct {
	slots []blockSlot[V] // power-of-two length
	n     int
}

type blockSlot[V any] struct {
	id   blockID
	v    V
	full bool
}

const minTableSlots = 16

// hashBlockID is a splitmix64-style finalizer over both halves of the id:
// cheap, and strong enough that sequential files and indexes spread.
func hashBlockID(id blockID) uint64 {
	x := id.file ^ uint64(id.index)*0x9e3779b97f4a7c15
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

func (t *blockTable[V]) len() int { return t.n }

// find returns the slot holding id, or -1.
func (t *blockTable[V]) find(id blockID) int {
	if t.n == 0 {
		return -1
	}
	mask := uint64(len(t.slots) - 1)
	for i := hashBlockID(id) & mask; ; i = (i + 1) & mask {
		s := &t.slots[i]
		if !s.full {
			return -1
		}
		if s.id == id {
			return int(i)
		}
	}
}

func (t *blockTable[V]) get(id blockID) (v V, ok bool) {
	if i := t.find(id); i >= 0 {
		return t.slots[i].v, true
	}
	return v, false
}

func (t *blockTable[V]) has(id blockID) bool { return t.find(id) >= 0 }

// ref returns a pointer to id's value, inserting a zero value when id is
// absent; had reports whether it was present. The pointer is valid until
// the next insertion or deletion.
func (t *blockTable[V]) ref(id blockID) (p *V, had bool) {
	if 4*(t.n+1) > 3*len(t.slots) {
		t.grow()
	}
	mask := uint64(len(t.slots) - 1)
	for i := hashBlockID(id) & mask; ; i = (i + 1) & mask {
		s := &t.slots[i]
		if !s.full {
			*s = blockSlot[V]{id: id, full: true}
			t.n++
			return &s.v, false
		}
		if s.id == id {
			return &s.v, true
		}
	}
}

func (t *blockTable[V]) put(id blockID, v V) {
	p, _ := t.ref(id)
	*p = v
}

func (t *blockTable[V]) grow() {
	old := t.slots
	t.slots = make([]blockSlot[V], max(2*len(old), minTableSlots))
	mask := uint64(len(t.slots) - 1)
	for _, s := range old {
		if !s.full {
			continue
		}
		i := hashBlockID(s.id) & mask
		for t.slots[i].full {
			i = (i + 1) & mask
		}
		t.slots[i] = s
	}
}

// del removes id and returns its value.
func (t *blockTable[V]) del(id blockID) (old V, had bool) {
	i := t.find(id)
	if i < 0 {
		return old, false
	}
	old = t.slots[i].v
	t.delAt(i)
	return old, true
}

// delAt empties slot i (from find), backward-shifting the probe chain so
// no tombstones accumulate.
func (t *blockTable[V]) delAt(slot int) {
	mask := uint64(len(t.slots) - 1)
	i := uint64(slot)
	for j := i; ; {
		j = (j + 1) & mask
		s := t.slots[j]
		if !s.full {
			break
		}
		// s can fill the hole at i unless its home slot lies in (i, j].
		if h := hashBlockID(s.id) & mask; (j-h)&mask >= (j-i)&mask {
			t.slots[i] = s
			i = j
		}
	}
	t.slots[i] = blockSlot[V]{}
	t.n--
}

// each calls fn for every entry, in slot order. fn must not modify the
// table.
func (t *blockTable[V]) each(fn func(id blockID, v V)) {
	if t.n == 0 {
		return
	}
	for i := range t.slots {
		if s := &t.slots[i]; s.full {
			fn(s.id, s.v)
		}
	}
}

// appendFileIndexes appends the indexes of file's entries, in slot order.
func (t *blockTable[V]) appendFileIndexes(dst []int64, file uint64) []int64 {
	t.each(func(id blockID, _ V) {
		if id.file == file {
			dst = append(dst, id.index)
		}
	})
	return dst
}
