// Package blockmap is the open-addressing hash table behind the
// simulators' per-block and per-file state: the omniscient policy's
// modification schedule, the client caches' per-file chains, the LFS's
// block runs (each block's segment and first-dirty time, 64 blocks of a
// file to an entry) and NVRAM buffer, and the canonicalizer's file sizes.
//
// Each of these is probed once or more for every block a simulation moves,
// and Go's generic map (hashing a 16-byte key, group-wise control-byte
// matching) dominated their profiles. A linear probe over a power-of-two
// slot array with backward-shift deletion costs a multiply-shift hash and
// a short scan instead, and leaves no tombstones behind.
//
// The table's one invariant is that every entry is reachable from its home
// slot, Hash(key) masked to the table size, without crossing an empty
// slot: lookups stop at the first empty slot, and deletion shifts later
// entries back so no hole opens inside a probe chain.
package blockmap

import "cmp"

// Key identifies one file block: a file id and a block index. Tables keyed
// by file alone use Index 0.
type Key struct {
	File  uint64
	Index int64
}

// Compare orders keys by file, then index: the canonical order in which
// the simulators hand unordered blocks to a file system.
func Compare(a, b Key) int {
	if c := cmp.Compare(a.File, b.File); c != 0 {
		return c
	}
	return cmp.Compare(a.Index, b.Index)
}

// Hash is a splitmix64-style finalizer over both halves of the key: cheap,
// and strong enough that sequential files and indexes spread. For a key
// with Index 0 it is the finalizer of the file id alone.
func Hash(k Key) uint64 {
	x := k.File ^ uint64(k.Index)*0x9e3779b97f4a7c15
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// Table maps Key to V. The zero value is an empty table. It never shrinks,
// so hot paths must not scan it: only whole-state walks use Each.
// Lookups (Len, Find, At, Get, Has, Each) do not write to the table, so a
// table no longer being modified is safe for concurrent readers.
type Table[V any] struct {
	slots []slot[V] // power-of-two length
	n     int
}

type slot[V any] struct {
	key  Key
	v    V
	full bool
}

const minSlots = 16

// Len returns the number of entries.
func (t *Table[V]) Len() int { return t.n }

// Find returns the slot holding k, or -1. The slot number is valid until
// the next insertion or deletion.
func (t *Table[V]) Find(k Key) int {
	if t.n == 0 {
		return -1
	}
	mask := uint64(len(t.slots) - 1)
	for i := Hash(k) & mask; ; i = (i + 1) & mask {
		s := &t.slots[i]
		if !s.full {
			return -1
		}
		if s.key == k {
			return int(i)
		}
	}
}

// At returns a pointer to the value in slot i, from Find. The pointer is
// valid until the next insertion or deletion.
func (t *Table[V]) At(i int) *V { return &t.slots[i].v }

// Get returns k's value and whether k is present.
func (t *Table[V]) Get(k Key) (v V, ok bool) {
	if i := t.Find(k); i >= 0 {
		return t.slots[i].v, true
	}
	return v, false
}

// Has reports whether k is present.
func (t *Table[V]) Has(k Key) bool { return t.Find(k) >= 0 }

// Ref returns a pointer to k's value, inserting a zero value when k is
// absent; had reports whether it was present. The pointer is valid until
// the next insertion or deletion.
func (t *Table[V]) Ref(k Key) (p *V, had bool) {
	if 4*(t.n+1) > 3*len(t.slots) {
		t.grow()
	}
	mask := uint64(len(t.slots) - 1)
	for i := Hash(k) & mask; ; i = (i + 1) & mask {
		s := &t.slots[i]
		if !s.full {
			*s = slot[V]{key: k, full: true}
			t.n++
			return &s.v, false
		}
		if s.key == k {
			return &s.v, true
		}
	}
}

// Put sets k's value.
func (t *Table[V]) Put(k Key, v V) {
	p, _ := t.Ref(k)
	*p = v
}

func (t *Table[V]) grow() {
	old := t.slots
	t.slots = make([]slot[V], max(2*len(old), minSlots))
	mask := uint64(len(t.slots) - 1)
	for _, s := range old {
		if !s.full {
			continue
		}
		i := Hash(s.key) & mask
		for t.slots[i].full {
			i = (i + 1) & mask
		}
		t.slots[i] = s
	}
}

// Del removes k and returns its value.
func (t *Table[V]) Del(k Key) (old V, had bool) {
	i := t.Find(k)
	if i < 0 {
		return old, false
	}
	old = t.slots[i].v
	t.DelAt(i)
	return old, true
}

// DelAt empties slot i, from Find, backward-shifting the probe chain so
// no tombstones accumulate.
func (t *Table[V]) DelAt(i int) {
	mask := uint64(len(t.slots) - 1)
	hole := uint64(i)
	for j := hole; ; {
		j = (j + 1) & mask
		s := t.slots[j]
		if !s.full {
			break
		}
		// s can fill the hole unless its home slot lies in (hole, j].
		if h := Hash(s.key) & mask; (j-h)&mask >= (j-hole)&mask {
			t.slots[hole] = s
			hole = j
		}
	}
	t.slots[hole] = slot[V]{}
	t.n--
}

// Each calls fn for every entry, in slot order: deterministic for a given
// history of operations, but not sorted. fn must not modify the table.
func (t *Table[V]) Each(fn func(k Key, v V)) {
	if t.n == 0 {
		return
	}
	for i := range t.slots {
		if s := &t.slots[i]; s.full {
			fn(s.key, s.v)
		}
	}
}
