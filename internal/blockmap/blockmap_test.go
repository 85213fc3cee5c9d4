package blockmap

import "testing"

// FuzzTableMatchesMap decodes its input into a sequence of table
// operations over a 32-key space (eight files, four block indexes each, so
// probe chains collide and backward-shift deletion runs constantly) and
// checks the table against a Go map after every one: each lookup, Len, the
// full contents, and the probe invariant that every entry is reachable
// from its home slot without crossing an empty slot.
func FuzzTableMatchesMap(f *testing.F) {
	f.Add([]byte{0, 0, 0, 4, 0, 8, 3, 4, 2, 8, 5, 0})
	f.Add([]byte{1, 1, 1, 5, 1, 9, 1, 13, 4, 1, 2, 5, 2, 9, 2, 13, 5, 0})
	all := make([]byte, 0, 3*64)
	for k := range 32 {
		all = append(all, 0, byte(k))
	}
	for k := range 32 {
		all = append(all, 3+byte(k%2), byte(k*7))
	}
	f.Add(all)
	f.Fuzz(func(t *testing.T, ops []byte) {
		var tab Table[int]
		ref := make(map[Key]int)
		for step := 0; step+1 < len(ops); step += 2 {
			b := ops[step+1]
			k := Key{File: uint64(b >> 2 & 7), Index: int64(b & 3)}
			want, present := ref[k]
			switch ops[step] % 6 {
			case 0: // Ref
				p, had := tab.Ref(k)
				if had != present || *p != want {
					t.Fatalf("step %d: Ref(%v) = %d, %v; want %d, %v", step, k, *p, had, want, present)
				}
				*p = step + 1
				ref[k] = step + 1
			case 1: // Put
				tab.Put(k, step+1)
				ref[k] = step + 1
			case 2: // Get, Has
				if v, ok := tab.Get(k); v != want || ok != present || tab.Has(k) != present {
					t.Fatalf("step %d: Get(%v) = %d, %v; want %d, %v", step, k, v, ok, want, present)
				}
			case 3: // Find, At, DelAt
				i := tab.Find(k)
				if (i >= 0) != present {
					t.Fatalf("step %d: Find(%v) = %d, present %v", step, k, i, present)
				}
				if i >= 0 {
					if *tab.At(i) != want {
						t.Fatalf("step %d: At(Find(%v)) = %d, want %d", step, k, *tab.At(i), want)
					}
					tab.DelAt(i)
					delete(ref, k)
				}
			case 4: // Del
				if v, had := tab.Del(k); v != want || had != present {
					t.Fatalf("step %d: Del(%v) = %d, %v; want %d, %v", step, k, v, had, want, present)
				}
				delete(ref, k)
			case 5: // Each
				seen := make(map[Key]int)
				tab.Each(func(k Key, v int) {
					if _, dup := seen[k]; dup {
						t.Fatalf("step %d: Each visited %v twice", step, k)
					}
					seen[k] = v
				})
				if len(seen) != len(ref) {
					t.Fatalf("step %d: Each visited %d entries, want %d", step, len(seen), len(ref))
				}
			}
			if tab.Len() != len(ref) {
				t.Fatalf("step %d: Len = %d, want %d", step, tab.Len(), len(ref))
			}
			for k, v := range ref {
				if got, ok := tab.Get(k); !ok || got != v {
					t.Fatalf("step %d: Get(%v) = %d, %v; want %d", step, k, got, ok, v)
				}
			}
			checkReachable(t, &tab)
		}
	})
}

// checkReachable checks the probe invariant: the walk from each entry's
// home slot to the slot holding it crosses no empty slot.
func checkReachable[V any](t *testing.T, tab *Table[V]) {
	t.Helper()
	mask := len(tab.slots) - 1
	n := 0
	for i, s := range tab.slots {
		if !s.full {
			continue
		}
		n++
		for j := int(Hash(s.key)) & mask; j != i; j = (j + 1) & mask {
			if !tab.slots[j].full {
				t.Fatalf("%v in slot %d is cut off from its home slot by empty slot %d", s.key, i, j)
			}
		}
	}
	if n != tab.n {
		t.Fatalf("%d full slots, n = %d", n, tab.n)
	}
}
