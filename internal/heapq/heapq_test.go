package heapq

import (
	"container/heap"
	"testing"
)

// item is a heap element that records its index through Moved. Keys are
// drawn from a small range so most operations meet ties, and the id tells
// equal keys apart, so a different tie order shows as a different array.
type item struct {
	key, id, idx int
}

type itemOrder struct{}

func (itemOrder) Less(a, b *item) bool { return a.key < b.key }
func (itemOrder) Moved(x *item, i int) { x.idx = i }

// refHeap is the same elements under container/heap.
type refHeap []item

func (h refHeap) Len() int           { return len(h) }
func (h refHeap) Less(i, j int) bool { return h[i].key < h[j].key }
func (h refHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *refHeap) Push(x any)        { *h = append(*h, x.(item)) }
func (h *refHeap) Pop() any {
	old := *h
	x := old[len(old)-1]
	*h = old[:len(old)-1]
	return x
}

// FuzzHeapMatchesContainerHeap decodes bytes into Push, Pop, Fix and
// Remove and requires, after every operation, that the heap's array equals
// container/heap's element for element (so ties resolve identically) and
// that Moved left every element's recorded index at its position.
func FuzzHeapMatchesContainerHeap(f *testing.F) {
	f.Add([]byte{0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 1, 0})
	f.Add([]byte{0, 2, 0, 1, 0, 2, 0, 1, 0, 2, 0, 1, 0, 2, 2, 0, 3, 1, 1, 0})
	f.Add([]byte{0, 3, 0, 0, 0, 3, 0, 0, 0, 3, 0, 0, 2, 1, 3, 6, 0, 3, 1, 3, 2})
	f.Fuzz(func(t *testing.T, ops []byte) {
		var h Heap[*item, itemOrder]
		var ref refHeap
		next := func() int {
			if len(ops) == 0 {
				return 0
			}
			b := ops[0]
			ops = ops[1:]
			return int(b)
		}
		for id := 0; len(ops) > 0; id++ {
			switch op := next() % 4; {
			case op == 0: // push
				k := next() % 4
				h.Push(&item{key: k, id: id})
				heap.Push(&ref, item{key: k, id: id})
			case len(h) == 0:
				continue
			case op == 1: // pop
				got, want := h.Pop(), heap.Pop(&ref).(item)
				if got.id != want.id {
					t.Fatalf("op %d: Pop = id %d, container/heap pops id %d", id, got.id, want.id)
				}
			case op == 2: // fix
				i, k := next()%len(h), next()%4
				h[i].key, ref[i].key = k, k
				h.Fix(i)
				heap.Fix(&ref, i)
			case op == 3: // remove
				i := next() % len(h)
				got, want := h.Remove(i), heap.Remove(&ref, i).(item)
				if got.id != want.id {
					t.Fatalf("op %d: Remove(%d) = id %d, container/heap removes id %d", id, i, got.id, want.id)
				}
			}
			if len(h) != len(ref) {
				t.Fatalf("op %d: %d elements, container/heap has %d", id, len(h), len(ref))
			}
			for i, x := range h {
				if x.id != ref[i].id || x.key != ref[i].key {
					t.Fatalf("op %d: slot %d holds id %d key %d, container/heap id %d key %d", id, i, x.id, x.key, ref[i].id, ref[i].key)
				}
				if x.idx != i {
					t.Fatalf("op %d: id %d at slot %d recorded index %d", id, x.id, i, x.idx)
				}
			}
		}
	})
}

type intOrder struct{}

func (intOrder) Less(a, b int64) bool { return a < b }
func (intOrder) Moved(int64, int)     {}

// TestPushPopAllocs holds a steady-state Push and Pop to no allocation:
// the element is stored unboxed, and the slice reuses its capacity.
func TestPushPopAllocs(t *testing.T) {
	var h Heap[int64, intOrder]
	for i := int64(0); i < 1024; i++ {
		h.Push(i * 7 % 1024)
	}
	now := int64(1024)
	allocs := testing.AllocsPerRun(1000, func() {
		h.Push(now)
		h.Pop()
		now++
	})
	if allocs != 0 {
		t.Fatalf("Push+Pop allocates %.1f times per call, want 0", allocs)
	}
}
