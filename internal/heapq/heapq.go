// Package heapq is the binary min-heap behind the simulators' priority
// queues: the client cache's block cleaner and the server cache's 30-second
// write-back, the omniscient policy's furthest-next-modify victim, and the
// workload generator's actor schedule.
//
// Heap runs container/heap's algorithm step for step: the same sift loops,
// the same comparisons in the same order, the same swaps. Elements with
// equal keys therefore come out in exactly the order container/heap would
// give them, and that tie order reaches the simulators' outputs (which
// block the cleaner writes back first, which of two equally distant blocks
// the omniscient policy evicts). Unlike container/heap it is generic over
// the element type, so pushing and popping box nothing.
package heapq

// Order is a heap's element order. A heap calls the methods of O's zero
// value, so an order carries no state and the zero Heap is ready to use.
type Order[T any] interface {
	// Less reports whether a pops before b.
	Less(a, b T) bool
	// Moved reports that x now sits at index i: it is called for both
	// elements of every swap and for a pushed element, so an order that
	// stores each element's index can find it again for Fix and Remove.
	// Orders that do not track indexes give it an empty body.
	Moved(x T, i int)
}

// Heap is a min-heap of T under O, stored in the slice itself: h[0] is the
// minimum, and a slice sorted by O is a valid heap.
type Heap[T any, O Order[T]] []T

// Push adds x to the heap.
func (h *Heap[T, O]) Push(x T) {
	var o O
	*h = append(*h, x)
	n := len(*h) - 1
	o.Moved(x, n)
	h.up(n)
}

// Pop removes and returns the minimum. The heap must not be empty.
func (h *Heap[T, O]) Pop() T {
	s := *h
	n := len(s) - 1
	s.swap(0, n)
	s.down(0, n)
	*h = s[:n]
	return s[n]
}

// Fix restores the heap order after the element at index i changed its key.
func (h Heap[T, O]) Fix(i int) {
	if !h.down(i, len(h)) {
		h.up(i)
	}
}

// Remove removes and returns the element at index i.
func (h *Heap[T, O]) Remove(i int) T {
	s := *h
	n := len(s) - 1
	if n != i {
		s.swap(i, n)
		if !s.down(i, n) {
			s.up(i)
		}
	}
	*h = s[:n]
	return s[n]
}

// swap exchanges two elements and reports both moves. The sift loops
// write it out instead of calling it: Go compiles a generic method once
// per GC shape, calls O's methods there through a dictionary, and at that
// cost does not inline swap, so the call was paid on every level.
func (h Heap[T, O]) swap(i, j int) {
	var o O
	h[i], h[j] = h[j], h[i]
	o.Moved(h[i], i)
	o.Moved(h[j], j)
}

func (h Heap[T, O]) up(j int) {
	var o O
	for {
		i := (j - 1) / 2 // parent
		if i == j || !o.Less(h[j], h[i]) {
			break
		}
		h[i], h[j] = h[j], h[i]
		o.Moved(h[i], i)
		o.Moved(h[j], j)
		j = i
	}
}

// down sifts the element at i0 toward the leaves of h[:n] and reports
// whether it moved.
func (h Heap[T, O]) down(i0, n int) bool {
	var o O
	i := i0
	for {
		j1 := 2*i + 1
		if j1 >= n || j1 < 0 { // j1 < 0 after int overflow
			break
		}
		j := j1 // left child
		if j2 := j1 + 1; j2 < n && o.Less(h[j2], h[j1]) {
			j = j2 // right child
		}
		if !o.Less(h[j], h[i]) {
			break
		}
		h[i], h[j] = h[j], h[i]
		o.Moved(h[i], i)
		o.Moved(h[j], j)
		i = j
	}
	return i > i0
}
