package lfs

import (
	"container/heap"
	"slices"
	"strings"
	"testing"
	"time"
)

// ageRef is the reference age queue: container/heap under the same order.
type ageRef []ageEntry

func (h ageRef) Len() int           { return len(h) }
func (h ageRef) Less(i, j int) bool { return compareAgeEntries(h[i], h[j]) < 0 }
func (h ageRef) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *ageRef) Push(x any)        { *h = append(*h, x.(ageEntry)) }
func (h *ageRef) Pop() any {
	old := *h
	e := old[len(old)-1]
	*h = old[:len(old)-1]
	return e
}

// FuzzAgeQueueMatchesHeap decodes its input into age-queue operations —
// pushes at a clock that mostly moves forward but may stand still or be
// backdated, over few enough blocks that same-instant lower ids and exact
// duplicates are common; taking every entry up to a cutoff time, as the
// age flush does; taking the first n, as a full-segment drain does; and
// taking them all, as fsync does — and runs each against container/heap.
// After every operation the entries taken must equal the reference's pop
// sequence element for element, and the queue must hold as many entries.
func FuzzAgeQueueMatchesHeap(f *testing.F) {
	f.Add([]byte{0, 1, 2, 0, 1, 1, 0, 0, 3, 1, 2, 0, 0, 5, 2, 3, 3, 0})
	f.Add([]byte{0, 9, 7, 0, 0, 3, 0, 0, 3, 0, 4, 7, 2, 1, 0, 1, 6, 0, 3, 0, 0})
	f.Add([]byte{0, 2, 200, 0, 1, 130, 0, 0, 140, 0, 3, 5, 1, 1, 0, 0, 2, 1, 2, 2, 0, 1, 9, 0})
	f.Fuzz(func(t *testing.T, ops []byte) {
		var q ageQueue
		var ref ageRef
		var clock int64
		for step := 0; step+2 < len(ops); step += 3 {
			a, b := ops[step+1], ops[step+2]
			var got, want []ageEntry
			switch ops[step] % 4 {
			case 0: // push; b's top bit backdates, its low bits advance the clock
				at := clock
				if b&0x80 != 0 {
					at -= int64(b & 0x7f)
				} else {
					clock += int64(b % 4)
					at = clock
				}
				e := ageEntry{at: at, id: blockID{File: uint64(a % 3), Index: int64(a / 3 % 4)}}
				q.push(e)
				heap.Push(&ref, e)
			case 1: // take up to a cutoff time
				cutoff := clock - int64(a%8)
				s := q.entries()
				i := 0
				for i < len(s) && s[i].at <= cutoff {
					i++
				}
				got = slices.Clone(s[:i])
				q.drop(i)
				for ref.Len() > 0 && ref[0].at <= cutoff {
					want = append(want, heap.Pop(&ref).(ageEntry))
				}
			case 2: // take the first n
				s := q.entries()
				n := min(int(a%8), len(s))
				got = slices.Clone(s[:n])
				q.drop(n)
				for range min(int(a%8), ref.Len()) {
					want = append(want, heap.Pop(&ref).(ageEntry))
				}
			case 3: // take all
				s := q.entries()
				got = slices.Clone(s)
				q.drop(len(s))
				for ref.Len() > 0 {
					want = append(want, heap.Pop(&ref).(ageEntry))
				}
			}
			if !slices.Equal(got, want) {
				t.Fatalf("step %d: took %v; container/heap popped %v", step, got, want)
			}
			if n := len(q.q) - q.head; n != ref.Len() {
				t.Fatalf("step %d: queue holds %d entries, reference %d", step, n, ref.Len())
			}
		}
	})
}

// TestDrainWithoutProgressPanics corrupts the dirty count so that the
// full-segment drain finds nothing to take, and requires a panic naming
// the file system rather than a drain loop that never ends.
func TestDrainWithoutProgressPanics(t *testing.T) {
	fs := newFS(t, Config{Name: "/corrupt"})
	fs.Write(0, 1, 0, 4*kb)
	fs.blocks.dirty += fs.Config().BlocksPerSegment()
	done := make(chan any, 1)
	go func() {
		defer func() { done <- recover() }()
		fs.drainFullSegments()
	}()
	select {
	case r := <-done:
		msg, _ := r.(string)
		if !strings.Contains(msg, "/corrupt") || !strings.Contains(msg, "took no block") {
			t.Fatalf("drain without progress recovered %v; want a panic naming the file system", r)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("drain without progress did not panic within 10 s")
	}
}
