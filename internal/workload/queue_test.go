package workload

import (
	"sort"
	"testing"

	"nvramfs/internal/trace"
)

// FuzzPendingQueue drives the pending queue with interleaved pushes and
// pops decoded from the input and checks every pop against a reference:
// a slice kept stably sorted by time, which is (time, emission sequence)
// order. Each byte is one step. Its low two bits pick the action: 3 pops
// (skipped while the queue is empty), 2 pushes an event up to 63 µs
// before the previous push (clamped at 0), and 0 or 1 push one up to
// 63 µs after it; the high six bits are the distance, so 0 is a tie.
// Whatever is left pending at the end is drained through the same check.
func FuzzPendingQueue(f *testing.F) {
	const pop = 3
	push := func(up int64) byte { return byte(up << 2) }
	down := func(by int64) byte { return byte(by<<2 | 2) }
	// An open run consumed from its head and then extended: the pushes
	// ascend, a pop takes the first, and the next push lands after the
	// last without a descent.
	f.Add([]byte{push(5), push(1), push(0), pop, push(2), pop, push(0), pop, pop})
	// The open run emptied by pops and then pushed to at the same time
	// and later: the push must not land in the run that just drained.
	f.Add([]byte{push(3), push(1), pop, pop, push(0), push(4), pop, pop})
	// Descents and ties across several runs.
	f.Add([]byte{push(10), push(4), down(9), push(0), down(3), push(20), pop, down(30), pop, push(1), pop})
	// A descent that stays above the open run's head but falls below its
	// last event: it must open a run, not extend that one.
	f.Add([]byte{push(5), push(10), down(5), pop, pop, pop})
	// One long run that never empties: every push extends it and every
	// pop takes its head, so it is consumed far more than it ever holds.
	long := []byte{push(1)}
	for range 200 {
		long = append(long, push(1), pop)
	}
	f.Add(long)

	f.Fuzz(func(t *testing.T, data []byte) {
		var q pendingQueue
		var want []trace.Event
		var seq uint64
		var last int64
		check := func(step int) {
			got := q.pop()
			if got != want[0] {
				t.Fatalf("step %d: popped %+v, want %+v", step, got, want[0])
			}
			want = want[1:]
		}
		for i, b := range data {
			if b&3 == pop {
				if len(want) > 0 {
					check(i)
				}
				continue
			}
			d := int64(b >> 2)
			if b&3 == 2 {
				last = max(0, last-d)
			} else {
				last += d
			}
			// File carries the emission sequence, so equal times still
			// tell the events apart.
			e := trace.Event{Time: last, Op: trace.OpFsync, File: seq}
			q.push(e, seq)
			seq++
			at := sort.Search(len(want), func(j int) bool { return want[j].Time > e.Time })
			want = append(want, trace.Event{})
			copy(want[at+1:], want[at:])
			want[at] = e
		}
		for i := len(data); len(want) > 0; i++ {
			check(i)
		}
	})
}
