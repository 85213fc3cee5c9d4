package workload

import (
	"container/heap"
	"fmt"
	"math/bits"
	"math/rand"
	"time"

	"nvramfs/internal/trace"
)

// Profile describes one synthetic trace to generate.
type Profile struct {
	// Name labels the trace, e.g. "trace1".
	Name string
	// Seed determines all randomness in the trace.
	Seed int64
	// Duration is the simulated length of the trace (24h in the paper).
	Duration time.Duration
	// Scale multiplies all data volumes. 1.0 reproduces paper-scale volumes
	// (~320 MB of application writes on a typical trace, ~2.3 GB on traces
	// 3 and 4); tests use smaller scales for speed.
	Scale float64
	// Actors is the cast of activity generators, assigned to clients.
	Actors []ActorConfig
	// Clients is the number of workstations in the cluster.
	Clients int
}

// Header builds the trace file header for this profile.
func (p Profile) Header() trace.Header {
	d := p.Duration
	if d <= 0 {
		d = 24 * time.Hour
	}
	return trace.Header{Name: p.Name, Clients: p.Clients, Duration: d, Seed: p.Seed}
}

// Kind selects an application behaviour model.
type Kind uint8

// Actor kinds. Each produces a distinct byte-fate signature; the mixture
// determines the trace's lifetime marginals.
const (
	// KindEditor models interactive editing: documents are re-saved
	// (overwritten in place) every few minutes, sometimes fsync'd.
	KindEditor Kind = iota
	// KindBuild models compile/link cycles: temporary files die within
	// seconds, object files are deleted and recreated each cycle,
	// executables relinked, sources and headers re-read.
	KindBuild
	// KindSim models a long-running simulation streaming large outputs
	// that are consumed and deleted within tens of minutes (traces 3-4).
	KindSim
	// KindMail models small mailbox appends and news reading.
	KindMail
	// KindShared models producer/consumer sharing across two clients: the
	// server recalls the producer's dirty bytes when the consumer opens
	// the file ("called back" traffic).
	KindShared
	// KindConcurrent models simultaneous write-sharing of one file by two
	// clients, which disables caching for the file.
	KindConcurrent
	// KindLog models append-only long-lived data that survives the trace.
	KindLog
	// KindMigrate models process migration: the migrating client's dirty
	// data is flushed to the server.
	KindMigrate
)

var kindNames = map[Kind]string{
	KindEditor:     "editor",
	KindBuild:      "build",
	KindSim:        "sim",
	KindMail:       "mail",
	KindShared:     "shared",
	KindConcurrent: "concurrent",
	KindLog:        "log",
	KindMigrate:    "migrate",
}

func (k Kind) String() string {
	if s, ok := kindNames[k]; ok {
		return s
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// ActorConfig instantiates one actor on a client.
type ActorConfig struct {
	Kind   Kind
	Client uint32
	// Peer is the second client for Shared and Concurrent actors.
	Peer uint32
	// Intensity scales this actor's data volume (1.0 = nominal).
	Intensity float64
}

// Cursor streams the trace described by a Profile one event at a time,
// implementing trace.EventSource. Actors are stepped lazily through the
// scheduling heap; each step may emit a burst of events spanning simulated
// time (a compile writing temporaries that are deleted seconds later), so
// emitted events wait in a pending queue (a min-heap of (time, emission
// sequence) keys over a slab of events) and are released only once no
// un-stepped actor could produce an earlier one. Every behavior emits at
// or after its step time, so the release point is the scheduling heap's
// minimum. The keys are unique, so the queue releases events in exactly
// the order that generating everything and stably sorting by timestamp
// would, while the pending set stays bounded by the actors' burst
// lookahead (about 150 events on average and under a thousand at most on
// the standard traces) instead of the whole trace.
type Cursor struct {
	g     *generator
	queue actorQueue
	count int64
	err   error
}

// NewCursor prepares a streaming generation of the trace described by p.
func NewCursor(p Profile) *Cursor {
	if p.Scale <= 0 {
		p.Scale = 1.0
	}
	if p.Duration <= 0 {
		p.Duration = 24 * time.Hour
	}
	g := &generator{
		horizon: int64(p.Duration / time.Microsecond),
		nextID:  1,
	}
	c := &Cursor{g: g}
	base := rand.New(rand.NewSource(p.Seed))
	for i, ac := range p.Actors {
		if ac.Intensity <= 0 {
			ac.Intensity = 1.0
		}
		rng := rand.New(rand.NewSource(base.Int63() + int64(i)))
		a := newActor(ac, p.Scale, rng, g)
		// Stagger actor start times through the first hour so activity
		// doesn't arrive in lockstep.
		a.when = rng.Int63n(int64(time.Hour / time.Microsecond))
		heap.Push(&c.queue, a)
	}
	return c
}

// Count returns the number of events delivered so far.
func (c *Cursor) Count() int64 { return c.count }

// Next implements trace.EventSource.
func (c *Cursor) Next() (trace.Event, bool, error) {
	if c.err != nil {
		return trace.Event{}, false, c.err
	}
	for {
		// Release the earliest pending event once no future actor step can
		// emit before it. Steps emit at or after their scheduled time and
		// the queue pops in non-decreasing time order, so any event emitted
		// later carries a later (or equal, with a larger sequence number —
		// i.e. stably after) timestamp than the queue's minimum.
		if pq := &c.g.pending; len(pq.keys) > 0 &&
			(c.queue.Len() == 0 || pq.keys[0].time <= c.queue[0].when) {
			e := c.g.pending.pop()
			c.count++
			return e, true, nil
		}
		if c.queue.Len() == 0 {
			return trace.Event{}, false, nil
		}
		a := heap.Pop(&c.queue).(*actor)
		if a.when >= c.g.horizon {
			continue
		}
		prev := a.when
		if err := a.behavior.step(a, a.when); err != nil {
			c.err = err
			return trace.Event{}, false, c.err
		}
		if a.when <= prev {
			c.err = fmt.Errorf("workload: %v actor did not advance time", a.cfg.Kind)
			return trace.Event{}, false, c.err
		}
		if a.when < c.g.horizon {
			heap.Push(&c.queue, a)
		}
	}
}

// Generate synthesizes the trace described by p and hands every event, in
// time order, to emit. It returns the total number of events generated.
func Generate(p Profile, emit func(trace.Event) error) (int64, error) {
	c := NewCursor(p)
	for {
		e, ok, err := c.Next()
		if err != nil {
			return 0, err
		}
		if !ok {
			return c.count, nil
		}
		if err := emit(e); err != nil {
			return 0, err
		}
	}
}

// generator carries shared state for one trace synthesis run.
type generator struct {
	pending pendingQueue
	horizon int64 // trace end, microseconds
	nextID  uint64
	seq     uint64 // emission sequence, the stable-sort tiebreak
}

// newFile allocates a cluster-wide file id.
func (g *generator) newFile() uint64 {
	id := g.nextID
	g.nextID++
	return id
}

// add buffers one event, dropping events at or past the trace horizon.
func (g *generator) add(e trace.Event) {
	if e.Time >= g.horizon {
		return
	}
	g.pending.push(e, g.seq)
	g.seq++
}

// slotBits is the width of a pending key's slab slot; the emission
// sequence takes the 40 bits above it, room for 2^40 events per trace.
const slotBits = 24

// pendingKey orders one pending event by (time, emission sequence). The
// sequence sits in tag's high bits and the event's slab slot in its low
// slotBits; sequences are unique, so the slot never decides an order,
// it only says where the event waits.
type pendingKey struct {
	time int64
	tag  uint64
}

// before is 1 when k orders before o and 0 otherwise: the borrow out of
// the 128-bit subtraction (k.time, k.tag) - (o.time, o.tag). Event times
// are never negative, so comparing them unsigned is exact.
func (k pendingKey) before(o pendingKey) int {
	_, borrow := bits.Sub64(k.tag, o.tag, 0)
	_, borrow = bits.Sub64(uint64(k.time), uint64(o.time), borrow)
	return int(borrow)
}

// pendingQueue holds the emitted-but-undelivered events: the events in a
// slab whose freed slots a free list hands out again, and a binary
// min-heap of their 16-byte keys. A sift moves keys, not events, and
// moves a hole instead of swapping.
type pendingQueue struct {
	keys []pendingKey
	slab []trace.Event
	free []uint32
}

// push adds e, emitted seq-th, and sifts its key up.
func (q *pendingQueue) push(e trace.Event, seq uint64) {
	var slot uint32
	if n := len(q.free); n > 0 {
		slot = q.free[n-1]
		q.free = q.free[:n-1]
		q.slab[slot] = e
	} else {
		if len(q.slab) == 1<<slotBits {
			panic("workload: more than 2^24 events pending")
		}
		slot = uint32(len(q.slab))
		q.slab = append(q.slab, e)
	}
	k := pendingKey{time: e.Time, tag: seq<<slotBits | uint64(slot)}
	h := append(q.keys, k)
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) / 2
		if k.before(h[p]) == 0 {
			break
		}
		h[i] = h[p]
		i = p
	}
	h[i] = k
	q.keys = h
}

// pop removes and returns the earliest event; the queue must not be
// empty. The hole at the root walks down to a leaf along the smaller
// child, chosen by the compare's borrow rather than a branch, and the
// last key sifts up from there. The last key is among the largest, so
// that climb is short, and the walk down needs one compare per level
// instead of two.
func (q *pendingQueue) pop() trace.Event {
	h := q.keys
	slot := uint32(h[0].tag & (1<<slotBits - 1))
	n := len(h) - 1
	last := h[n]
	i := 0
	for j := 1; j+1 < n; j = 2*i + 1 {
		j += h[j+1].before(h[j])
		h[i] = h[j]
		i = j
	}
	if j := 2*i + 1; j < n {
		h[i] = h[j]
		i = j
	}
	for i > 0 {
		p := (i - 1) / 2
		if last.before(h[p]) == 0 {
			break
		}
		h[i] = h[p]
		i = p
	}
	h[i] = last
	q.keys = h[:n]
	q.free = append(q.free, slot)
	return q.slab[slot]
}

// actorQueue is a min-heap of actors ordered by next action time.
type actorQueue []*actor

func (q actorQueue) Len() int            { return len(q) }
func (q actorQueue) Less(i, j int) bool  { return q[i].when < q[j].when }
func (q actorQueue) Swap(i, j int)       { q[i], q[j] = q[j], q[i] }
func (q *actorQueue) Push(x interface{}) { *q = append(*q, x.(*actor)) }
func (q *actorQueue) Pop() interface{} {
	old := *q
	n := len(old)
	a := old[n-1]
	*q = old[:n-1]
	return a
}
