package workload

import (
	"fmt"
	"math/bits"
	"math/rand"
	"slices"
	"time"

	"nvramfs/internal/heapq"
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
// emitted events wait in a pending queue and are released only once no
// un-stepped actor could produce an earlier one. Every behavior emits at
// or after its step time, so the release point is the scheduling heap's
// minimum. The queue holds the pending events as sorted runs, maximal
// stretches of consecutive emissions whose times do not decrease, under a
// min-heap of the runs' heads (about 8 runs on average and 27 at most on
// the standard traces, where the runs average about 45 events). Each run
// is sorted by (time, emission sequence) and those keys are unique, so
// the smallest head is the earliest pending event, and the queue releases
// events in exactly the order that generating everything and stably
// sorting by timestamp would, while the pending set stays bounded by the
// actors' burst lookahead (about 150 events on average and under a
// thousand at most) instead of the whole trace.
type Cursor struct {
	g     *generator
	queue heapq.Heap[*actor, actorOrder]
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
		c.queue.Push(a)
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
		// Release the earliest pending event, the top run's head, once no
		// future actor step can emit before it. Steps emit at or after
		// their scheduled time and the queue pops in non-decreasing time
		// order, so any event emitted later carries a later (or equal, with
		// a larger sequence number — i.e. stably after) timestamp than the
		// queue's minimum.
		if pq := &c.g.pending; len(pq.keys) > 0 &&
			(len(c.queue) == 0 || pq.keys[0].time <= c.queue[0].when) {
			e := c.g.pending.pop()
			c.count++
			return e, true, nil
		}
		if len(c.queue) == 0 {
			return trace.Event{}, false, nil
		}
		a := c.queue.Pop()
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
			c.queue.Push(a)
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

// slotBits is the width of a run key's run slot; the emission sequence
// takes the 40 bits above it, room for 2^40 events per trace.
const slotBits = 24

// runKey orders one run by its head event's time and then by the
// emission sequence of the run's first event. Runs hold disjoint
// stretches of the emission order, so that sequence orders a head
// against every other run's events just as the head's own sequence
// would, and a key changes only its time as the run drains. The
// sequence sits in tag's high bits and the run's slot in its low
// slotBits; sequences are unique, so the slot never decides an order,
// it only says which run the head belongs to.
type runKey struct {
	time int64
	tag  uint64
}

// before is 1 when k orders before o and 0 otherwise: the borrow out of
// the 128-bit subtraction (k.time, k.tag) - (o.time, o.tag). Event times
// are never negative, so comparing them unsigned is exact.
func (k runKey) before(o runKey) int {
	_, borrow := bits.Sub64(k.tag, o.tag, 0)
	_, borrow = bits.Sub64(uint64(k.time), uint64(o.time), borrow)
	return int(borrow)
}

// run is a maximal stretch of consecutive emissions whose times do not
// decrease; slab[head:end] is still waiting.
type run struct {
	head, end int
}

// pendingQueue holds the emitted-but-undelivered events as sorted runs
// and a binary min-heap of the runs' head keys. An actor step emits its
// burst mostly in time order, so a push usually extends the open run
// (the one the last push went to) without touching the heap, and the
// heap holds a few runs (about 8 on the standard traces) where a heap of
// events would hold about 150. Every push appends to one slab, so each
// run is an index range of it and the open run ends at the slab's end;
// a full slab is compacted in place while at most half of it waits, so
// the steady state allocates nothing and the slab stays within a small
// multiple of the largest pending set.
type pendingQueue struct {
	keys  []runKey
	runs  []run
	free  []uint32 // slots of drained runs
	open  uint32   // 1 + the open run's slot; 0 once it has drained
	slab  []trace.Event
	order []uint32 // compact's scratch
}

// push adds e, emitted seq-th; seq must exceed every earlier push's. It
// extends the open run when e is not earlier than that run's last event,
// the slab's last, and opens a new run otherwise.
func (q *pendingQueue) push(e trace.Event, seq uint64) {
	if len(q.slab) == cap(q.slab) {
		q.compact()
	}
	if q.open > 0 && e.Time >= q.slab[len(q.slab)-1].Time {
		q.slab = append(q.slab, e)
		q.runs[q.open-1].end++
		return
	}
	var slot uint32
	if n := len(q.free); n > 0 {
		slot = q.free[n-1]
		q.free = q.free[:n-1]
	} else {
		if len(q.runs) == 1<<slotBits {
			panic("workload: more than 2^24 runs pending")
		}
		slot = uint32(len(q.runs))
		q.runs = append(q.runs, run{})
	}
	q.runs[slot] = run{head: len(q.slab), end: len(q.slab) + 1}
	q.slab = append(q.slab, e)
	q.open = slot + 1
	k := runKey{time: e.Time, tag: seq<<slotBits | uint64(slot)}
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

// compact moves every run's waiting events to the front of the full
// slab when at most half of it waits; otherwise the caller's append
// grows it. Runs are disjoint ranges laid out in the order they were
// opened, so moving them down in that order never overwrites an event
// still to be moved, and the open run stays last.
func (q *pendingQueue) compact() {
	q.order = q.order[:0]
	waiting := 0
	for _, k := range q.keys {
		slot := uint32(k.tag & (1<<slotBits - 1))
		q.order = append(q.order, slot)
		waiting += q.runs[slot].end - q.runs[slot].head
	}
	if 2*waiting > len(q.slab) {
		return
	}
	slices.SortFunc(q.order, func(a, b uint32) int { return q.runs[a].head - q.runs[b].head })
	to := 0
	for _, slot := range q.order {
		r := &q.runs[slot]
		n := copy(q.slab[to:], q.slab[r.head:r.end])
		r.head, r.end = to, to+n
		to += n
	}
	q.slab = q.slab[:to]
}

// pop removes and returns the earliest event; the queue must not be
// empty. Each run is sorted by (time, sequence), so the earliest event
// is the head of the top run. The run's next event's time goes into its
// key, which sifts down; a drained run's key is replaced by the last key
// instead, and its slot is freed.
func (q *pendingQueue) pop() trace.Event {
	h := q.keys
	k := h[0]
	slot := uint32(k.tag & (1<<slotBits - 1))
	r := &q.runs[slot]
	e := q.slab[r.head]
	r.head++
	n := len(h)
	if r.head < r.end {
		k.time = q.slab[r.head].Time
	} else {
		q.free = append(q.free, slot)
		if slot+1 == q.open {
			q.open = 0
		}
		n--
		k = h[n]
	}
	i := 0
	for j := 1; j < n; j = 2*i + 1 {
		if j+1 < n {
			j += h[j+1].before(h[j])
		}
		if h[j].before(k) == 0 {
			break
		}
		h[i] = h[j]
		i = j
	}
	if n > 0 {
		h[i] = k
	}
	q.keys = h[:n]
	return e
}

// actorOrder orders the scheduling heap by next action time.
type actorOrder struct{}

func (actorOrder) Less(a, b *actor) bool { return a.when < b.when }
func (actorOrder) Moved(*actor, int)     {}
