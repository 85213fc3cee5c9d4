package workload

import (
	"container/heap"
	"fmt"
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
// emitted events wait in a small pending heap ordered by (time, emission
// sequence) and are released only once no un-stepped actor could produce
// an earlier one. Every behavior emits at or after its step time, so the
// release point is the scheduling heap's minimum: the delivered order is
// byte-identical to generating everything and stably sorting by timestamp,
// while the pending buffer stays bounded by the actors' burst lookahead
// (tens of minutes of simulated time, a few thousand events) instead of
// the whole trace.
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
		if len(c.g.pending) > 0 &&
			(c.queue.Len() == 0 || c.g.pending[0].e.Time <= c.queue[0].when) {
			e := c.g.pending.pop().e
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
	pending eventHeap
	horizon int64 // trace end, microseconds
	nextID  uint64
	seq     int64 // emission sequence, the stable-sort tiebreak
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
	g.pending.push(pendingEvent{e: e, seq: g.seq})
	g.seq++
}

// pendingEvent is an emitted-but-undelivered event; seq preserves emission
// order among equal timestamps, exactly as a stable sort would.
type pendingEvent struct {
	e   trace.Event
	seq int64
}

// eventHeap is a min-heap of pending events by (time, emission sequence).
// Its typed push and pop sift exactly as container/heap does, without
// boxing each event into an interface; (time, seq) keys are unique, so the
// pop order is the key order whatever the sift.
type eventHeap []pendingEvent

func (h eventHeap) less(i, j int) bool {
	if h[i].e.Time != h[j].e.Time {
		return h[i].e.Time < h[j].e.Time
	}
	return h[i].seq < h[j].seq
}

// push adds e and sifts it up.
func (h *eventHeap) push(e pendingEvent) {
	*h = append(*h, e)
	s := *h
	for j := len(s) - 1; j > 0; {
		i := (j - 1) / 2 // parent
		if !s.less(j, i) {
			break
		}
		s[i], s[j] = s[j], s[i]
		j = i
	}
}

// pop removes and returns the minimum: the last element replaces the
// root and sifts down, as in container/heap.Pop.
func (h *eventHeap) pop() pendingEvent {
	s := *h
	n := len(s) - 1
	s[0], s[n] = s[n], s[0]
	for i := 0; ; {
		j := 2*i + 1 // left child
		if j >= n {
			break
		}
		if r := j + 1; r < n && s.less(r, j) {
			j = r
		}
		if !s.less(j, i) {
			break
		}
		s[i], s[j] = s[j], s[i]
		i = j
	}
	e := s[n]
	*h = s[:n]
	return e
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
