package workload

// Population-scale synthesis: FleetCursor streams a trace for O(10k-1M)
// clients without ever materializing the population. The trick is the
// session-slot scheduler: only MaxActive clients are ever active at once,
// so the generator keeps per-*slot* state (a handful of words) and
// derives each client's behaviour on demand from a per-client seed. A
// slot runs back-to-back sessions; session r on slot i belongs to client
// i + r*MaxActive, so over the trace every client logs in exactly once.
// A session creates a few private "home" files, works on them, touches
// the long-lived shared pool (the source of cross-client invalidation
// storms), deletes its home files, and logs out with a flush — so live
// file state is bounded by the active sessions plus the shared pool, and
// peak heap is a function of MaxActive, not Clients.

import (
	"container/heap"
	"fmt"
	"math/rand"
	"time"

	"nvramfs/internal/trace"
)

// FleetProfile describes a population-scale synthetic trace.
type FleetProfile struct {
	// Name labels the trace.
	Name string
	// Seed determines all randomness.
	Seed int64
	// Duration is the simulated length; default 24h.
	Duration time.Duration
	// Clients is the population size (each client runs one session).
	Clients int
	// MaxActive bounds concurrently active sessions (and so the
	// generator's live state); default 512, clamped to Clients.
	MaxActive int
	// SharedFiles sizes the long-lived shared pool every session touches;
	// default 64.
	SharedFiles int
	// SessionOps is the nominal number of shared-pool interactions per
	// session; default 16.
	SessionOps int
	// Scale multiplies per-session data volumes; default 1.0.
	Scale float64
}

func (p *FleetProfile) fillDefaults() error {
	if p.Clients <= 0 {
		return fmt.Errorf("workload: fleet profile needs >= 1 client, got %d", p.Clients)
	}
	if p.Duration <= 0 {
		p.Duration = 24 * time.Hour
	}
	if p.MaxActive <= 0 {
		p.MaxActive = 512
	}
	if p.MaxActive > p.Clients {
		p.MaxActive = p.Clients
	}
	if p.SharedFiles <= 0 {
		p.SharedFiles = 64
	}
	if p.SessionOps <= 0 {
		p.SessionOps = 16
	}
	if p.Scale <= 0 {
		p.Scale = 1.0
	}
	return nil
}

// Header builds the trace header for this profile.
func (p FleetProfile) Header() trace.Header {
	d := p.Duration
	if d <= 0 {
		d = 24 * time.Hour
	}
	return trace.Header{Name: p.Name, Clients: p.Clients, Duration: d, Seed: p.Seed}
}

// fleetSlot is one session lane: the only per-concurrency state the
// cursor keeps. when is the next session's start time.
type fleetSlot struct {
	idx   int
	round int
	when  int64
}

// slotQueue is a min-heap of slots by next session start; ties break by
// slot index so the replay order is a pure function of the profile.
type slotQueue []*fleetSlot

func (q slotQueue) Len() int { return len(q) }
func (q slotQueue) Less(i, j int) bool {
	if q[i].when != q[j].when {
		return q[i].when < q[j].when
	}
	return q[i].idx < q[j].idx
}
func (q slotQueue) Swap(i, j int)       { q[i], q[j] = q[j], q[i] }
func (q *slotQueue) Push(x interface{}) { *q = append(*q, x.(*fleetSlot)) }
func (q *slotQueue) Pop() interface{} {
	old := *q
	n := len(old)
	s := old[n-1]
	*q = old[:n-1]
	return s
}

// FleetCursor streams the trace described by a FleetProfile, implementing
// trace.EventSource with the same release discipline as Cursor: a pending
// event is delivered once no un-stepped slot can emit an earlier one, so
// the stream is time-ordered and the pending buffer is bounded by the
// overlap of MaxActive session bursts.
type FleetCursor struct {
	g          *generator
	p          FleetProfile
	slots      slotQueue
	shared     []uint64
	sessionLen int64
	rounds     int
	count      int64
	err        error
}

// NewFleetCursor prepares a streaming generation of p's trace.
func NewFleetCursor(p FleetProfile) (*FleetCursor, error) {
	if err := p.fillDefaults(); err != nil {
		return nil, err
	}
	g := &generator{
		horizon: int64(p.Duration / time.Microsecond),
		nextID:  1,
	}
	c := &FleetCursor{g: g, p: p}
	c.shared = make([]uint64, p.SharedFiles)
	for i := range c.shared {
		c.shared[i] = g.newFile()
	}
	c.rounds = (p.Clients + p.MaxActive - 1) / p.MaxActive
	c.sessionLen = g.horizon / int64(c.rounds)
	if c.sessionLen < 1 {
		return nil, fmt.Errorf("workload: %v over %d clients leaves sessions under 1µs; lengthen the trace or raise MaxActive",
			p.Duration, p.Clients)
	}
	// Stagger slot phases through the first quarter-session so session
	// boundaries don't arrive in lockstep across the whole fleet.
	phase := rand.New(rand.NewSource(p.Seed))
	for i := 0; i < p.MaxActive; i++ {
		s := &fleetSlot{idx: i, when: phase.Int63n(c.sessionLen/4 + 1)}
		heap.Push(&c.slots, s)
	}
	return c, nil
}

// Count returns the number of events delivered so far.
func (c *FleetCursor) Count() int64 { return c.count }

// Next implements trace.EventSource.
func (c *FleetCursor) Next() (trace.Event, bool, error) {
	if c.err != nil {
		return trace.Event{}, false, c.err
	}
	for {
		if len(c.g.pending) > 0 &&
			(c.slots.Len() == 0 || c.g.pending[0].e.Time <= c.slots[0].when) {
			e := c.g.pending.pop().e
			c.count++
			return e, true, nil
		}
		if c.slots.Len() == 0 {
			return trace.Event{}, false, nil
		}
		s := heap.Pop(&c.slots).(*fleetSlot)
		if s.when >= c.g.horizon {
			continue
		}
		client := s.idx + s.round*c.p.MaxActive
		if client < c.p.Clients {
			c.emitSession(uint32(client), s.when)
		}
		s.round++
		s.when += c.sessionLen
		if s.round < c.rounds && s.when < c.g.horizon {
			heap.Push(&c.slots, s)
		}
	}
}

// fleetSeed derives the per-client seed: a splitmix64 finalize of the
// profile seed and the client id, so a client's session script depends
// only on (Seed, client) — not on MaxActive or scheduling order.
func fleetSeed(seed int64, client uint32) int64 {
	x := uint64(seed) ^ (uint64(client)+1)*0x9e3779b97f4a7c15
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return int64(x)
}

// emitSession generates one client's whole session burst into the pending
// heap: login, home-file work interleaved with shared-pool traffic, home
// teardown, logout flush. All event times lie in [start, start+sessionLen).
func (c *FleetCursor) emitSession(client uint32, start int64) {
	rng := rand.New(rand.NewSource(fleetSeed(c.p.Seed, client)))
	end := start + c.sessionLen
	// The slot phase stagger can push a final-round session past the
	// horizon, where the generator drops events — which would silently
	// drop the teardown and logout this design depends on (an unretired
	// client leaks consistency state for the rest of the run). Clamp the
	// session into the trace instead.
	if end > c.g.horizon {
		end = c.g.horizon
	}
	// Reserve the tail for teardown.
	workEnd := end - (end-start)/8 - 2
	if workEnd <= start {
		workEnd = start + 1
	}
	if workEnd >= end {
		workEnd = end - 1
	}

	nHome := 1 + rng.Intn(3)
	home := make([]uint64, nHome)
	t := start
	tick := func(max int64) {
		if t < max-1 {
			t += 1 + rng.Int63n((max-t)/4+1)
			if t >= max {
				t = max - 1
			}
		}
	}
	write := func(f uint64, off, n int64) {
		c.g.add(trace.Event{Time: t, Client: client, Op: trace.OpWrite, File: f, Offset: off, Length: n})
	}

	// Login: create home files and write their initial contents.
	sizes := make([]int64, nHome)
	for i := range home {
		home[i] = c.g.newFile()
		c.g.add(trace.Event{Time: t, Client: client, Op: trace.OpOpen, File: home[i], Flags: trace.FlagWrite})
		size := int64(c.p.Scale * float64(8<<10+rng.Intn(56<<10)))
		if size < 1 {
			size = 1
		}
		sizes[i] = size
		for off := int64(0); off < size; off += 16 << 10 {
			n := size - off
			if n > 16<<10 {
				n = 16 << 10
			}
			write(home[i], off, n)
		}
		c.g.add(trace.Event{Time: t, Client: client, Op: trace.OpClose, File: home[i]})
		tick(workEnd)
	}

	// Work phase: shared-pool interactions interleaved with home-file
	// re-saves. Reads dominate the pool (that is what grows the up-to-date
	// sets); the occasional pool write is the storm trigger.
	for j := 0; j < c.p.SessionOps && t < workEnd; j++ {
		sf := c.shared[rng.Intn(len(c.shared))]
		switch {
		case rng.Float64() < 0.12:
			// Pool write: invalidates every reader's cached copy.
			c.g.add(trace.Event{Time: t, Client: client, Op: trace.OpOpen, File: sf, Flags: trace.FlagWrite})
			write(sf, 0, 4<<10)
			c.g.add(trace.Event{Time: t, Client: client, Op: trace.OpClose, File: sf})
		default:
			c.g.add(trace.Event{Time: t, Client: client, Op: trace.OpOpen, File: sf, Flags: trace.FlagRead})
			c.g.add(trace.Event{Time: t, Client: client, Op: trace.OpRead, File: sf, Offset: 0, Length: 16 << 10})
			c.g.add(trace.Event{Time: t, Client: client, Op: trace.OpClose, File: sf})
		}
		if rng.Float64() < 0.3 {
			// Re-save a home file in place; sometimes force it durable.
			i := rng.Intn(nHome)
			c.g.add(trace.Event{Time: t, Client: client, Op: trace.OpOpen, File: home[i], Flags: trace.FlagWrite})
			write(home[i], 0, sizes[i])
			if rng.Float64() < 0.25 {
				c.g.add(trace.Event{Time: t, Client: client, Op: trace.OpFsync, File: home[i]})
			}
			c.g.add(trace.Event{Time: t, Client: client, Op: trace.OpClose, File: home[i]})
		}
		tick(workEnd)
	}

	// Teardown: all home files die, so the live-file footprint of this
	// session is gone before the next round's client arrives.
	t = workEnd
	for _, f := range home {
		c.g.add(trace.Event{Time: t, Client: client, Op: trace.OpDelete, File: f})
	}
	// Logout flush: a self-migration, Sprite's "flush everything this
	// client holds dirty" signal, so the consistency servers can retire
	// the client's tracking state.
	if t+1 < end {
		t++
	}
	c.g.add(trace.Event{Time: t, Client: client, Op: trace.OpMigrate, Target: client})
}
