package faults

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"time"

	"nvramfs/internal/netmodel"
	"nvramfs/internal/nvram"
)

// Never is the Window end marking an outage the server never recovers
// from (within the trace).
const Never = math.MaxInt64

// Window is a server outage interval [Start, End) in simulated
// microseconds. End == Never means the server stays down.
type Window struct {
	Start, End int64
}

// Profile parameterizes the fault schedule and the retry policy. The zero
// value injects no faults; fillDefaults supplies the retry-policy
// defaults.
type Profile struct {
	// Seed drives every random draw (drops, spikes, jitter). Two runs
	// with equal profiles produce identical schedules.
	Seed int64
	// DropRate is the probability an RPC attempt is lost on the wire.
	DropRate float64
	// AckLossRate is the fraction of drops in which the request reached
	// the server and applied but the acknowledgement was lost — the retry
	// then re-presents the same sequence number and the server detects
	// the replay (consist.Server.DeliverWriteback).
	AckLossRate float64
	// SpikeRate is the probability an attempt's latency is multiplied by
	// SpikeFactor (congestion spike).
	SpikeRate float64
	// SpikeFactor multiplies a spiked attempt's latency; <= 0 selects 8.
	SpikeFactor int64
	// Outages are the server-down windows, sorted by Start.
	Outages []Window
	// MaxAttempts bounds the retry loop, first attempt included; <= 0
	// selects 6. It is always finite so a never-recovering outage cannot
	// loop forever.
	MaxAttempts int
	// BackoffBase is the first retry delay in microseconds, doubled per
	// attempt up to BackoffCap, with seeded jitter in [b/2, b]. <= 0
	// selects 250ms base, 4s cap.
	BackoffBase int64
	BackoffCap  int64
	// Shed switches the volatile organizations' exhaustion semantics from
	// stalling the writer until recovery to dropping the bytes (counted
	// as Stats.LostBytes).
	Shed bool
	// Net overrides the network parameters charged per attempt; nil
	// selects netmodel.DefaultParams.
	Net *netmodel.Params
}

func (p *Profile) fillDefaults() {
	if p.MaxAttempts <= 0 {
		p.MaxAttempts = 6
	}
	if p.BackoffBase <= 0 {
		p.BackoffBase = 250_000
	}
	if p.BackoffCap <= 0 {
		p.BackoffCap = 4_000_000
	}
	if p.BackoffCap < p.BackoffBase {
		p.BackoffCap = p.BackoffBase
	}
	if p.SpikeFactor <= 0 {
		p.SpikeFactor = 8
	}
	if len(p.Outages) > 0 {
		ws := append([]Window(nil), p.Outages...)
		sort.Slice(ws, func(i, j int) bool { return ws[i].Start < ws[j].Start })
		p.Outages = ws
	}
}

// outageAt returns the outage window containing t, if any.
func (p *Profile) outageAt(t int64) (Window, bool) {
	for _, w := range p.Outages {
		if t < w.Start {
			break
		}
		if t < w.End {
			return w, true
		}
	}
	return Window{}, false
}

// Delivery is one run of dirty bytes handed to the fault stage by a cache
// model's write-back.
type Delivery struct {
	Client uint32
	File   uint64
	Start  int64
	End    int64
	// Cause is an opaque tag (cache.Cause) forwarded to the commit
	// callback; the injector never interprets it.
	Cause uint8
	// Stable reports whether the bytes remain NVRAM-resident client-side
	// while the RPC is in flight (see cache.ServerHooks.Write): a stable
	// delivery can park in NVRAM on exhaustion, an unstable one must
	// stall or shed.
	Stable bool
	// Seq is the RPC sequence number the injector stamps before the
	// first attempt; a replay presents the same Seq, which is how the
	// server detects idempotent re-delivery. Callers leave it zero.
	Seq uint64
}

func (d Delivery) bytes() int64 { return d.End - d.Start }

// CommitFunc receives each delivery the instant it applies at the server.
// replay marks a re-presentation the server has already applied (lost
// ack); the receiver must not double-apply it.
type CommitFunc func(now int64, d Delivery, replay bool)

// Stats are the injector's cumulative counters.
type Stats struct {
	Deliveries  int64 // write-backs offered to the fault stage
	Attempts    int64 // RPC attempts, retries included
	Retries     int64 // attempts beyond each delivery's first
	Drops       int64 // attempts lost on the wire
	AckLosses   int64 // drops that applied server-side (ack lost)
	Spikes      int64 // attempts that hit a latency spike
	OutageTries int64 // attempts made while the server was down
	Exhausted   int64 // deliveries whose retry budget ran out

	OfferedBytes     int64 // bytes entering the stage
	CommittedBytes   int64 // bytes applied at the server (counted once)
	ReplayedBytes    int64 // bytes re-presented after a lost ack
	RedeliveredBytes int64 // bytes drained from the pending queue
	LostBytes        int64 // volatile bytes shed on exhaustion (Shed mode)
	PendingBytes     int64 // bytes still undelivered at Close

	// StallUS is simulated writer-stall time: for each exhausted volatile
	// delivery, the span from exhaustion until the server took the bytes
	// (or the trace ended).
	StallUS int64
	// RetryLatencyUS is the extra wire-plus-backoff time retried
	// deliveries paid beyond a clean first attempt.
	RetryLatencyUS int64
	// NVRAMHighWater is the peak of bytes parked in NVRAM awaiting
	// recovery — the headline "availability buffer" number.
	NVRAMHighWater int64
}

// pendingEntry is a delivery parked for later redelivery: an NVRAM-backed
// run awaiting recovery, or a stalled volatile writer's run.
type pendingEntry struct {
	d       Delivery
	readyAt int64 // when the redelivery can go out
	since   int64 // when the retry budget exhausted (stall accounting)
}

// Injector routes write-backs through the fault schedule. Not safe for
// concurrent use; each simulation run owns one.
type Injector struct {
	prof    Profile
	net     netmodel.Params
	rng     *rand.Rand
	commit  CommitFunc
	seq     uint64
	pending []pendingEntry
	// nextReady is the smallest readyAt in pending (Never when empty):
	// Advance has nothing to do before it, and must not walk a backlog
	// parked behind an outage once per delivery to find that out.
	nextReady int64
	// nvPending and volPending are the backlog's bytes by residence,
	// maintained wherever pending changes (PendingBytes).
	nvPending  int64
	volPending int64
	stats      Stats
	// img, when set via AttachImage, durably mirrors the NVRAM-parked
	// backlog (stable entries only) — see durable.go.
	img *nvram.Image
	// clock elapses the schedule: arithmetic for simulations (the
	// default), real sleeps for the daemon (see clock.go).
	clock Clock
	// clockAborts counts deliveries whose retry schedule was cut short by
	// a stopped clock (daemon shutdown); zero under the virtual clock.
	clockAborts int64
	// restoredBytes counts parked bytes re-adopted from a recovered image
	// (RestoreParked); zero in ordinary simulation runs.
	restoredBytes int64
}

// NewInjector builds an injector for one run. commit may be nil when the
// caller only wants the counters.
func NewInjector(prof Profile, commit CommitFunc) *Injector {
	prof.fillDefaults()
	net := netmodel.DefaultParams()
	if prof.Net != nil {
		net = *prof.Net
	}
	return &Injector{
		prof:      prof,
		net:       net,
		rng:       rand.New(rand.NewSource(prof.Seed)),
		commit:    commit,
		clock:     virtualClock{},
		nextReady: Never,
	}
}

// SetClock replaces the injector's clock. The default virtual clock makes
// every Sleep a no-op (pure arithmetic, the simulation path); a WallClock
// makes the injector actually wait out wire times and backoffs, which is
// how the daemon runs the identical retry code against real time. Set it
// before the first Deliver.
func (x *Injector) SetClock(c Clock) {
	if c == nil {
		c = virtualClock{}
	}
	x.clock = c
}

// ClockAborts reports how many deliveries a stopped wall clock cut short
// (their bytes took the degradation path: stable parked, volatile stalled
// or shed). Always zero under the virtual clock.
func (x *Injector) ClockAborts() int64 { return x.clockAborts }

// Stats returns a snapshot of the counters. PendingBytes reflects the
// live pending queue, so mid-run snapshots (the crash harness) see the
// in-flight backlog.
func (x *Injector) Stats() Stats {
	s := x.stats
	s.PendingBytes = x.nvPending + x.volPending
	return s
}

// PendingBytes reports the undelivered backlog split by residence: the
// stable portion sits in client NVRAM (it survives a client crash), the
// volatile portion exists only in the stalled writer's memory (a client
// crash destroys it).
func (x *Injector) PendingBytes() (stable, volatile int64) {
	return x.nvPending, x.volPending
}

// enqueue adds a delivery to the backlog and its accounting.
func (x *Injector) enqueue(e pendingEntry) {
	n := e.d.bytes()
	if e.d.Stable {
		x.nvPending += n
		if x.nvPending > x.stats.NVRAMHighWater {
			x.stats.NVRAMHighWater = x.nvPending
		}
	} else {
		x.volPending += n
	}
	if e.readyAt < x.nextReady {
		x.nextReady = e.readyAt
	}
	x.pending = append(x.pending, e)
}

// sleep elapses the clock to t. A sleep that will really block first
// commits whatever the open batch has parked: an owner's batch may span
// many deliveries, and none of them may wait for durability on a wire
// wait or a retry backoff.
func (x *Injector) sleep(t int64) bool {
	if x.img != nil && x.clock.Waits(t) {
		x.img.Flush()
	}
	return x.clock.Sleep(t)
}

func (x *Injector) applyCommit(now int64, d Delivery, replay bool) {
	if x.commit != nil {
		x.commit(now, d, replay)
	}
}

// attemptUS is the wire time of one attempt carrying n bytes.
func (x *Injector) attemptUS(n int64) int64 {
	return int64(x.net.AttemptTime(n) / time.Microsecond)
}

// backoff returns the jittered delay before attempt+1 (attempt >= 1):
// base doubled per attempt, capped, with seeded jitter in [b/2, b].
func (x *Injector) backoff(attempt int) int64 {
	b := x.prof.BackoffCap
	if shift := uint(attempt - 1); shift < 32 {
		if v := x.prof.BackoffBase << shift; v < b {
			b = v
		}
	}
	if b <= 1 {
		return b
	}
	return b/2 + x.rng.Int63n(b/2+1)
}

// Deliver runs one write-back through the retry loop in virtual time.
// Draws happen in strict call order, so the schedule is a pure function
// of (profile, delivery sequence).
func (x *Injector) Deliver(now int64, d Delivery) {
	x.Begin()
	x.deliver(now, d)
	x.Commit()
}

func (x *Injector) deliver(now int64, d Delivery) {
	x.advance(now)
	n := d.bytes()
	if n <= 0 {
		return
	}
	x.seq++
	d.Seq = x.seq
	x.stats.Deliveries++
	x.stats.OfferedBytes += n

	t := now
	applied := false // server applied the bytes but the ack was lost
	for attempt := 1; attempt <= x.prof.MaxAttempts; attempt++ {
		x.stats.Attempts++
		if attempt > 1 {
			x.stats.Retries++
		}
		if _, down := x.prof.outageAt(t); down {
			// Server down: the attempt times out after a full wire wait.
			x.stats.OutageTries++
			t += x.attemptUS(n)
			if !x.sleep(t) {
				x.abort(t, d, applied)
				return
			}
		} else {
			lat := x.attemptUS(n)
			if x.prof.SpikeRate > 0 && x.rng.Float64() < x.prof.SpikeRate {
				x.stats.Spikes++
				lat *= x.prof.SpikeFactor
			}
			if x.prof.DropRate > 0 && x.rng.Float64() < x.prof.DropRate {
				x.stats.Drops++
				if !applied && x.prof.AckLossRate > 0 && x.rng.Float64() < x.prof.AckLossRate {
					// The request reached the server and applied; only
					// the ack died. The retry below re-presents seq and
					// the server detects the replay.
					applied = true
					x.stats.AckLosses++
					x.stats.CommittedBytes += n
					x.applyCommit(t+lat, d, false)
				}
				t += lat
				if !x.sleep(t) {
					x.abort(t, d, applied)
					return
				}
			} else {
				t += lat
				if !x.sleep(t) {
					// The wire wait was interrupted mid-flight; the RPC
					// never completed, so the bytes take the degradation
					// path like any other failed attempt.
					x.abort(t, d, applied)
					return
				}
				if applied {
					x.stats.ReplayedBytes += n
					x.applyCommit(t, d, true)
				} else {
					x.stats.CommittedBytes += n
					x.applyCommit(t, d, false)
				}
				if attempt > 1 {
					x.stats.RetryLatencyUS += t - now - x.attemptUS(n)
				}
				return
			}
		}
		if attempt < x.prof.MaxAttempts {
			t += x.backoff(attempt)
			if !x.sleep(t) {
				x.abort(t, d, applied)
				return
			}
		}
	}

	x.stats.Exhausted++
	x.stats.RetryLatencyUS += t - now - x.attemptUS(n)
	if applied {
		// The bytes are safe at the server even though no ack arrived;
		// nothing is at risk and nothing needs redelivery.
		return
	}
	x.degrade(t, d)
}

// abort ends a delivery whose schedule a stopped clock cut short: bytes
// the server already applied (lost ack) are safe; everything else takes
// the same degradation path as retry exhaustion, so a daemon shutting
// down mid-retry parks stable bytes durably instead of losing them.
func (x *Injector) abort(t int64, d Delivery, applied bool) {
	x.clockAborts++
	if applied {
		return
	}
	x.degrade(t, d)
}

// Park routes a delivery straight to the degradation path without
// spending any RPC attempts: the daemon's admission controller uses it to
// absorb writes it cannot serve right now — stable bytes land durably in
// NVRAM (the image, when attached) and drain through Advance like any
// exhausted delivery; volatile bytes stall or shed per the profile. The
// conservation law counts them as offered-then-pending (or lost).
func (x *Injector) Park(now int64, d Delivery) {
	n := d.bytes()
	if n <= 0 {
		return
	}
	x.seq++
	d.Seq = x.seq
	x.stats.Deliveries++
	x.stats.OfferedBytes += n
	x.degrade(now, d)
}

// RestoreParked re-adopts a parked backlog recovered from a reopened
// image (RecoverParked) after a crash: entries rejoin the pending queue
// ready to drain at now, the sequence counter jumps past every restored
// Seq so new deliveries cannot collide with the image's existing keys,
// and the bytes re-enter the conservation law as offered + pending. The
// image already holds the entries, so nothing is re-written to it.
func (x *Injector) RestoreParked(now int64, entries []ParkedDelivery) {
	for _, p := range entries {
		n := p.D.bytes()
		if n <= 0 {
			continue
		}
		if p.D.Seq > x.seq {
			x.seq = p.D.Seq
		}
		x.stats.Deliveries++
		x.stats.OfferedBytes += n
		x.restoredBytes += n
		x.enqueue(pendingEntry{d: p.D, readyAt: now, since: now})
	}
}

// RestoredBytes reports how many parked bytes RestoreParked re-adopted.
func (x *Injector) RestoredBytes() int64 { return x.restoredBytes }

// degrade applies the per-organization exhaustion semantics.
func (x *Injector) degrade(t int64, d Delivery) {
	n := d.bytes()
	if !d.Stable && x.prof.Shed {
		x.stats.LostBytes += n
		return
	}
	readyAt := t + x.prof.BackoffCap
	if w, down := x.prof.outageAt(t); down {
		readyAt = w.End // Never for an unrecovering outage
	}
	e := pendingEntry{d: d, readyAt: readyAt, since: t}
	x.parkDurable(e)
	x.enqueue(e)
}

// Advance drains pending redeliveries whose time has come, pushing any
// whose drain point lands inside a later outage to that outage's end.
func (x *Injector) Advance(now int64) {
	x.Begin()
	x.advance(now)
	x.Commit()
}

func (x *Injector) advance(now int64) {
	if now < x.nextReady {
		return
	}
	next := int64(Never)
	kept := x.pending[:0]
	for _, e := range x.pending {
		for e.readyAt <= now {
			w, down := x.prof.outageAt(e.readyAt)
			if !down {
				break
			}
			e.readyAt = w.End
		}
		if e.readyAt > now {
			if e.readyAt < next {
				next = e.readyAt
			}
			kept = append(kept, e)
			continue
		}
		n := e.d.bytes()
		x.stats.RedeliveredBytes += n
		x.stats.CommittedBytes += n
		if e.d.Stable {
			x.nvPending -= n
			x.unparkDurable(e.d)
		} else {
			x.volPending -= n
			x.stats.StallUS += e.readyAt - e.since
		}
		x.applyCommit(e.readyAt, e.d, false)
	}
	x.pending = kept
	x.nextReady = next
}

// Close ends the trace at the given time: drainable entries drain, and
// whatever remains is accounted — stable bytes sit safely in NVRAM
// (PendingBytes), stalled volatile writers have waited since exhaustion.
func (x *Injector) Close(end int64) {
	x.Advance(end)
	for _, e := range x.pending {
		if !e.d.Stable && end > e.since {
			x.stats.StallUS += end - e.since
		}
	}
}

// Describe renders the profile compactly for report headers, so every
// printed table carries what reproduces it.
func (p Profile) Describe() string {
	p.fillDefaults()
	s := fmt.Sprintf("seed=%d drop=%g ackloss=%g spike=%gx%d retries=%d backoff=%v cap=%v",
		p.Seed, p.DropRate, p.AckLossRate, p.SpikeRate, p.SpikeFactor, p.MaxAttempts,
		time.Duration(p.BackoffBase)*time.Microsecond, time.Duration(p.BackoffCap)*time.Microsecond)
	for _, w := range p.Outages {
		if w.End == Never {
			s += fmt.Sprintf(" outage=[%gs,never)", float64(w.Start)/1e6)
		} else {
			s += fmt.Sprintf(" outage=[%gs,%gs)", float64(w.Start)/1e6, float64(w.End)/1e6)
		}
	}
	if p.Shed {
		s += " shed"
	}
	return s
}
