// Package daemon wraps the simulation spine in a long-running TCP
// service: clients submit trace events over a length-prefixed binary
// protocol, the per-client cache organizations and Sprite consistency
// protocol run against wall-clock time, and the fault injector's
// retry/backoff/degradation scheduler executes its schedule with real
// sleeps. A durable nvram.Image backs the NVRAM park queue, so a SIGKILL
// plus restart recovers the parked write-back backlog with zero
// committed-byte loss (internal/crash extends its harness to this live
// process).
//
// Robustness model:
//
//   - Admission control: a bounded token budget caps concurrently applied
//     requests; a request that cannot get a token within AdmitWait takes
//     the overload path.
//   - Overload shedding follows the conservation law, offered equals
//     committed plus lost plus pending: a write on an organization that
//     stages dirty bytes in NVRAM is accepted straight into the bounded
//     park queue (StatusParked — its bytes are pending, not lost);
//     everything else is refused with StatusShedOverload, nothing applied.
//   - Per-connection read/write deadlines bound slow-loris clients, a
//     1 MiB frame cap bounds hostile length prefixes, and a per-connection
//     recover turns a handler panic into one dropped connection instead
//     of a dead daemon.
//   - Graceful drain: Shutdown stops accepting, lets in-flight requests
//     finish, then stops the wall clock — which aborts any in-flight
//     retry schedule onto the degradation path, parking stable bytes
//     durably — and finally drains the write-back queues into the park
//     queue. Nothing committed is ever lost; everything else is parked.
package daemon

import (
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"nvramfs/internal/cache"
	"nvramfs/internal/faults"
	"nvramfs/internal/interval"
	"nvramfs/internal/nvram"
	"nvramfs/internal/prep"
	"nvramfs/internal/sim"
	"nvramfs/internal/stats"
	"nvramfs/internal/trace"
)

const (
	// maxClientID bounds the client id a request may name: the stepper
	// indexes models by client id, so an unbounded id is an allocation
	// attack, not a simulation.
	maxClientID = 1 << 16
	// maxReqBytes bounds one request's byte range for the same reason
	// (cache models walk ranges block by block).
	maxReqBytes = 1 << 30
)

// Config parameterizes a daemon.
type Config struct {
	// Org is the cache organization the daemon serves. Write-aside and
	// unified stage dirty bytes in NVRAM and therefore park under
	// overload; volatile and hybrid shed.
	Org cache.ModelKind
	// Cache is the per-client cache configuration (Hooks is owned by the
	// daemon and must be nil).
	Cache cache.Config
	// Faults is the fault schedule the write-back path runs against real
	// time. The zero profile injects no faults but still prices retries.
	Faults faults.Profile
	// Image, when set, durably backs the NVRAM park queue. The daemon
	// recovers any parked backlog from it at construction and drains it
	// to the server. The caller retains ownership (Close after Shutdown).
	Image *nvram.Image
	// MaxInFlight is the admission budget: requests concurrently applied
	// or waiting on the write-back queue. <= 0 selects 64.
	MaxInFlight int
	// AdmitWait is how long admission may block before the overload path.
	// <= 0 selects 10ms.
	AdmitWait time.Duration
	// ReadTimeout bounds each frame read (slow-loris defense); <= 0
	// selects 30s.
	ReadTimeout time.Duration
	// WriteTimeout bounds each response write; <= 0 selects 10s.
	WriteTimeout time.Duration
	// Logf receives connection-level diagnostics; nil discards them.
	Logf func(format string, args ...any)
}

// Snapshot is the daemon's observable state: served to the stats frame
// and the /metrics endpoint, and asserted on by the kill/restart smoke.
type Snapshot struct {
	Org             string
	UptimeUS        int64
	Conns           int64
	RequestsOK      int64
	Parked          int64
	Shed            int64
	Draining        int64
	BadRequests     int64
	ShedBytes       int64
	Panics          int64
	ApplyP50US      int64
	ApplyP99US      int64
	AppliedOps      int64
	RestoredBytes   int64
	ClockAborts     int64
	PendingStable   int64
	PendingVolatile int64
	Faults          faults.Stats
	// WritebackBatches counts the commit barriers' worth of work the
	// write-back goroutine has done: one per wake-up of its loop (and one
	// for a non-empty shutdown residue). BatchDeliveries counts the
	// write-backs and park requests handled in them, so their quotient is
	// the mean group-commit batch size. A tick's Advance is not a batch: it
	// takes nothing off the queues.
	WritebackBatches int64
	BatchDeliveries  int64
	// Image is the attached image's activity since open (zero without an
	// image). A batch that appended costs two msyncs; the header sync at
	// create, a barrier forced by a compaction, a tick that drained due
	// redeliveries and Shutdown's final Sync are the only others.
	Image nvram.ImageStats
	// GOMAXPROCS is the process's P count when the snapshot was taken.
	GOMAXPROCS int
}

// writebackSnapshot is the part of a Snapshot only the write-back
// goroutine can read: the injector's and the image's counters and its own
// batch counts.
type writebackSnapshot struct {
	faults                   faults.Stats
	image                    nvram.ImageStats
	pendStable, pendVol      int64
	clockAborts, restored    int64
	batches, batchDeliveries int64
}

// Server is a live nvramd instance. Construct with New, serve with
// Serve, stop with Shutdown.
type Server struct {
	cfg Config
	clk *faults.WallClock

	// mu guards the simulation core: stepper, canonicalizer, the
	// monotonic event clock, and the delivery scratch the cache hooks
	// append to. Never held across a channel send or a sleep.
	mu       sync.Mutex
	step     *sim.Stepper
	canon    *prep.Canonicalizer
	lastTime int64
	scratch  []faults.Delivery
	applied  int64

	inj *faults.Injector // owned by the writeback goroutine after New
	// batches and batchDeliveries belong to the writeback goroutine too.
	batches, batchDeliveries int64

	tokens chan struct{}
	wbCh   chan faults.Delivery
	parkCh chan faults.Delivery

	latMu sync.Mutex
	lat   *stats.Reservoir

	// statsMu guards the copy of its own state the writeback goroutine
	// publishes on every tick (injector and image are single-owner).
	statsMu sync.Mutex
	wbSnap  writebackSnapshot

	reqOK, reqParked, reqShed, reqDraining, reqBad atomic.Int64
	shedBytes                                      atomic.Int64
	panics                                         atomic.Int64
	conns                                          atomic.Int64

	// testApplyHold, when set (tests only), runs under mu before each
	// apply — a way to hold the simulation core busy or inject a panic.
	testApplyHold func(e trace.Event)

	draining atomic.Bool
	ln       net.Listener
	lnMu     sync.Mutex
	connMu   sync.Mutex
	connSet  map[net.Conn]struct{}
	connWG   sync.WaitGroup
	wbStop   chan struct{}
	wbDone   chan struct{}
}

// New builds a server: recovers the parked backlog from cfg.Image (if
// any), restores it into the fault stage, and starts the write-back
// goroutine. Returns the count of recovered parked deliveries.
//
// New does not touch GOMAXPROCS: that is the embedding process's policy
// (cmd/nvramd keeps it at two or more). On a single P the write-back
// goroutine holds the P through each commit barrier, so handlers read no
// frame meanwhile: a reply waits a whole barrier and batches shrink to one
// delivery per connection (see writeback).
func New(cfg Config) (*Server, int, error) {
	if cfg.Cache.Hooks != nil {
		return nil, 0, errors.New("daemon: Config.Cache.Hooks is owned by the daemon")
	}
	if cfg.MaxInFlight <= 0 {
		cfg.MaxInFlight = 64
	}
	if cfg.AdmitWait <= 0 {
		cfg.AdmitWait = 10 * time.Millisecond
	}
	if cfg.ReadTimeout <= 0 {
		cfg.ReadTimeout = 30 * time.Second
	}
	if cfg.WriteTimeout <= 0 {
		cfg.WriteTimeout = 10 * time.Second
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}

	s := &Server{
		cfg:     cfg,
		clk:     faults.NewWallClock(),
		canon:   prep.NewPush(prep.Options{Trusted: true}),
		tokens:  make(chan struct{}, cfg.MaxInFlight),
		wbCh:    make(chan faults.Delivery, cfg.MaxInFlight),
		parkCh:  make(chan faults.Delivery, 4*cfg.MaxInFlight),
		lat:     stats.NewReservoir(4096, 1),
		connSet: make(map[net.Conn]struct{}),
		wbStop:  make(chan struct{}),
		wbDone:  make(chan struct{}),
	}

	// The injector's commit callback briefly re-enters the simulation
	// core for the server's idempotent-redelivery check — the same
	// interposition sim.installFaultStage performs, split across the
	// daemon's two lock domains.
	s.inj = faults.NewInjector(cfg.Faults, func(now int64, d faults.Delivery, replay bool) {
		s.mu.Lock()
		s.step.Server().DeliverWriteback(d.File, d.Seq)
		s.mu.Unlock()
	})
	s.inj.SetClock(s.clk)

	recovered := 0
	if cfg.Image != nil {
		entries, err := faults.RecoverParked(cfg.Image)
		if err != nil {
			return nil, 0, fmt.Errorf("daemon: recovering parked backlog: %w", err)
		}
		// AttachImage before RestoreParked: restored entries re-park
		// durably under their recovered sequence numbers.
		s.inj.AttachImage(cfg.Image)
		s.inj.RestoreParked(s.clk.Now(), entries)
		recovered = len(entries)
	}

	// The cache hooks fire inside Stepper.Apply — under mu — and only
	// collect; the channel send happens after unlock.
	simCfg := sim.Config{Model: cfg.Org, Cache: cfg.Cache}
	simCfg.Cache.Hooks = &cache.ServerHooks{
		Write: func(now int64, file uint64, r interval.Range, cause cache.Cause, stable bool) {
			s.scratch = append(s.scratch, faults.Delivery{
				Client: s.step.CurrentClient(),
				File:   file,
				Start:  r.Start,
				End:    r.End,
				Cause:  uint8(cause),
				Stable: stable,
			})
		},
	}
	s.step = sim.NewStepper(nil, simCfg)

	go s.writeback()
	return s, recovered, nil
}

// writeback is the single goroutine that owns the fault injector: it
// executes delivery schedules against real time, services park requests,
// and periodically drains redeliveries whose backoff has elapsed.
//
// Threading model. This is the only goroutine of the daemon that blocks in
// the kernel on anything but a socket: the image's two msyncs per commit
// barrier, and compaction's fsync and rename. Handlers block only on their
// connection, on mu (never held across a syscall) and on the queues that
// feed this goroutine. So two Ps suffice for handlers to keep applying
// events and queueing write-backs while a barrier is in msync, which is
// what makes this loop a group commit: the delivery that wakes it and
// everything queued behind it run under one injector batch and share one
// barrier, nothing waits to fill a batch, and its size is whatever the
// handlers queued during the previous barrier. The injector commits on
// its own before any sleep that really blocks. The snapshot is refreshed
// only between batches, so PendingStable never counts a record whose
// commit mark is not yet synced.
func (s *Server) writeback() {
	defer close(s.wbDone)
	tick := time.NewTicker(100 * time.Millisecond)
	defer tick.Stop()
	for {
		select {
		case d := <-s.wbCh:
			s.writeBatch(s.inj.Deliver, d)
		case d := <-s.parkCh:
			s.writeBatch(s.inj.Park, d)
		case <-tick.C:
			s.inj.Advance(s.clk.Now())
			s.refreshSnapshot()
		case <-s.wbStop:
			// Shutdown: anything still queued parks (stable bytes
			// durably; the clock is stopped so nothing sleeps).
			s.inj.Begin()
			n := 0
			for len(s.wbCh)+len(s.parkCh) > 0 {
				n += s.drainQueued(s.inj.Park)
			}
			s.inj.Commit()
			s.countBatch(n)
			s.refreshSnapshot()
			return
		}
	}
}

// writeBatch handles the delivery that woke the loop and whatever is
// queued behind it under one injector batch: one commit barrier.
func (s *Server) writeBatch(first func(int64, faults.Delivery), d faults.Delivery) {
	s.inj.Begin()
	first(s.clk.Now(), d)
	n := 1 + s.drainQueued(s.inj.Deliver)
	s.inj.Commit()
	s.countBatch(n)
}

// countBatch records a finished batch of n deliveries and park requests.
func (s *Server) countBatch(n int) {
	if n > 0 {
		s.batches++
		s.batchDeliveries += int64(n)
	}
}

// drainQueued hands the injector what is queued right now, without
// blocking, and reports how many it took: write-backs to deliver (Deliver
// while serving, Park at shutdown), park requests to Park. It takes no
// more than was queued when it looked, so a batch stays bounded by the
// queues' capacities and cannot starve the tick or the stop signal while
// producers keep up.
func (s *Server) drainQueued(deliver func(int64, faults.Delivery)) int {
	took := 0
	for n := len(s.wbCh) + len(s.parkCh); n > 0; n-- {
		select {
		case d := <-s.wbCh:
			deliver(s.clk.Now(), d)
		case d := <-s.parkCh:
			s.inj.Park(s.clk.Now(), d)
		default:
			return took
		}
		took++
	}
	return took
}

// refreshSnapshot publishes the write-back goroutine's state under
// statsMu; everyone else reads the copy.
func (s *Server) refreshSnapshot() {
	wb := writebackSnapshot{
		faults:          s.inj.Stats(),
		clockAborts:     s.inj.ClockAborts(),
		restored:        s.inj.RestoredBytes(),
		batches:         s.batches,
		batchDeliveries: s.batchDeliveries,
	}
	wb.pendStable, wb.pendVol = s.inj.PendingBytes()
	if s.cfg.Image != nil {
		wb.image = s.cfg.Image.Stats()
	}
	s.statsMu.Lock()
	s.wbSnap = wb
	s.statsMu.Unlock()
}

// Snapshot assembles the daemon's observable state.
func (s *Server) Snapshot() Snapshot {
	s.statsMu.Lock()
	wb := s.wbSnap
	s.statsMu.Unlock()
	s.latMu.Lock()
	p50, p99 := s.lat.Quantile(0.5), s.lat.Quantile(0.99)
	s.latMu.Unlock()
	s.mu.Lock()
	applied := s.applied
	s.mu.Unlock()
	return Snapshot{
		Org:             s.cfg.Org.String(),
		UptimeUS:        s.clk.Now(),
		Conns:           s.conns.Load(),
		RequestsOK:      s.reqOK.Load(),
		Parked:          s.reqParked.Load(),
		Shed:            s.reqShed.Load(),
		Draining:        s.reqDraining.Load(),
		BadRequests:     s.reqBad.Load(),
		ShedBytes:       s.shedBytes.Load(),
		Panics:          s.panics.Load(),
		ApplyP50US:      p50,
		ApplyP99US:      p99,
		AppliedOps:      applied,
		RestoredBytes:   wb.restored,
		ClockAborts:     wb.clockAborts,
		PendingStable:   wb.pendStable,
		PendingVolatile: wb.pendVol,
		Faults:          wb.faults,

		WritebackBatches: wb.batches,
		BatchDeliveries:  wb.batchDeliveries,
		Image:            wb.image,
		GOMAXPROCS:       runtime.GOMAXPROCS(0),
	}
}

// Serve accepts connections on ln until Shutdown closes it.
func (s *Server) Serve(ln net.Listener) error {
	s.lnMu.Lock()
	s.ln = ln
	s.lnMu.Unlock()
	for {
		conn, err := ln.Accept()
		if err != nil {
			if s.draining.Load() {
				return nil // Shutdown closed the listener
			}
			return err
		}
		s.connMu.Lock()
		s.connSet[conn] = struct{}{}
		s.connMu.Unlock()
		s.conns.Add(1)
		s.connWG.Add(1)
		go s.handleConn(conn)
	}
}

// handleConn runs one connection's frame loop. A panic anywhere in the
// handler degrades this one client; the recover is the daemon's
// blast-radius boundary.
func (s *Server) handleConn(conn net.Conn) {
	defer func() {
		if r := recover(); r != nil {
			s.panics.Add(1)
			s.cfg.Logf("daemon: connection %v panic: %v", conn.RemoteAddr(), r)
		}
		conn.Close()
		s.connMu.Lock()
		delete(s.connSet, conn)
		s.connMu.Unlock()
		s.conns.Add(-1)
		s.connWG.Done()
	}()

	// One buffer per direction, reused frame after frame.
	var in, out []byte
	// Handshake: one hello frame, answered with the org name.
	conn.SetReadDeadline(time.Now().Add(s.cfg.ReadTimeout))
	p, err := readFrame(conn, &in)
	if err != nil || len(p) < 2 || p[0] != ftHello || p[1] != protoVersion {
		return
	}
	out = append(append(beginFrame(out), ftHelloOK, protoVersion), s.cfg.Org.String()...)
	conn.SetWriteDeadline(time.Now().Add(s.cfg.WriteTimeout))
	if err := writeFrame(conn, out); err != nil {
		return
	}

	for {
		conn.SetReadDeadline(time.Now().Add(s.cfg.ReadTimeout))
		p, err := readFrame(conn, &in)
		if err != nil {
			return // clean close, timeout, oversized frame, or tear
		}
		if out, err = s.appendReply(beginFrame(out), p); err != nil {
			return
		}
		conn.SetWriteDeadline(time.Now().Add(s.cfg.WriteTimeout))
		if err := writeFrame(conn, out); err != nil {
			return
		}
	}
}

// appendReply serves one request frame and appends the reply's payload to
// out.
func (s *Server) appendReply(out, p []byte) ([]byte, error) {
	switch p[0] {
	case ftEvent:
		e, _, err := trace.DecodeEvent(p[1:])
		if err != nil {
			break
		}
		return append(out, ftResult, byte(s.handleEvent(e))), nil
	case ftStatsReq:
		body, err := json.Marshal(s.Snapshot())
		if err != nil {
			return out, err
		}
		return append(append(out, ftStats), body...), nil
	}
	s.reqBad.Add(1)
	return append(out, ftResult, byte(StatusBadRequest)), nil
}

// handleEvent routes one event through admission, the simulation core,
// and the write-back queue, and returns the client's verdict.
func (s *Server) handleEvent(e trace.Event) Status {
	if s.draining.Load() {
		s.reqDraining.Add(1)
		return StatusDraining
	}
	if err := e.Validate(); err != nil || e.Client >= maxClientID ||
		(e.Op == trace.OpRead || e.Op == trace.OpWrite) && e.Length > maxReqBytes {
		s.reqBad.Add(1)
		return StatusBadRequest
	}

	// Admission: one token per request being applied or enqueued.
	select {
	case s.tokens <- struct{}{}:
	default:
		timer := time.NewTimer(s.cfg.AdmitWait)
		select {
		case s.tokens <- struct{}{}:
			timer.Stop()
		case <-timer.C:
			return s.overload(e)
		}
	}
	defer func() { <-s.tokens }()

	start := time.Now()
	var (
		deliveries []faults.Delivery
		err        error
	)
	// The locked section unlocks via defer so a panic inside the apply
	// path (surfaced to the connection's recover) cannot strand mu.
	func() {
		s.mu.Lock()
		defer s.mu.Unlock()
		if s.testApplyHold != nil {
			s.testApplyHold(e)
		}
		now := s.clk.Now()
		if now <= s.lastTime {
			now = s.lastTime + 1 // keep the event clock strictly monotonic
		}
		s.lastTime = now
		e.Time = now
		op, ok, perr := s.canon.Push(e)
		if perr == nil && ok {
			perr = s.step.Apply(op)
		}
		err = perr
		s.applied++
		deliveries = s.scratch
		s.scratch = nil
	}()
	if err != nil {
		// Push with Trusted never errors on a validated, monotonic
		// event; Apply errors only on misconfiguration. Refuse and log
		// rather than poison the stream.
		s.cfg.Logf("daemon: apply: %v", err)
		s.reqBad.Add(1)
		return StatusBadRequest
	}

	// Hand write-backs to the injector's goroutine. A full queue blocks
	// here — while this request holds its admission token — which is the
	// backpressure that pushes later requests onto the overload path.
	for _, d := range deliveries {
		select {
		case s.wbCh <- d:
		case <-s.wbStop:
			// Shutdown raced us: park directly via the park queue drain.
			s.parkOrShed(d)
		}
	}

	s.latMu.Lock()
	s.lat.Observe(time.Since(start).Microseconds())
	s.latMu.Unlock()
	s.reqOK.Add(1)
	return StatusOK
}

// overload handles a request that admission timed out: a write on an
// NVRAM-staging organization parks its bytes straight into the bounded
// park queue (accepted, pending); everything else is shed (refused).
func (s *Server) overload(e trace.Event) Status {
	if e.Op == trace.OpWrite && s.cfg.Org.StagesWritesInNVRAM() {
		d := faults.Delivery{
			Client: e.Client,
			File:   e.File,
			Start:  e.Offset,
			End:    e.Offset + e.Length,
			Cause:  uint8(cache.CauseFsync),
			Stable: true,
		}
		select {
		case s.parkCh <- d:
			s.reqParked.Add(1)
			return StatusParked
		default:
			// Even the park queue is full: bounded means bounded.
		}
	}
	if e.Op == trace.OpWrite {
		s.shedBytes.Add(e.Length)
	}
	s.reqShed.Add(1)
	return StatusShedOverload
}

// parkOrShed is the shutdown-race fallback for a delivery that could not
// reach the write-back queue.
func (s *Server) parkOrShed(d faults.Delivery) {
	select {
	case s.parkCh <- d:
	default:
		s.shedBytes.Add(d.End - d.Start)
	}
}

// Shutdown drains the daemon: stop accepting, let in-flight requests
// finish, abort any in-flight retry schedule (stable bytes park
// durably), and drain the write-back queues into the park queue. The
// image (if any) is synced but left open — the caller owns it.
func (s *Server) Shutdown(grace time.Duration) {
	if !s.draining.CompareAndSwap(false, true) {
		<-s.wbDone
		return
	}
	s.lnMu.Lock()
	if s.ln != nil {
		s.ln.Close()
	}
	s.lnMu.Unlock()

	// Phase 1: let connections finish naturally — responses for applied
	// requests still go out, new requests see StatusDraining.
	waitGroupTimeout(&s.connWG, grace/2)
	// Phase 2: stop the clock. An injector mid-retry aborts to the
	// degradation path (stable bytes park durably), unblocking any
	// request waiting on the write-back queue.
	s.clk.Stop()
	if !waitGroupTimeout(&s.connWG, grace/2) {
		s.connMu.Lock()
		for c := range s.connSet {
			c.Close()
		}
		s.connMu.Unlock()
		waitGroupTimeout(&s.connWG, time.Second)
	}
	// Phase 3: stop the write-back goroutine; it parks everything still
	// queued before exiting.
	close(s.wbStop)
	<-s.wbDone
	if s.cfg.Image != nil {
		s.cfg.Image.Sync()
		s.refreshSnapshot() // the goroutine is gone; count the final Sync
	}
}

// waitGroupTimeout waits for wg up to d, reporting completion.
func waitGroupTimeout(wg *sync.WaitGroup, d time.Duration) bool {
	done := make(chan struct{})
	go func() {
		wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return true
	case <-time.After(d):
		return false
	}
}
