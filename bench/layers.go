package main

// The traced run. Per-layer numbers come from timing calls into each
// layer's public functions from here; nothing inside the program is
// instrumented. End-to-end numbers are never taken from a traced run.

import (
	"bytes"
	"fmt"
	"net"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"nvramfs"
	"nvramfs/internal/cache"
	"nvramfs/internal/consist"
	"nvramfs/internal/daemon"
	"nvramfs/internal/disk"
	"nvramfs/internal/faults"
	"nvramfs/internal/interval"
	"nvramfs/internal/lfs"
	"nvramfs/internal/lifetime"
	"nvramfs/internal/netmodel"
	"nvramfs/internal/nvram"
	"nvramfs/internal/prep"
	"nvramfs/internal/serverload"
	"nvramfs/internal/sim"
	"nvramfs/internal/trace"
	"nvramfs/internal/workload"
)

// layerPasses is how often an offline layer pass is repeated; the
// reported time is the median.
const layerPasses = 5

// chainEvents bounds the in-process replica of the daemon's request path
// on the healthy mix; inprocSends bounds the loopback round-trip sample.
const (
	chainEvents = 100000
	inprocSends = 30000
)

func (c *run) traced(name string) (*result, error) {
	switch name {
	case "sweep_client":
		return c.tracedSweepClient()
	case "sweep_server":
		return c.tracedSweepServer()
	case "daemon_mix", "daemon_open":
		return c.tracedHealthy(name)
	case "daemon_park":
		return c.tracedPark()
	}
	return nil, fmt.Errorf("unknown workload (want one of %s)", strings.Join(workloadNames, ", "))
}

// layersOf keeps what a real (shortened) run of the workload learned —
// outcome, counts, and the diagnostics that are per-layer metrics — and
// drops its end-to-end numbers.
func layersOf(real *result) *result {
	res := newResult(real.Workload)
	res.Correct, res.Problems = real.Correct, real.Problems
	res.Attempted, res.Failed = real.Attempted, real.Failed
	res.Counts, res.InputDigest, res.SimDigest = real.Counts, real.InputDigest, real.SimDigest
	for _, d := range perLayer {
		if v, ok := real.Diagnostics[d.Name]; ok {
			res.set(d.Name, d.Unit, v)
		}
	}
	return res
}

// span times f under a span called name.
func (c *run) span(name string, parent int32, f func() error) (time.Duration, error) {
	id := c.tr.open(name, parent, 0)
	t := time.Now()
	err := f()
	d := time.Since(t)
	c.tr.finish(id)
	return d, err
}

// medianPass repeats a layer pass and returns its median time in ns.
func (c *run) medianPass(name string, f func() error) (float64, error) {
	var ns []float64
	for i := 0; i < layerPasses; i++ {
		d, err := c.span(name, noParent, f)
		if err != nil {
			return 0, fmt.Errorf("%s: %w", name, err)
		}
		ns = append(ns, float64(d))
	}
	return median(ns), nil
}

// offlineLayers times the offline path's layers one at a time on trace 7
// at the sweep's scale: generate, encode, decode, canonicalize, the two
// lifetime passes, a simulation per organization, and the consistency
// server alone.
func (c *run) offlineLayers(res *result, scale float64) error {
	prof := workload.StandardProfile(7, scale)
	var events []trace.Event
	ns, err := c.medianPass("workload.gen", func() error {
		events = events[:0]
		cur := workload.NewCursor(prof)
		for {
			e, ok, err := cur.Next()
			if err != nil || !ok {
				return err
			}
			events = append(events, e)
		}
	})
	if err != nil {
		return err
	}
	n := float64(len(events))
	if n == 0 {
		return fmt.Errorf("trace 7 at scale %g is empty", scale)
	}
	res.set("workload.gen_ns_per_event", "ns", ns/n)

	var enc bytes.Buffer
	ns, err = c.medianPass("trace.encode", func() error {
		enc.Reset()
		w, err := trace.NewWriter(&enc, prof.Header())
		if err != nil {
			return err
		}
		for _, e := range events {
			if err := w.Write(e); err != nil {
				return err
			}
		}
		return w.Close()
	})
	if err != nil {
		return err
	}
	res.set("trace.encode_ns_per_event", "ns", ns/n)
	res.set("trace.bytes_per_event", "bytes", float64(enc.Len())/n)

	ns, err = c.medianPass("trace.decode", func() error {
		r, err := trace.NewBytesReader(enc.Bytes())
		if err != nil {
			return err
		}
		for {
			_, ok, err := r.Next()
			if err != nil || !ok {
				return err
			}
		}
	})
	if err != nil {
		return err
	}
	res.set("trace.decode_ns_per_event", "ns", ns/n)

	var ops []prep.Op
	ns, err = c.medianPass("prep.source", func() error {
		ops = ops[:0]
		src := prep.NewSource(trace.NewSliceSource(events), prep.Options{Trusted: true})
		for {
			op, ok, err := src.Next()
			if err != nil || !ok {
				return err
			}
			ops = append(ops, op)
		}
	})
	if err != nil {
		return err
	}
	nops := float64(len(ops))
	res.set("prep.source_ns_per_event", "ns", ns/n)
	res.set("prep.ops_per_event", "count", nops/n)

	ns, err = c.medianPass("lifetime.analyze", func() error {
		_, err := lifetime.Analyze(prep.NewSliceSource(ops))
		return err
	})
	if err != nil {
		return err
	}
	res.set("lifetime.analyze_ns_per_op", "ns", ns/nops)
	ns, err = c.medianPass("lifetime.schedule", func() error {
		_, err := lifetime.BuildSchedule(prep.NewSliceSource(ops), cache.DefaultBlockSize)
		return err
	})
	if err != nil {
		return err
	}
	res.set("lifetime.schedule_ns_per_op", "ns", ns/nops)

	for _, kind := range []cache.ModelKind{cache.ModelVolatile, cache.ModelWriteAside, cache.ModelUnified, cache.ModelHybrid} {
		cfg := sim.Config{Model: kind, Cache: daemonCache(8, 2)}
		var mallocs uint64
		ns, err = c.medianPass("sim.run."+kind.String(), func() error {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			_, err := sim.Run(prep.NewSliceSource(ops), cfg)
			runtime.ReadMemStats(&after)
			mallocs = after.Mallocs - before.Mallocs
			return err
		})
		if err != nil {
			return err
		}
		res.set("sim.run_ns_per_op."+kind.String(), "ns", ns/nops)
		if kind == cache.ModelUnified {
			res.set("sim.allocs_per_op.unified", "count", float64(mallocs)/nops)
		}
	}
	res.set("consist.server_ns_per_call", "ns", c.consistLayer(events))
	return nil
}

// consistLayer replays the events' open/write/close mix straight into a
// consist.Server and returns ns per call.
func (c *run) consistLayer(events []trace.Event) float64 {
	calls := 0
	ns, _ := c.medianPass("consist.server", func() error {
		calls = 0
		s := consist.NewServer()
		for _, e := range events {
			switch e.Op {
			case trace.OpOpen:
				s.Open(e.Client, e.File, e.Flags&trace.FlagWrite != 0)
			case trace.OpWrite:
				s.Write(e.Client, e.File)
			case trace.OpClose:
				s.Close(e.Client, e.File)
			default:
				continue
			}
			calls++
		}
		return nil
	})
	if calls == 0 {
		return 0
	}
	return ns / float64(calls)
}

// daemonCache is the cache configuration nvramd derives from -cache-mb
// and -nvram-mb at the default block size.
func daemonCache(cacheMB, nvramMB int) cache.Config {
	return cache.Config{
		BlockSize:      cache.DefaultBlockSize,
		VolatileBlocks: cacheMB << 20 / int(cache.DefaultBlockSize),
		NVRAMBlocks:    nvramMB << 20 / int(cache.DefaultBlockSize),
	}
}

// tracedSweep runs one repetition traced (a span per driver call, a child
// span per engine job) between two untraced ones and reports the driver
// and engine layers; the traced time against the mean of its neighbours
// is the tracing overhead.
func (c *run) tracedSweep(res *result, drivers func(*nvramfs.Engine) []driverCall) {
	plain := sweepOnce(nil, 0, drivers)
	first := len(c.tr.spans)
	traced := sweepOnce(c.tr, 1, drivers)
	after := sweepOnce(nil, 2, drivers)
	for _, rep := range []sweepRep{plain, traced, after} {
		res.Attempted += rep.jobs
		res.Failed += rep.failed
		if rep.callErr != nil {
			res.fail("%v", rep.callErr)
		}
	}
	if plain.digest != traced.digest {
		res.fail("the traced repetition rendered %s, the untraced one %s", traced.digest, plain.digest)
	}
	res.SimDigest = plain.digest
	res.set("latency.p50_us", "us", plain.latencyUS(50))
	res.set("latency.p99_us", "us", plain.latencyUS(99))
	if mem, err := peakRSSMiB("self"); err == nil {
		res.set("mem.peak_rss_mb", "MiB", mem)
	}
	for name, d := range traced.byName {
		res.set("report.wall_s."+name, "s", d.Seconds())
	}
	res.set("engine.busy_frac", "frac", traced.busy.Seconds()/(traced.wall.Seconds()*engineWorkers))
	res.set("engine.jobs", "count", float64(traced.jobs))
	res.set("engine.peak_concurrent", "count", float64(traced.peak))
	// What a driver call spends outside its engine jobs: merging,
	// rendering, and whatever it runs serially.
	var self int64
	for name, t := range c.tr.totalsByName(first) {
		if strings.HasPrefix(name, "report.") {
			self += t.Self
		}
	}
	res.set("report.self_s", "s", float64(self)/1e9)
	untraced := (plain.wall.Seconds() + after.wall.Seconds()) / 2
	res.set("trace_overhead_frac", "frac", (traced.wall.Seconds()-untraced)/untraced)
}

func (c *run) tracedSweepClient() (*result, error) {
	res := newResult("sweep_client")
	scale := c.clientScale()
	if err := c.offlineLayers(res, scale); err != nil {
		return nil, err
	}
	c.tracedSweep(res, func(eng *nvramfs.Engine) []driverCall {
		ws := nvramfs.NewWorkspace(scale)
		ws.SetEngine(eng)
		return clientDrivers(ws)
	})
	return res, nil
}

func (c *run) tracedSweepServer() (*result, error) {
	res := newResult("sweep_server")
	dur := c.serverDuration()
	var (
		runs                      []float64
		segments, partial, access int64
	)
	for _, p := range serverload.StandardProfiles() {
		d := disk.New(disk.DefaultParams())
		fs := lfs.New(lfs.Config{Name: p.Name}, d)
		el, _ := c.span("lfs.run", noParent, func() error {
			serverload.Run(p, fs, dur)
			return nil
		})
		runs = append(runs, el.Seconds())
		st := fs.Stats()
		segments += st.FullSegments + st.PartialSegments()
		partial += st.PartialSegments()
		access += d.Accesses()
	}
	res.set("lfs.run_s_per_fs", "s", median(runs))
	res.set("lfs.segments_written", "count", float64(segments))
	if segments > 0 {
		res.set("lfs.partial_frac", "frac", float64(partial)/float64(segments))
	}
	res.set("disk.accesses", "count", float64(access))
	c.tracedSweep(res, func(eng *nvramfs.Engine) []driverCall { return serverDrivers(eng, dur) })
	return res, nil
}

// chain is an in-process, single-goroutine replica of the daemon's
// handleEvent sequence, built only from public functions: encode, decode,
// validate, canonicalize, apply (cache hooks collect the deliveries),
// deliver on a wall clock with the image attached.
type chain struct {
	tr      *tracer
	clk     *faults.WallClock
	canon   *prep.Canonicalizer
	step    *sim.Stepper
	inj     *faults.Injector
	img     *nvram.Image
	scratch []faults.Delivery
	last    int64
	buf     []byte

	events, deliveries int64
	deliverNS          []int64 // per delivery, in order

	// span names, interned once
	nRequest, nAppend, nDecode, nPush, nApply, nDeliver, nMsync nameID
}

func newChain(tr *tracer, cfg cache.Config, prof faults.Profile, img *nvram.Image) *chain {
	// The wire to a live daemon is real, so nvramd charges no simulated
	// network time per attempt; neither does the replica.
	prof.Net = &netmodel.Params{}
	ch := &chain{
		tr: tr, clk: faults.NewWallClock(), canon: prep.NewPush(prep.Options{Trusted: true}), img: img,
		nRequest: tr.id("chain.request"), nAppend: tr.id("trace.append_event"), nDecode: tr.id("trace.decode_event"),
		nPush: tr.id("prep.push"), nApply: tr.id("sim.apply"), nDeliver: tr.id("faults.deliver"), nMsync: tr.id("nvram.msync"),
	}
	ch.inj = faults.NewInjector(prof, func(now int64, d faults.Delivery, replay bool) {
		ch.step.Server().DeliverWriteback(d.File, d.Seq)
	})
	ch.inj.SetClock(ch.clk)
	if img != nil {
		ch.inj.AttachImage(img)
	}
	simCfg := sim.Config{Model: cache.ModelUnified, Cache: cfg}
	simCfg.Cache.Hooks = &cache.ServerHooks{
		Write: func(now int64, file uint64, r interval.Range, cause cache.Cause, stable bool) {
			ch.scratch = append(ch.scratch, faults.Delivery{
				Client: ch.step.CurrentClient(), File: file, Start: r.Start, End: r.End,
				Cause: uint8(cause), Stable: stable,
			})
		},
	}
	ch.step = sim.NewStepper(nil, simCfg)
	return ch
}

// handle pushes one event through the chain. Adjacent spans share a
// clock reading, so a traced event costs one reading per boundary.
func (ch *chain) handle(req int64, e trace.Event) error {
	tr := ch.tr
	t0 := tr.tick()
	ch.buf = trace.AppendEvent(ch.buf[:0], e)
	t1 := tr.tick()
	d, _, err := trace.DecodeEvent(ch.buf)
	if err == nil {
		err = d.Validate()
	}
	if err != nil {
		return err
	}
	t2 := tr.tick()
	now := ch.clk.Now()
	if now <= ch.last {
		now = ch.last + 1
	}
	ch.last = now
	d.Time = now
	op, ok, err := ch.canon.Push(d)
	if err != nil {
		return err
	}
	t3 := tr.tick()
	if ok {
		if err := ch.step.Apply(op); err != nil {
			return err
		}
	}
	t4 := tr.tick()
	root := tr.add(ch.nRequest, noParent, req, t0, t4)
	tr.add(ch.nAppend, root, req, t0, t1)
	tr.add(ch.nDecode, root, req, t1, t2)
	tr.add(ch.nPush, root, req, t2, t3)
	tr.add(ch.nApply, root, req, t3, t4)

	ch.events++
	for _, dl := range ch.scratch {
		var before int64
		if tr.on() && ch.img != nil {
			before = ch.img.Stats().MsyncNanos
		}
		s0 := tr.tick()
		ch.inj.Deliver(ch.clk.Now(), dl)
		s1 := tr.tick()
		ch.deliveries++
		if !tr.on() {
			continue
		}
		ch.deliverNS = append(ch.deliverNS, s1-s0)
		id := tr.add(ch.nDeliver, noParent, req, s0, s1)
		if ch.img != nil {
			// The image's own time inside Deliver, from its counters.
			if ms := ch.img.Stats().MsyncNanos - before; ms > 0 {
				tr.add(ch.nMsync, id, req, s1-ms, s1)
			}
		}
	}
	ch.scratch = ch.scratch[:0]
	return nil
}

func (ch *chain) run(events []trace.Event) (time.Duration, error) {
	ch.tr.reserve(7 * len(events)) // five spans an event, two more a delivery
	t := time.Now()
	for i, e := range events {
		if err := ch.handle(int64(i), e); err != nil {
			return 0, fmt.Errorf("chain replica, event %d: %w", i, err)
		}
	}
	return time.Since(t), nil
}

// chainLayers runs the replica traced and then untraced over the same
// events, each on a fresh image in dir, and reports the request-path
// layers. The traced run's chain is returned with its image still open.
func (c *run) chainLayers(res *result, events []trace.Event, cfg cache.Config, prof faults.Profile, dir string) (*chain, error) {
	openImage := func(name string) (*nvram.Image, error) {
		img, _, err := nvram.OpenImage(filepath.Join(dir, name), nvram.ImageOptions{})
		return img, err
	}
	img, err := openImage("chain-traced.img")
	if err != nil {
		return nil, err
	}
	first := len(c.tr.spans)
	ch := newChain(c.tr, cfg, prof, img)
	tracedWall, err := ch.run(events)
	if err != nil {
		img.Close()
		return nil, err
	}
	plainImg, err := openImage("chain-plain.img")
	if err != nil {
		img.Close()
		return nil, err
	}
	plainWall, err := newChain(nil, cfg, prof, plainImg).run(events)
	plainImg.Close()
	if err != nil {
		img.Close()
		return nil, err
	}

	c.logf("  chain replica: %d events traced in %v, untraced in %v", len(events), tracedWall, plainWall)
	tot := c.tr.totalsByName(first)
	res.set("trace.append_event_ns", "ns", tot["trace.append_event"].meanDur())
	res.set("trace.decode_event_ns", "ns", tot["trace.decode_event"].meanDur())
	res.set("prep.push_ns", "ns", tot["prep.push"].meanDur())
	res.set("sim.apply_ns.unified", "ns", tot["sim.apply"].meanDur())
	res.set("trace_overhead_frac", "frac", (tracedWall.Seconds()-plainWall.Seconds())/plainWall.Seconds())
	fs := ch.inj.Stats()
	res.set("faults.attempts", "count", float64(fs.Attempts))
	res.set("faults.exhausted", "count", float64(fs.Exhausted))
	res.set("faults.nvram_high_water", "bytes", float64(fs.NVRAMHighWater))
	is := img.Stats()
	res.set("nvram.image_puts", "count", float64(is.Puts))
	res.set("nvram.compactions", "count", float64(is.Compactions))
	if is.Puts > 0 {
		res.set("nvram.msync_ns", "ns", float64(is.MsyncNanos)/float64(is.Msyncs))
		res.set("nvram.msyncs_per_put", "count", float64(is.Msyncs)/float64(is.Puts))
		res.set("nvram.appended_bytes_per_put", "bytes", float64(is.AppendedBytes)/float64(is.Puts))
	}
	if d := tot["faults.deliver"]; d.Count > 0 {
		if fs.Exhausted == 0 {
			res.set("faults.deliver_ns", "ns", d.meanDur())
		} else {
			// Deliver's own time: its span minus the image's msync time.
			res.set("faults.park_self_ns", "ns", float64(d.Self)/float64(d.Count))
		}
	}
	return ch, nil
}

// inprocRTT serves the events from an in-process daemon.Server over one
// loopback connection and returns the median round trip in microseconds.
func (c *run) inprocRTT(events []trace.Event, cfg cache.Config) (float64, error) {
	srv, _, err := daemon.New(daemon.Config{
		Org: cache.ModelUnified, Cache: cfg, Faults: faults.Profile{Net: &netmodel.Params{}},
	})
	if err != nil {
		return 0, err
	}
	defer srv.Shutdown(time.Second)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ln) }()
	cl, err := daemon.Dial(ln.Addr().String(), 10*time.Second)
	if err != nil {
		return 0, err
	}
	defer cl.Close()
	if len(events) > inprocSends {
		events = events[:inprocSends]
	}
	lat := make([]int64, 0, len(events))
	id := c.tr.open("daemon.inproc", noParent, 0)
	t := time.Now()
	for _, e := range events {
		if _, err := cl.Send(e); err != nil {
			return 0, fmt.Errorf("in-process daemon: %w", err)
		}
		now := time.Now()
		lat = append(lat, int64(now.Sub(t)))
		t = now
	}
	c.tr.finish(id)
	cl.Close()
	srv.Shutdown(time.Second)
	if err := <-served; err != nil {
		return 0, err
	}
	return float64(percentile(sortedCopy(lat), 50)) / 1e3, nil
}

// sendP50 is the median client.send span recorded since from, in
// microseconds.
func (t *tracer) sendP50(from int) float64 {
	var d []int64
	send := t.id("client.send")
	for _, s := range t.spans[from:] {
		if s.Name == send {
			d = append(d, s.End-s.Start)
		}
	}
	sort.Slice(d, func(i, j int) bool { return d[i] < d[j] })
	return float64(percentile(d, 50)) / 1e3
}

// shortened is the run with a third of the seconds (at least two): the
// traced run's real-daemon part, there for the Stats-frame diagnostics
// and the client-side spans, not for end-to-end numbers.
func (c *run) shortened() *run {
	s := *c
	s.seconds = c.seconds / 3
	if s.seconds < 2 {
		s.seconds = 2
	}
	return &s
}

func (c *run) tracedHealthy(name string) (*result, error) {
	first := len(c.tr.spans)
	short := c.shortened()
	var (
		real *result
		err  error
	)
	if name == "daemon_mix" {
		real, err = short.daemonMix()
	} else {
		real, err = short.daemonOpen()
	}
	if err != nil {
		return nil, err
	}
	res := layersOf(real)
	res.set("client.send_p50_us", "us", c.tr.sendP50(first))

	n := chainEvents
	if whole := mixEventsPerSecond * c.seconds; n > whole {
		n = whole
	}
	events, err := mixStream(c.seed, n)
	if err != nil {
		return nil, err
	}
	dir, err := newStateDir(c.stateBase(), name+"-chain")
	if err != nil {
		return nil, err
	}
	defer removeStateDir(dir)
	cfg := daemonCache(8, 2)
	ch, err := c.chainLayers(res, events, cfg, faults.Profile{}, dir)
	if err != nil {
		return nil, err
	}
	ch.img.Close()
	res.set("sim.deliveries_per_event", "count", float64(ch.deliveries)/float64(ch.events))
	if res.Metrics["nvram.image_puts"].Value != 0 {
		res.fail("the healthy replica put %v records into the image, want 0", res.Metrics["nvram.image_puts"].Value)
	}
	res.set("consist.server_ns_per_call", "ns", c.consistLayer(events))

	rtt, err := c.inprocRTT(events, cfg)
	if err != nil {
		return nil, err
	}
	res.set("daemon.rtt_us.inproc", "us", rtt)
	stages := res.Metrics["trace.append_event_ns"].Value + res.Metrics["trace.decode_event_ns"].Value +
		res.Metrics["prep.push_ns"].Value + res.Metrics["sim.apply_ns.unified"].Value
	// Framing, syscalls, admission and the mutex: the round trip less
	// the stages the replica timed.
	res.set("daemon.overhead_us", "us", rtt-stages/1e3)
	return res, nil
}

// putCost times n puts of size-byte payloads under fresh keys, then
// their deletes, and returns mean ns per put and per delete.
func putCost(img *nvram.Image, prefix string, n, size int) (putNS, delNS float64, err error) {
	payload := make([]byte, size)
	t := time.Now()
	for i := 0; i < n; i++ {
		if err := img.Put(nvram.NSStore, fmt.Sprintf("%s%06d", prefix, i), payload); err != nil {
			return 0, 0, err
		}
	}
	putNS = float64(time.Since(t)) / float64(n)
	t = time.Now()
	for i := 0; i < n; i++ {
		if err := img.Delete(nvram.NSStore, fmt.Sprintf("%s%06d", prefix, i)); err != nil {
			return 0, 0, err
		}
	}
	return putNS, float64(time.Since(t)) / float64(n), nil
}

// meanRange is the mean of v[lo:hi], 0 if v is shorter than hi.
func meanRange(v []int64, lo, hi int) float64 {
	if len(v) < hi {
		return 0
	}
	var sum float64
	for _, x := range v[lo:hi] {
		sum += float64(x)
	}
	return sum / float64(hi-lo)
}

func (c *run) tracedPark() (*result, error) {
	first := len(c.tr.spans)
	// The real run is full size: the recovery numbers depend on the
	// backlog's size and are reported nowhere else.
	real, err := c.daemonPark()
	if err != nil {
		return nil, err
	}
	res := layersOf(real)
	res.set("client.send_p50_us", "us", c.tr.sendP50(first))

	dir, err := newStateDir(c.stateBase(), "daemon_park-chain")
	if err != nil {
		return nil, err
	}
	defer removeStateDir(dir)
	events := parkStream(c.seed, c.parkWrites())
	prof, err := faults.ParseSpec(fmt.Sprintf("seed=%d,retries=1,outage=0s+never", c.seed))
	if err != nil {
		return nil, err
	}
	ch, err := c.chainLayers(res, events, daemonCache(1, parkNVRAMMB), *prof, dir)
	if err != nil {
		return nil, err
	}
	// After warm-up (every client's NVRAM full) a write evicts one block.
	warm := int64(parkClients*parkWarmBlock + parkClients)
	if ch.events > warm {
		res.set("sim.deliveries_per_event", "count", float64(ch.deliveries)/float64(ch.events-warm))
	}
	if d := res.Metrics["sim.deliveries_per_event"].Value; d < 0.95 || d > 1.05 {
		res.fail("daemon_park replica made %.3f deliveries per event after warm-up, want 1 within 5%%", d)
	}
	// The same put with the image filled to 1k and to 20k records.
	res.set("nvram.put_ns_at_records.1k", "ns", meanRange(ch.deliverNS, 1000, 1200))
	res.set("nvram.put_ns_at_records.20k", "ns", meanRange(ch.deliverNS, 20000, 20200))
	if len(ch.deliverNS) < 20200 {
		c.logf("  note: %d deliveries are too few for nvram.put_ns_at_records.20k, which reads 0 (it needs --seconds >= %d)",
			len(ch.deliverNS), 20200/parkWritesPerSecond+2)
	}

	// Reopen replays the log the replica left.
	path := ch.img.Path()
	if err := ch.img.Close(); err != nil {
		return nil, err
	}
	t := time.Now()
	img, rec, err := nvram.OpenImage(path, nvram.ImageOptions{})
	if err != nil {
		return nil, err
	}
	reopen := time.Since(t)
	img.Close()
	if rec.Records > 0 {
		res.set("nvram.reopen_ns_per_record", "ns", float64(reopen)/float64(rec.Records))
	}

	// Put and delete on a fresh image, by payload size.
	fresh, _, err := nvram.OpenImage(filepath.Join(dir, "fresh.img"), nvram.ImageOptions{})
	if err != nil {
		return nil, err
	}
	defer fresh.Close()
	const puts = 200
	p64, del, err := putCost(fresh, "s", puts, 64)
	if err != nil {
		return nil, err
	}
	p4k, _, err := putCost(fresh, "l", puts, 4096)
	if err != nil {
		return nil, err
	}
	res.set("nvram.put_ns.64B", "ns", p64)
	res.set("nvram.put_ns.4KiB", "ns", p4k)
	res.set("nvram.delete_ns", "ns", del)
	return res, nil
}
