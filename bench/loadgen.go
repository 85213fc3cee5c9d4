package main

// The benchmark's own load generator. daemon.Replay is closed-loop only
// and keeps an 8192-sample reservoir; this one keeps every latency
// sample, cuts a run into a fixed-count warm-up plus equal measured
// segments, and can drive each connection on a fixed schedule, timing
// each request from the instant it was due.

import (
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"sync"
	"syscall"
	"time"
	"unsafe"

	"nvramfs/internal/daemon"
	"nvramfs/internal/trace"
)

// sender is the part of daemon.Client the generator uses.
type sender interface {
	Send(trace.Event) (daemon.Status, error)
}

// clock lets the tests drive the open-loop schedule without waiting.
type clock interface {
	Now() time.Time
	SleepUntil(time.Time)
}

// wallClock sleeps rather than spins: on a two-core box a spinning
// generator would take a core from the daemon it is measuring. It sleeps
// in the kernel (nanosleep) because a Go timer shorter than a millisecond
// is rounded up to one whenever the runtime is also polling the network,
// which a load generator always is. What the sleep still overshoots by
// is reported as generator lateness.
type wallClock struct{}

func (wallClock) Now() time.Time { return time.Now() }
func (wallClock) SleepUntil(t time.Time) {
	for d := time.Until(t); d > 0; d = time.Until(t) {
		ts := syscall.NsecToTimespec(int64(d))
		syscall.Nanosleep(&ts, nil) // EINTR: the loop sleeps the rest
	}
}

// minTimerSlack drops the calling thread's timer slack from the default
// 50us to the minimum, so the open-loop schedule is kept by sleeping,
// not by spinning. With the default every wake-up is up to 50 us late:
// the median from due time read 125-129 us where it reads 79-83 us.
// The caller has locked the thread.
func minTimerSlack() {
	const prSetTimerslack = 29
	syscall.Syscall(syscall.SYS_PRCTL, prSetTimerslack, 1, 0) // best effort: failure only means later wake-ups
}

// keepCPUsAwake runs one spinning child process per CPU at SCHED_IDLE
// priority until the returned stop function is called. An open-loop run
// leaves the CPUs idle most of the time, and on a virtual machine waking
// a halted CPU costs the host's time, which varies severalfold from hour
// to hour: the host's latency, not the daemon's. Five pairs of runs,
// alternating: with the CPUs left to halt the median from due time was
// 97-123 us, generator lateness p99 103-139 us and goodput within 300 us
// 3275-3714/s (2408/s in a slow phase, median 265 us); kept awake,
// 79-83 us, 37-47 us and 3756-3903/s. A SCHED_IDLE process runs only
// when its CPU has nothing else to do and is preempted the moment
// anything else wakes, so it takes no time from the daemon. (Children,
// not goroutines: a spinning goroutine would hold one of this process's
// own scheduler slots at full priority.)
func keepCPUsAwake(logf func(string, ...any)) (stop func()) {
	self, err := os.Executable()
	if err != nil {
		logf("  cannot find this executable (%v): CPUs are left to idle", err)
		return func() {}
	}
	var spinners []*exec.Cmd
	for i := 0; i < runtime.NumCPU(); i++ {
		cmd := exec.Command(self, "-idle-spin")
		cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
		cmd.Stderr = os.Stderr
		if err := cmd.Start(); err != nil {
			logf("  cannot start an idle spinner (%v): CPUs are left to idle", err)
			break
		}
		spinners = append(spinners, cmd)
	}
	return func() {
		for _, cmd := range spinners {
			cmd.Process.Kill()
			// A spinner that could not lower its priority has exited by
			// itself with a message on its standard error; nothing spun.
			cmd.Wait()
		}
	}
}

// idleSpin is the body of a spinner child: drop to SCHED_IDLE, then spin
// until killed. Without the priority it must not spin at all.
func idleSpin() {
	runtime.LockOSThread()
	const schedIdle = 5
	var param struct{ priority int32 }
	if _, _, errno := syscall.Syscall(syscall.SYS_SCHED_SETSCHEDULER, 0, schedIdle, uintptr(unsafe.Pointer(&param))); errno != 0 {
		fmt.Fprintf(os.Stderr, "bench: cannot set SCHED_IDLE: %v\n", errno)
		os.Exit(3)
	}
	for {
	}
}

// segment is one connection's record of one stretch of a run. Segment 0
// of a run is the warm-up and is never reported.
type segment struct {
	Lat     []int64 // ns per request, every sample kept
	Late    []int64 // open loop: ns a send started after its due time on an idle connection
	Elapsed time.Duration
	Good    int // answered, and in an open loop within the goodput limit of the due time
	Failed  int
}

// segmentCuts splits n requests into a warm-up of warm followed by nseg
// measured segments of equal size (the remainder goes to the last).
// cuts[k]:cuts[k+1] is segment k.
func segmentCuts(n, warm, nseg int) []int {
	if warm > n {
		warm = n
	}
	cuts := make([]int, nseg+2)
	cuts[1] = warm
	per := (n - warm) / nseg
	for k := 1; k <= nseg; k++ {
		cuts[k+1] = warm + k*per
	}
	cuts[nseg+1] = n
	return cuts
}

// verdictFailed reports whether a verdict counts as a failed operation:
// anything but ok or parked was refused.
func verdictFailed(st daemon.Status) bool {
	return st != daemon.StatusOK && st != daemon.StatusParked
}

// closedLoop sends events back to back, the next one as soon as the
// previous reply returns. A transport error ends the run; the caller
// counts what was not sent as failed.
func closedLoop(s sender, clk clock, events []trace.Event, cuts []int) ([]segment, error) {
	segs := make([]segment, len(cuts)-1)
	t := clk.Now()
	for k := range segs {
		part := events[cuts[k]:cuts[k+1]]
		seg := segment{Lat: make([]int64, 0, len(part))}
		start := t
		for _, e := range part {
			st, err := s.Send(e)
			if err != nil {
				segs[k] = seg
				return segs, fmt.Errorf("send: %w", err)
			}
			done := clk.Now()
			seg.Lat = append(seg.Lat, int64(done.Sub(t)))
			if verdictFailed(st) {
				seg.Failed++
			} else {
				seg.Good++
			}
			t = done
		}
		seg.Elapsed = t.Sub(start)
		segs[k] = seg
	}
	return segs, nil
}

// openLoop sends event i at start + i*interval whatever the replies do.
// Latency runs from the due time, so a stall charges every request that
// queued behind it. A request answered within good of its due time counts
// towards goodput; one answered later than limit counts as failed.
// Lateness is recorded only for sends whose connection was idle when they
// fell due: that part is the generator's own, the rest is the daemon's.
func openLoop(s sender, clk clock, events []trace.Event, cuts []int, start time.Time, interval, good, limit time.Duration) ([]segment, error) {
	segs := make([]segment, len(cuts)-1)
	prevDone := clk.Now()
	for k := range segs {
		lo, hi := cuts[k], cuts[k+1]
		seg := segment{Lat: make([]int64, 0, hi-lo), Late: make([]int64, 0, hi-lo)}
		for i := lo; i < hi; i++ {
			due := start.Add(time.Duration(i) * interval)
			now := prevDone
			if now.Before(due) {
				clk.SleepUntil(due)
				now = clk.Now()
			}
			if !prevDone.After(due) {
				seg.Late = append(seg.Late, int64(now.Sub(due)))
			}
			st, err := s.Send(events[i])
			if err != nil {
				segs[k] = seg
				return segs, fmt.Errorf("send: %w", err)
			}
			prevDone = clk.Now()
			lat := prevDone.Sub(due)
			seg.Lat = append(seg.Lat, int64(lat))
			switch {
			case verdictFailed(st) || lat > limit:
				seg.Failed++
			case lat <= good:
				seg.Good++
			}
		}
		if hi > lo {
			seg.Elapsed = prevDone.Sub(start.Add(time.Duration(lo) * interval))
		}
		segs[k] = seg
	}
	return segs, nil
}

// loadResult is a run summed over its connections, one value per
// measured segment.
type loadResult struct {
	Rate      []float64 // good requests/s: sum over connections of good/elapsed
	Answered  []float64 // the same over every answered request
	P50us     []float64
	P99us     []float64
	Attempted int64 // warm-up included: every request is checked
	Failed    int64
	LateP99us float64 // open loop, measured segments only
	Over50ms  int64   // measured requests that took longer than 50 ms
}

// aggregate merges the per-connection segments. planned is how many
// requests each connection was given; what a broken connection left
// unsent counts as failed.
func aggregate(conns [][]segment, planned []int) loadResult {
	var r loadResult
	nseg := 0
	for _, c := range conns {
		if len(c) > nseg {
			nseg = len(c)
		}
	}
	var late []int64
	for k := 0; k < nseg; k++ {
		var lat []int64
		rate, answered := 0.0, 0.0
		for _, c := range conns {
			if k >= len(c) {
				continue
			}
			seg := c[k]
			r.Failed += int64(seg.Failed)
			if k == 0 {
				continue
			}
			lat = append(lat, seg.Lat...)
			late = append(late, seg.Late...)
			if seg.Elapsed > 0 {
				rate += float64(seg.Good) / seg.Elapsed.Seconds()
				answered += float64(len(seg.Lat)) / seg.Elapsed.Seconds()
			}
		}
		if k == 0 {
			continue
		}
		sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
		r.Rate = append(r.Rate, rate)
		r.Answered = append(r.Answered, answered)
		r.Over50ms += int64(len(lat) - sort.Search(len(lat), func(i int) bool { return lat[i] > int64(50*time.Millisecond) }))
		r.P50us = append(r.P50us, float64(percentile(lat, 50))/1e3)
		r.P99us = append(r.P99us, float64(percentile(lat, 99))/1e3)
	}
	for i, c := range conns {
		sent := 0
		for _, seg := range c {
			sent += len(seg.Lat)
		}
		r.Attempted += int64(planned[i])
		r.Failed += int64(planned[i] - sent)
	}
	r.LateP99us = float64(percentile(sortedCopy(late), 99)) / 1e3
	return r
}

// partitionByClient spreads events over conns connections keeping each
// client's events in order on one connection (per-client order is what
// the cache models interpret). Clients are dealt heaviest first to the
// lightest connection so the connections finish together.
func partitionByClient(events []trace.Event, conns int) [][]trace.Event {
	count := map[uint32]int{}
	for _, e := range events {
		count[e.Client]++
	}
	clients := make([]uint32, 0, len(count))
	for c := range count {
		clients = append(clients, c)
	}
	sort.Slice(clients, func(i, j int) bool {
		if count[clients[i]] != count[clients[j]] {
			return count[clients[i]] > count[clients[j]]
		}
		return clients[i] < clients[j]
	})
	load := make([]int, conns)
	home := map[uint32]int{}
	for _, c := range clients {
		best := 0
		for k := 1; k < conns; k++ {
			if load[k] < load[best] {
				best = k
			}
		}
		home[c] = best
		load[best] += count[c]
	}
	parts := make([][]trace.Event, conns)
	for k := range parts {
		parts[k] = make([]trace.Event, 0, load[k])
	}
	for _, e := range events {
		k := home[e.Client]
		parts[k] = append(parts[k], e)
	}
	return parts
}

// loadPlan says how one run drives its connections.
type loadPlan struct {
	warmFrac float64       // share of each connection's events that is warm-up
	segments int           // measured segments
	rate     float64       // open loop: total requests/s over all connections; 0 = closed loop
	good     time.Duration // open loop: answered within this of the due time = goodput
	limit    time.Duration // open loop: answered later than this after due = failed
}

// drive dials one connection per part, starts them together, and runs
// the plan on each. tr, when tracing, records a client.send span per
// request.
func drive(addr string, parts [][]trace.Event, plan loadPlan, tr *tracer, logf func(string, ...any)) (loadResult, error) {
	if plan.rate > 0 {
		defer keepCPUsAwake(logf)()
	}
	clients := make([]*daemon.Client, len(parts))
	for i := range parts {
		c, err := daemon.Dial(addr, 30*time.Second)
		if err != nil {
			for _, d := range clients[:i] {
				d.Close()
			}
			return loadResult{}, fmt.Errorf("dial %s: %w", addr, err)
		}
		clients[i] = c
	}
	var (
		wg      sync.WaitGroup
		conns   = make([][]segment, len(parts))
		errs    = make([]error, len(parts))
		planned = make([]int, len(parts))
		clk     = wallClock{}
		// Connections start a little in the future so every goroutine is
		// parked on the same instant rather than on goroutine start-up.
		start = time.Now().Add(20 * time.Millisecond)
	)
	for i, part := range parts {
		planned[i] = len(part)
		cuts := segmentCuts(len(part), int(plan.warmFrac*float64(len(part))), plan.segments)
		var s sender = clients[i]
		if tr.on() {
			s = &tracedSender{inner: clients[i], tr: tr, name: tr.id("client.send"), base: int64(i) << 32}
		}
		wg.Add(1)
		go func(i int, part []trace.Event) {
			defer wg.Done()
			defer clients[i].Close()
			errs[i] = onCPU(generatorCPU, func() error {
				var err error
				if plan.rate > 0 {
					minTimerSlack()
					// Each connection carries an equal share of the rate,
					// offset so the connections' due times interleave.
					interval := time.Duration(float64(len(parts)) / plan.rate * float64(time.Second))
					offset := interval * time.Duration(i) / time.Duration(len(parts))
					conns[i], err = openLoop(s, clk, part, cuts, start.Add(offset), interval, plan.good, plan.limit)
					return err
				}
				clk.SleepUntil(start)
				conns[i], err = closedLoop(s, clk, part, cuts)
				return err
			})
		}(i, part)
	}
	wg.Wait()
	res := aggregate(conns, planned)
	for _, err := range errs {
		if err != nil {
			return res, err
		}
	}
	return res, nil
}

// tracedSender records one client.send span per request; the request id
// is the connection number in the high half and the sequence in the low.
type tracedSender struct {
	inner sender
	tr    *tracer
	name  nameID
	base  int64
	n     int64
}

func (t *tracedSender) Send(e trace.Event) (daemon.Status, error) {
	start := t.tr.tick()
	st, err := t.inner.Send(e)
	t.tr.add(t.name, noParent, t.base|t.n, start, t.tr.tick())
	t.n++
	return st, err
}
