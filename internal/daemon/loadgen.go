package daemon

// Load generator: replays a trace against a live daemon at a rate
// multiple of trace time, reporting sustained throughput and request
// latency quantiles. Used by nvtrace -replay and the nvramd kill/restart test.

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"nvramfs/internal/stats"
	"nvramfs/internal/trace"
)

// ReplayOptions parameterize a load-generation run.
type ReplayOptions struct {
	// Addr is the daemon's TCP address.
	Addr string
	// Rate is the time-compression factor: 1 replays at trace speed,
	// 1000 at a thousandfold. <= 0 selects as-fast-as-possible.
	Rate float64
	// Conns is the connection count; events partition across connections
	// by client id, preserving per-client order. <= 0 selects 4.
	Conns int
	// Timeout bounds each request round trip (0 means 30s).
	Timeout time.Duration
}

// ReplayReport summarizes a run.
type ReplayReport struct {
	Events    int64
	OK        int64
	Parked    int64
	Shed      int64
	Draining  int64
	Bad       int64
	Errors    int64 // transport errors (connection lost mid-replay)
	Elapsed   time.Duration
	OpsPerSec float64
	P50US     int64
	P99US     int64
}

func (r ReplayReport) String() string {
	return fmt.Sprintf("events=%d ok=%d parked=%d shed=%d errors=%d ops/s=%.0f p50=%dus p99=%dus",
		r.Events, r.OK, r.Parked, r.Shed, r.Errors, r.OpsPerSec, r.P50US, r.P99US)
}

// Replay sends events to a live daemon, pacing each event to its trace
// time divided by Rate, and returns the aggregate report. Events must be
// in non-decreasing time order (a trace.Reader's output is).
func Replay(events []trace.Event, opt ReplayOptions) (ReplayReport, error) {
	if opt.Conns <= 0 {
		opt.Conns = 4
	}
	if opt.Conns > len(events) && len(events) > 0 {
		opt.Conns = len(events)
	}

	// Partition by client id: per-client event order is what the cache
	// models and consistency protocol interpret, so it must survive the
	// fan-out across connections.
	parts := make([][]trace.Event, opt.Conns)
	for _, e := range events {
		i := int(e.Client) % opt.Conns
		parts[i] = append(parts[i], e)
	}

	var (
		counts  [5]atomic.Int64 // indexed by Status
		errs    atomic.Int64
		latMu   sync.Mutex
		lat     = stats.NewReservoir(8192, 1)
		wg      sync.WaitGroup
		dialErr atomic.Value
	)
	start := time.Now()
	for i := 0; i < opt.Conns; i++ {
		part := parts[i]
		if len(part) == 0 {
			continue
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			c, err := Dial(opt.Addr, opt.Timeout)
			if err != nil {
				dialErr.Store(err)
				errs.Add(int64(len(part)))
				return
			}
			defer c.Close()
			for _, e := range part {
				if opt.Rate > 0 {
					due := start.Add(time.Duration(float64(e.Time)/opt.Rate) * time.Microsecond)
					if d := time.Until(due); d > 0 {
						time.Sleep(d)
					}
				}
				t0 := time.Now()
				st, err := c.Send(e)
				if err != nil {
					// The connection is gone (daemon killed, drained, or
					// deadline); the rest of this partition is unsent.
					errs.Add(1)
					return
				}
				latMu.Lock()
				lat.Observe(time.Since(t0).Microseconds())
				latMu.Unlock()
				if int(st) < len(counts) {
					counts[st].Add(1)
				}
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)

	rep := ReplayReport{
		Events:   int64(len(events)),
		OK:       counts[StatusOK].Load(),
		Parked:   counts[StatusParked].Load(),
		Shed:     counts[StatusShedOverload].Load(),
		Draining: counts[StatusDraining].Load(),
		Bad:      counts[StatusBadRequest].Load(),
		Errors:   errs.Load(),
		Elapsed:  elapsed,
		P50US:    lat.Quantile(0.5),
		P99US:    lat.Quantile(0.99),
	}
	if sent := rep.OK + rep.Parked + rep.Shed + rep.Draining + rep.Bad; sent > 0 && elapsed > 0 {
		rep.OpsPerSec = float64(sent) / elapsed.Seconds()
	}
	if err, _ := dialErr.Load().(error); err != nil && rep.OK == 0 {
		return rep, fmt.Errorf("daemon: replay could not connect: %w", err)
	}
	return rep, nil
}
