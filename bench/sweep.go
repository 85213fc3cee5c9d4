package main

// The two offline workloads: the paper's Section 2 client-cache sweep and
// its Section 3 server study, run through the facade the way nvreport
// does, each repetition on a fresh Workspace and engine.

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"io"
	"sort"
	"time"

	"nvramfs"
	"nvramfs/internal/serverload"
)

// Sweep sizes. The seed moves each by at most 2 %, enough for a second
// seed to be different inputs without changing what a repetition costs.
const (
	clientSweepScale = 0.15
	serverSweepDays  = 4.0
	minSweepReps     = 3
)

// driverCall is one experiment a user would ask nvreport for.
type driverCall struct {
	name string
	run  func(ctx context.Context, out io.Writer) error
}

type renderer interface{ Render(io.Writer) error }

func render[T renderer](f func(context.Context, *nvramfs.Workspace) (T, error), ws *nvramfs.Workspace) func(context.Context, io.Writer) error {
	return func(ctx context.Context, out io.Writer) error {
		r, err := f(ctx, ws)
		if err != nil {
			return err
		}
		return r.Render(out)
	}
}

// clientDrivers are Figures 2-6 and Table 2 on one workspace.
func clientDrivers(ws *nvramfs.Workspace) []driverCall {
	return []driverCall{
		{"fig2", render(nvramfs.Figure2Context, ws)},
		{"table2", render(nvramfs.Table2Context, ws)},
		{"fig3", render(nvramfs.Figure3Context, ws)},
		{"fig4", render(nvramfs.Figure4Context, ws)},
		{"fig5", render(nvramfs.Figure5Context, ws)},
		{"fig6", render(nvramfs.Figure6Context, ws)},
	}
}

// serverDrivers is the server study: Tables 3/4 and the write-buffer study.
func serverDrivers(eng *nvramfs.Engine, d time.Duration) []driverCall {
	return []driverCall{{"server", func(ctx context.Context, out io.Writer) error {
		r, err := nvramfs.ServerStudyContext(ctx, eng, d)
		if err != nil {
			return err
		}
		if err := r.RenderTable3(out); err != nil {
			return err
		}
		if err := r.RenderTable4(out); err != nil {
			return err
		}
		return r.RenderBuffer(out)
	}}}
}

// sweepRep is one repetition's record.
type sweepRep struct {
	wall    time.Duration
	byName  map[string]time.Duration // per driver call
	jobs    int64
	failed  int64
	busy    time.Duration
	peak    int64
	digest  string
	callErr error
}

// latencyUS is the nearest-rank p-th percentile of the repetition's
// driver-call times, in microseconds.
func (r sweepRep) latencyUS(p float64) float64 {
	lat := make([]int64, 0, len(r.byName))
	for _, d := range r.byName {
		lat = append(lat, int64(d))
	}
	return float64(percentile(sortedCopy(lat), p)) / 1e3
}

// sweepOnce builds a fresh engine (and whatever drivers hangs on it), runs
// the drivers in order, and hashes what they render. When tracing, each
// driver call is a span and each engine job a child of it.
func sweepOnce(tr *tracer, rep int, drivers func(*nvramfs.Engine) []driverCall) sweepRep {
	eng := nvramfs.NewEngine(engineWorkers)
	var h hash.Hash = sha256.New()
	out := sweepRep{byName: map[string]time.Duration{}}

	var parent int32 = noParent
	if tr.on() {
		// The engine serializes its hooks, so the starts map needs no lock.
		starts := map[int]int64{}
		job := tr.id("engine.job")
		eng.SetHooks(nvramfs.EngineHooks{
			JobStarted: func(i, total int) { starts[i] = tr.tick() },
			JobFinished: func(i, total int, err error) {
				tr.add(job, parent, int64(rep), starts[i], tr.tick())
			},
		})
	}
	ctx := context.Background()
	t0 := time.Now()
	for _, d := range drivers(eng) {
		parent = tr.open("report."+d.name, noParent, int64(rep))
		t := time.Now()
		err := d.run(ctx, h)
		el := time.Since(t)
		if tr.on() {
			tr.finish(parent)
		}
		if err != nil && out.callErr == nil {
			out.callErr = fmt.Errorf("%s: %w", d.name, err)
		}
		out.byName[d.name] = el
	}
	out.wall = time.Since(t0)
	m := eng.Metrics()
	out.jobs, out.failed, out.busy, out.peak = m.JobsFinished, m.JobsFailed, m.Busy, m.PeakConcurrent
	out.digest = hex.EncodeToString(h.Sum(nil))
	return out
}

// clientInputs is sweep_client's set-up: generate and encode the standard
// traces at the sweep's scale, and hash the encoding. (A Workspace
// generates its own copies inside each repetition; this is the same
// work once more, timed apart, and the digest that says two runs swept
// the same inputs.)
func clientInputs(scale float64) func() (string, error) {
	return func() (string, error) {
		h := sha256.New()
		for i := 1; i <= nvramfs.NumStandardTraces; i++ {
			if _, err := nvramfs.WriteStandardTrace(h, i, scale); err != nil {
				return "", err
			}
		}
		return hex.EncodeToString(h.Sum(nil)), nil
	}
}

// serverInputs is sweep_server's set-up: play every server profile for
// the sweep's duration into a sink that only hashes the calls.
func serverInputs(d time.Duration) func() (string, error) {
	return func() (string, error) {
		h := sha256.New()
		var rec [33]byte
		call := func(kind byte, now int64, file uint64, off, n int64) {
			rec[0] = kind
			binary.LittleEndian.PutUint64(rec[1:], uint64(now))
			binary.LittleEndian.PutUint64(rec[9:], file)
			binary.LittleEndian.PutUint64(rec[17:], uint64(off))
			binary.LittleEndian.PutUint64(rec[25:], uint64(n))
			h.Write(rec[:])
		}
		for _, p := range serverload.StandardProfiles() {
			serverload.RunAgainst(p, serverload.Target{
				Write:    func(now int64, file uint64, off, n int64) { call('w', now, file, off, n) },
				Fsync:    func(now int64, file uint64) { call('f', now, file, 0, 0) },
				Delete:   func(now int64, file uint64) { call('d', now, file, 0, 0) },
				Shutdown: func(now int64) { call('s', now, 0, 0, 0) },
			}, d)
		}
		return hex.EncodeToString(h.Sum(nil)), nil
	}
}

// runSweep repeats sweepOnce until the run's seconds are used (at least
// minSweepReps times) and reports the medians over repetitions.
func (c *run) runSweep(name string, inputs func() (string, error), drivers func(*nvramfs.Engine) []driverCall) (*result, error) {
	res := newResult(name)
	digest, err := timeSetup(res, inputs, func(string) {})
	if err != nil {
		return nil, err
	}
	res.InputDigest = digest
	var (
		reps       []sweepRep
		rate, p50  []float64
		p99, walls []float64
	)
	deadline := time.Now().Add(time.Duration(c.seconds) * time.Second)
	for len(reps) < minSweepReps || time.Now().Before(deadline) {
		rep := sweepOnce(nil, len(reps), drivers)
		reps = append(reps, rep)
		res.Attempted += rep.jobs
		res.Failed += rep.failed
		if rep.callErr != nil {
			res.fail("repetition %d: %v", len(reps), rep.callErr)
			break
		}
		rate = append(rate, 1/rep.wall.Seconds())
		p50 = append(p50, rep.latencyUS(50))
		p99 = append(p99, rep.latencyUS(99))
		walls = append(walls, rep.wall.Seconds())
		c.logf("  repetition %d: %.3fs, %d jobs", len(reps), rep.wall.Seconds(), rep.jobs)
	}
	res.SimDigest = reps[0].digest
	for i, rep := range reps {
		if rep.digest != res.SimDigest {
			res.fail("repetition %d rendered %s, repetition 1 rendered %s", i+1, rep.digest, res.SimDigest)
		}
	}
	// Repetitions per second, not engine jobs per second: a change that
	// merges or drops passes does the same sweep with fewer jobs.
	res.setSummary("ops_per_s", "1/s", summarize(rate))
	res.Diagnostics["jobs_per_repetition"] = float64(reps[0].jobs)
	res.Diagnostics["latency.p50_us"] = median(p50)
	res.Diagnostics["latency.p99_us"] = median(p99)
	mem, err := peakRSSMiB("self")
	if err != nil {
		return nil, err
	}
	res.Diagnostics["mem.peak_rss_mb"] = mem
	res.Diagnostics["repetition_s"] = median(walls)
	res.Diagnostics["repetitions"] = float64(len(reps))
	return res, nil
}

func (c *run) clientScale() float64 { return clientSweepScale * (1 + 0.02*unit(c.seed)) }

func (c *run) serverDuration() time.Duration {
	return time.Duration(serverSweepDays * (1 + 0.02*unit(c.seed)) * 24 * float64(time.Hour))
}

func (c *run) sweepClient() (*result, error) {
	scale := c.clientScale()
	return c.runSweep("sweep_client", clientInputs(scale), func(eng *nvramfs.Engine) []driverCall {
		ws := nvramfs.NewWorkspace(scale)
		ws.SetEngine(eng)
		return clientDrivers(ws)
	})
}

func (c *run) sweepServer() (*result, error) {
	d := c.serverDuration()
	return c.runSweep("sweep_server", serverInputs(d), func(eng *nvramfs.Engine) []driverCall {
		return serverDrivers(eng, d)
	})
}

// sortedNames returns m's keys in order, for stable printing.
func sortedNames[V any](m map[string]V) []string {
	names := make([]string, 0, len(m))
	for k := range m {
		names = append(names, k)
	}
	sort.Strings(names)
	return names
}
