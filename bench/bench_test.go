package main

import (
	"encoding/json"
	"math"
	"reflect"
	"regexp"
	"strings"
	"testing"
	"time"

	"nvramfs/internal/daemon"
	"nvramfs/internal/trace"
)

func TestPercentileIsNearestRank(t *testing.T) {
	v := []int64{10, 20, 30, 40, 50, 60, 70, 80, 90, 100}
	for _, c := range []struct {
		p    float64
		want int64
	}{{50, 50}, {99, 100}, {90, 90}, {91, 100}, {10, 10}, {1, 10}, {100, 100}} {
		if got := percentile(v, c.p); got != c.want {
			t.Errorf("percentile(%v) = %d, want %d", c.p, got, c.want)
		}
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile of nothing = %d, want 0", got)
	}
	// Six driver calls: p50 is the third smallest, p99 the largest.
	six := []int64{1, 2, 3, 4, 5, 6}
	if percentile(six, 50) != 3 || percentile(six, 99) != 6 {
		t.Errorf("six samples: p50 %d p99 %d, want 3 and 6", percentile(six, 50), percentile(six, 99))
	}
}

func TestMedianAndQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	ten := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}
	if m := median(ten); m != 5.5 {
		t.Errorf("median = %v, want 5.5", m)
	}
	if q1, q3 := quartiles(ten); q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles = %v, %v, want 2.75, 8.25", q1, q3)
	}
	// statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
	if q1, q3 := quartiles([]float64{1, 2, 3, 4, 5}); q1 != 1.5 || q3 != 4.5 {
		t.Errorf("quartiles of five = %v, %v, want 1.5, 4.5", q1, q3)
	}
	// statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
	if q1, q3 := quartiles([]float64{3, 1, 2}); q1 != 1 || q3 != 3 {
		t.Errorf("quartiles of three = %v, %v, want 1, 3", q1, q3)
	}
	s := summarize([]float64{90, 100, 110, 100, 100})
	if s.Median != 100 || s.N != 5 || math.Abs(s.Spread-0.1) > 1e-12 {
		t.Errorf("summarize = %+v, want median 100, spread 0.1, n 5", s)
	}
	if ten[0] != 10 {
		t.Error("median or quartiles reordered their argument")
	}
}

func TestSegmentCuts(t *testing.T) {
	got := segmentCuts(103, 10, 3)
	want := []int{0, 10, 41, 72, 103}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("segmentCuts = %v, want %v", got, want)
	}
	if got := segmentCuts(5, 10, 2); got[1] != 5 || got[3] != 5 {
		t.Errorf("warm-up longer than the run: %v", got)
	}
}

// fakeClock never waits: SleepUntil jumps to the target plus a fixed
// overshoot, the way a real sleep wakes late.
type fakeClock struct {
	now       time.Time
	overshoot time.Duration
}

func (f *fakeClock) Now() time.Time { return f.now }
func (f *fakeClock) SleepUntil(t time.Time) {
	if t.After(f.now) {
		f.now = t.Add(f.overshoot)
	}
}

// fakeSender answers after the scripted service times.
type fakeSender struct {
	clk     *fakeClock
	service []time.Duration
	status  []daemon.Status
	n       int
}

func (s *fakeSender) Send(trace.Event) (daemon.Status, error) {
	s.clk.now = s.clk.now.Add(s.service[s.n%len(s.service)])
	st := daemon.StatusOK
	if s.status != nil {
		st = s.status[s.n%len(s.status)]
	}
	s.n++
	return st, nil
}

const us = time.Microsecond

func TestOpenLoopMeasuresFromDueTime(t *testing.T) {
	clk := &fakeClock{now: time.Unix(1000, 0), overshoot: 10 * us}
	// The third request stalls for 250us on a 100us schedule: the two
	// behind it are sent late through no fault of the generator.
	s := &fakeSender{clk: clk, service: []time.Duration{20 * us, 20 * us, 250 * us, 20 * us, 20 * us, 20 * us}}
	start := clk.now.Add(time.Millisecond)
	segs, err := openLoop(s, clk, make([]trace.Event, 6), []int{0, 0, 6}, start, 100*us, 50*us, 150*us)
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) != 2 || len(segs[0].Lat) != 0 {
		t.Fatalf("want an empty warm-up and one segment, got %+v", segs)
	}
	seg := segs[1]
	wantLat := []int64{int64(30 * us), int64(30 * us), int64(260 * us), int64(180 * us), int64(100 * us), int64(20 * us)}
	if !reflect.DeepEqual(seg.Lat, wantLat) {
		t.Errorf("latency from due time = %v, want %v", seg.Lat, wantLat)
	}
	// Lateness only where the connection was idle at the due time: the
	// three sleeps that overshot, and the last request, sent on time.
	wantLate := []int64{int64(10 * us), int64(10 * us), int64(10 * us), 0}
	if !reflect.DeepEqual(seg.Late, wantLate) {
		t.Errorf("generator lateness = %v, want %v", seg.Late, wantLate)
	}
	if seg.Failed != 2 {
		t.Errorf("failed = %d, want the 2 answered more than 150us after they were due", seg.Failed)
	}
	if seg.Good != 3 {
		t.Errorf("good = %d, want the 3 answered within 50us of when they were due", seg.Good)
	}
	if seg.Elapsed != 520*us {
		t.Errorf("elapsed = %v, want 520us (first due time to last reply)", seg.Elapsed)
	}
}

func TestClosedLoopSegmentsAndVerdicts(t *testing.T) {
	clk := &fakeClock{now: time.Unix(1000, 0)}
	s := &fakeSender{
		clk:     clk,
		service: []time.Duration{50 * us},
		status:  []daemon.Status{daemon.StatusOK, daemon.StatusParked, daemon.StatusShedOverload, daemon.StatusBadRequest},
	}
	segs, err := closedLoop(s, clk, make([]trace.Event, 8), segmentCuts(8, 2, 2))
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) != 3 {
		t.Fatalf("want warm-up + 2 segments, got %d", len(segs))
	}
	for k, want := range []int{2, 3, 3} {
		if len(segs[k].Lat) != want || segs[k].Elapsed != time.Duration(want)*50*us {
			t.Errorf("segment %d: %d samples over %v, want %d over %v", k, len(segs[k].Lat), segs[k].Elapsed, want, time.Duration(want)*50*us)
		}
	}
	// ok and parked are answers; shed and bad-request are failures.
	if f := segs[0].Failed + segs[1].Failed + segs[2].Failed; f != 4 {
		t.Errorf("failed = %d, want 4 of 8 (every shed and bad-request)", f)
	}
}

func TestAggregateSegmentMediansAndFailureShare(t *testing.T) {
	ms := func(n int, each time.Duration) segment {
		s := segment{Elapsed: time.Duration(n) * each, Good: n}
		for i := 0; i < n; i++ {
			s.Lat = append(s.Lat, int64(each))
		}
		return s
	}
	a := []segment{ms(5, time.Millisecond), ms(10, time.Millisecond), ms(10, 2*time.Millisecond)}
	b := []segment{ms(5, time.Millisecond), ms(10, time.Millisecond), ms(4, 2*time.Millisecond)}
	b[2].Failed, b[2].Good = 1, 3
	// Connection b broke 6 requests short of its 30.
	r := aggregate([][]segment{a, b}, []int{25, 30})
	if want := []float64{2000, 875}; !reflect.DeepEqual(r.Rate, want) {
		t.Errorf("good rates = %v, want %v (sum over connections, warm-up left out)", r.Rate, want)
	}
	if want := []float64{2000, 1000}; !reflect.DeepEqual(r.Answered, want) {
		t.Errorf("answered rates = %v, want %v", r.Answered, want)
	}
	if want := []float64{1000, 2000}; !reflect.DeepEqual(r.P50us, want) || !reflect.DeepEqual(r.P99us, want) {
		t.Errorf("p50 %v p99 %v, want %v", r.P50us, r.P99us, want)
	}
	if r.Attempted != 55 || r.Failed != 1+11 {
		t.Errorf("attempted %d failed %d, want 55 and 12 (1 refused + 11 never sent)", r.Attempted, r.Failed)
	}
	if s := summarize(r.Answered); s.Median != 1500 {
		t.Errorf("segment median = %v, want 1500", s.Median)
	}
}

func TestPartitionKeepsClientOrderAndBalance(t *testing.T) {
	var events []trace.Event
	for i := 0; i < 300; i++ {
		c := uint32(1 + i%3) // client 1..3, 100 events each
		if i%10 == 0 {
			c = 9 // and a light one
		}
		events = append(events, trace.Event{Client: c, Offset: int64(i)})
	}
	parts := partitionByClient(events, 2)
	home := map[uint32]int{}
	for k, part := range parts {
		last := map[uint32]int64{}
		for _, e := range part {
			if h, seen := home[e.Client]; seen && h != k {
				t.Fatalf("client %d is on two connections", e.Client)
			}
			home[e.Client] = k
			if e.Offset < last[e.Client] {
				t.Fatalf("client %d out of order on connection %d", e.Client, k)
			}
			last[e.Client] = e.Offset
		}
	}
	if len(parts[0])+len(parts[1]) != 300 {
		t.Errorf("events lost: %d + %d", len(parts[0]), len(parts[1]))
	}
	even, err := evenParts(events, 2, 100)
	if err != nil || len(even[0]) != 100 || len(even[1]) != 100 {
		t.Errorf("evenParts: %v, sizes %d %d", err, len(even[0]), len(even[1]))
	}
	if _, err := evenParts(events, 2, 250); err == nil {
		t.Error("evenParts accepted a share no connection can fill")
	}
}

func TestSelfTimeIsParentMinusChildren(t *testing.T) {
	spans := []span{
		{Start: 0, End: 100, Parent: noParent},   // 0: two overlapping children and one apart
		{Start: 10, End: 40, Parent: 0},          // 1
		{Start: 30, End: 60, Parent: 0},          // 2: overlaps 1 by 10
		{Start: 80, End: 90, Parent: 0},          // 3
		{Start: 15, End: 20, Parent: 1},          // 4: a grandchild takes nothing from 0
		{Start: 200, End: 250, Parent: noParent}, // 5: no children
		{Start: 240, End: 300, Parent: 5},        // 6: a child that outlives its parent
	}
	want := []int64{100 - 50 - 10, 30 - 5, 30, 10, 5, 50 - 10, 60}
	if got := selfTimes(spans); !reflect.DeepEqual(got, want) {
		t.Errorf("self times = %v, want %v", got, want)
	}
}

func TestTracerOffRecordsNothing(t *testing.T) {
	var tr *tracer
	if tr.on() || tr.tick() != 0 || tr.add(tr.id("x"), noParent, 1, 0, 5) != noParent {
		t.Error("a nil tracer must read no clock and store nothing")
	}
	on := newTracer()
	p := on.open("parent", noParent, 7)
	on.add(on.id("child"), p, 7, on.tick(), on.tick())
	on.finish(p)
	tot := on.totalsByName(0)
	if tot["parent"].Count != 1 || tot["child"].Count != 1 || tot["parent"].Self > tot["parent"].Dur {
		t.Errorf("totals = %+v", tot)
	}
}

func TestJudge(t *testing.T) {
	m := func(v, spread float64) metric { return metric{Value: v, Spread: spread} }
	for _, c := range []struct {
		name   string
		a, b   metric
		higher bool
		bound  float64
		want   verdict
	}{
		{"slower within bound", m(100, 0.01), m(108, 0.01), false, 0.10, verdictOK},
		{"slower beyond bound", m(100, 0.01), m(115, 0.01), false, 0.10, verdictRegression},
		{"faster", m(100, 0.5), m(80, 0.5), false, 0.10, verdictOK},
		{"throughput fell beyond bound", m(1000, 0.01), m(850, 0.01), true, 0.10, verdictRegression},
		{"throughput rose", m(1000, 0.01), m(1200, 0.01), true, 0.10, verdictOK},
		{"worse but the spread hides it", m(100, 0.2), m(115, 0.01), false, 0.10, verdictUnresolved},
	} {
		if _, got := judge(c.a, c.b, c.higher, c.bound); got != c.want {
			t.Errorf("%s: %s, want %s", c.name, got, c.want)
		}
	}
}

func TestCompareCountsDigestsAndFailureShare(t *testing.T) {
	spec := loadSpec(t)
	base := func() *record {
		r := newResult("daemon_mix")
		r.Attempted, r.Failed = 1000, 1
		r.InputDigest = "abc"
		r.Counts["events_sent"] = 1000
		for _, d := range endToEnd {
			r.Metrics[d.Name] = metric{Value: 100, Unit: d.Unit, Spread: 0.01, N: 5}
		}
		return &record{Env: environment{Seed: 1, Seconds: 12}, Results: []*result{r}}
	}
	var sb strings.Builder
	if bad, unresolved := compareResults(spec, base(), base(), &sb); bad != 0 || unresolved != 0 {
		t.Errorf("identical records: %d regressions, %d unresolved\n%s", bad, unresolved, sb.String())
	}
	worse := base()
	worse.Results[0].Failed = 2
	if bad, _ := compareResults(spec, base(), worse, &sb); bad != 1 {
		t.Errorf("a larger failed share must be one regression, got %d", bad)
	}
	moved := base()
	moved.Results[0].Counts["events_sent"] = 999
	moved.Results[0].InputDigest = "abd"
	if bad, _ := compareResults(spec, base(), moved, &sb); bad != 2 {
		t.Errorf("a count and a digest moved: want 2 regressions, got %d", bad)
	}
	other := base()
	other.Env.Seed = 2
	other.Results[0].InputDigest = "xyz"
	if bad, _ := compareResults(spec, base(), other, &sb); bad != 0 {
		t.Errorf("another seed's digest is not comparable, got %d regressions", bad)
	}
	slow := base()
	m := slow.Results[0].Metrics["ops_per_s"]
	m.Value = 10
	slow.Results[0].Metrics["ops_per_s"] = m
	if bad, _ := compareResults(spec, base(), slow, &sb); bad != 1 {
		t.Errorf("a tenth of the throughput: want 1 regression, got %d", bad)
	}
	// Worse by less than a spread wider than the bound: neither a
	// regression nor "no regression".
	noisy := base()
	m = noisy.Results[0].Metrics["ops_per_s"]
	m.Value, m.Spread = 90, 0.5
	noisy.Results[0].Metrics["ops_per_s"] = m
	if bad, unresolved := compareResults(spec, base(), noisy, &sb); bad != 0 || unresolved != 1 {
		t.Errorf("a spread wider than the bound: want 0 regressions and 1 unresolved, got %d and %d", bad, unresolved)
	}
}

func loadSpec(t *testing.T) *benchmarkFile {
	t.Helper()
	spec, err := loadBenchmarkFile("..")
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

// The contract's limits on BENCHMARK.json, and the names this program
// prints against the names the file lists.
func TestBenchmarkFileMatchesProgram(t *testing.T) {
	spec := loadSpec(t)
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(kind, n string) {
		t.Helper()
		if !name.MatchString(n) {
			t.Errorf("%s name %q does not match %s", kind, n, name)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}

	if n := len(spec.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2..8", n)
	}
	var workloads []string
	for _, w := range spec.Workloads {
		check("workload", w.Name)
		if w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters, got %d", w.Name, len(w.Why))
		}
		workloads = append(workloads, w.Name)
	}
	if !reflect.DeepEqual(workloads, workloadNames) {
		t.Errorf("workloads in the file %v, in the program %v", workloads, workloadNames)
	}

	if n := len(spec.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1..16", n)
	}
	var e2e []metricDef
	setup := false
	for _, m := range spec.EndToEnd {
		check("end-to-end", m.Name)
		if !unitRE.MatchString(m.Unit) {
			t.Errorf("%s: unit %q", m.Name, m.Unit)
		}
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("%s: better = %q, want lower or higher", m.Name, m.Better)
		}
		if m.Bound == nil || *m.Bound <= 0 || *m.Bound > 0.25 {
			t.Errorf("%s: bound %v, want one in (0, 0.25]", m.Name, m.Bound)
		}
		if m.Name == "setup_s" {
			setup = m.Unit == "s" && m.Better == "lower"
		}
		e2e = append(e2e, metricDef{m.Name, m.Unit})
	}
	if !setup {
		t.Error("no setup_s metric with unit s and better lower")
	}
	if !reflect.DeepEqual(e2e, endToEnd) {
		t.Errorf("end-to-end metrics in the file %v, in the program %v", e2e, endToEnd)
	}

	if n := len(spec.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1..128", n)
	}
	var layers []metricDef
	for _, m := range spec.PerLayer {
		check("per-layer", m.Name)
		if !unitRE.MatchString(m.Unit) {
			t.Errorf("%s: unit %q", m.Name, m.Unit)
		}
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("%s: better = %q, want lower or higher", m.Name, m.Better)
		}
		layers = append(layers, metricDef{m.Name, m.Unit})
	}
	if !reflect.DeepEqual(layers, perLayer) {
		t.Errorf("per-layer metrics differ:\nfile    %v\nprogram %v", layers, perLayer)
	}

	if spec.RunSeconds < 1 || spec.RunSeconds > 60 {
		t.Errorf("run_seconds %d, want 1..60", spec.RunSeconds)
	}
	if len(spec.Paths) != 1 || spec.Paths[0] != "bench" {
		t.Errorf("paths %v, want [bench]", spec.Paths)
	}
	for _, arg := range spec.Command {
		if strings.HasPrefix(arg, "/") || strings.Contains(arg, "..") {
			t.Errorf("command argument %q leaves the checkout", arg)
		}
	}
}

// The line a harness reads has exactly the contract's keys, and every
// metric of the run's kind.
func TestResultLineShape(t *testing.T) {
	res := newResult("daemon_mix")
	res.Attempted = 10
	res.set("ops_per_s", "1/s", 123.5)
	for _, tracing := range []bool{false, true} {
		var line map[string]json.RawMessage
		if err := json.Unmarshal([]byte(resultLine(res, tracing)), &line); err != nil {
			t.Fatal(err)
		}
		var keys []string
		for k := range line {
			keys = append(keys, k)
		}
		if len(keys) != 4 || line["correct"] == nil || line["attempted"] == nil || line["failed"] == nil || line["metrics"] == nil {
			t.Errorf("keys %v, want exactly correct, attempted, failed, metrics", keys)
		}
		var metrics map[string]struct {
			Value *float64 `json:"value"`
			Unit  string   `json:"unit"`
		}
		if err := json.Unmarshal(line["metrics"], &metrics); err != nil {
			t.Fatal(err)
		}
		defs := endToEnd
		if tracing {
			defs = perLayer
		}
		if len(metrics) != len(defs) {
			t.Errorf("tracing=%v: %d metrics, want %d", tracing, len(metrics), len(defs))
		}
		for _, d := range defs {
			if m, ok := metrics[d.Name]; !ok || m.Value == nil || m.Unit != d.Unit {
				t.Errorf("tracing=%v: metric %s missing or without value and unit %q", tracing, d.Name, d.Unit)
			}
		}
	}
}

func TestInputsComeFromTheSeed(t *testing.T) {
	a := streamDigest([][]trace.Event{parkStream(1, 64)})
	if b := streamDigest([][]trace.Event{parkStream(1, 64)}); a != b {
		t.Error("the same seed gave different park streams")
	}
	if b := streamDigest([][]trace.Event{parkStream(2, 64)}); a == b {
		t.Error("two seeds gave the same park stream")
	}
	events := parkStream(3, 64)
	if len(events) != 64+parkClients {
		t.Fatalf("%d events, want %d writes and %d opens", len(events), 64, parkClients)
	}
	next := map[uint32]int64{}
	for _, e := range events[parkClients:] {
		if e.Op != trace.OpWrite || e.Length != parkBlock || e.Offset != next[e.Client] {
			t.Fatalf("client %d: %v, want a sequential %d-byte write at %d", e.Client, e, parkBlock, next[e.Client])
		}
		next[e.Client] += parkBlock
	}
	if u := unit(1); u < 0 || u >= 1 || u == unit(2) {
		t.Errorf("unit(1) = %v, unit(2) = %v", u, unit(2))
	}
	if err := requireCPUs(1); err == nil {
		t.Error("two connections on one CPU must be refused")
	}
	if err := requireCPUs(2); err != nil {
		t.Error(err)
	}
}
