package report

import (
	"context"
	"fmt"
	"io"
	"slices"
	"text/tabwriter"

	"nvramfs/internal/cache"
	"nvramfs/internal/engine"
	"nvramfs/internal/lifetime"
	"nvramfs/internal/sim"
	"nvramfs/internal/workload"
)

// DefaultDelayMinutes is the write-back-delay sweep of Figure 2 (log
// scale, 0.01 to 10000 minutes; 0.5 min is Sprite's 30-second delay).
var DefaultDelayMinutes = []float64{0.01, 0.03, 0.1, 0.3, 0.5, 1, 3, 10, 30, 100, 300, 1000, 10000}

// DefaultNVRAMSizesMB is the NVRAM size sweep of Figures 3 and 4.
var DefaultNVRAMSizesMB = []float64{0.0625, 0.125, 0.25, 0.5, 1, 2, 4, 8, 16, 32}

// DefaultExtraMB is the added-memory sweep of Figures 5 and 6.
var DefaultExtraMB = []float64{0, 0.5, 1, 2, 4, 6, 8}

// ModelTrace is the trace the paper uses for its model and policy
// comparisons (Figures 4-6): "a typical trace (Trace 7)".
const ModelTrace = 7

// --- Figure 2: byte lifetimes ---

// Figure2Result holds net write traffic (fraction of written bytes
// eventually sent to the server) per trace and write-back delay.
type Figure2Result struct {
	DelayMinutes []float64
	// Frac[trace][i] is the net write fraction of standard trace (index
	// 0 = trace 1) at DelayMinutes[i].
	Frac [][]float64
	// Dead30s is the fraction of written bytes dying within 30 seconds,
	// the paper's headline lifetime statistic per trace.
	Dead30s []float64
}

// Figure2Context runs the byte-lifetime sweep over the standard traces;
// the per-trace analyses run concurrently on the workspace engine.
func Figure2Context(ctx context.Context, ws *Workspace) (*Figure2Result, error) {
	traces := AllTraces()
	type traceRow struct {
		frac []float64
		dead float64
	}
	rows, err := engine.Map(ctx, ws.Engine(), len(traces), func(ctx context.Context, i int) (traceRow, error) {
		a, err := ws.AnalysisContext(ctx, traces[i])
		if err != nil {
			return traceRow{}, err
		}
		row := traceRow{frac: make([]float64, len(DefaultDelayMinutes))}
		for j, m := range DefaultDelayMinutes {
			row.frac[j] = a.NetWriteFracAt(Minutes(m))
		}
		row.dead = float64(a.DeadWithin(Minutes(0.5))) / float64(a.Fate.Total)
		return row, nil
	})
	if err != nil {
		return nil, err
	}
	res := &Figure2Result{DelayMinutes: DefaultDelayMinutes}
	for _, row := range rows {
		res.Frac = append(res.Frac, row.frac)
		res.Dead30s = append(res.Dead30s, row.dead)
	}
	return res, nil
}

// Render writes the figure as a table of series.
func (r *Figure2Result) Render(w io.Writer) error {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "Figure 2: net write traffic (%) vs write-back delay (minutes), infinite cache")
	fmt.Fprint(tw, "delay(min)")
	for i := range r.Frac {
		fmt.Fprintf(tw, "\ttrace%d", i+1)
	}
	fmt.Fprintln(tw)
	for i, m := range r.DelayMinutes {
		fmt.Fprintf(tw, "%10.2f", m)
		for _, row := range r.Frac {
			fmt.Fprintf(tw, "\t%5.1f", row[i]*100)
		}
		fmt.Fprintln(tw)
	}
	return tw.Flush()
}

// --- Table 2: fate of written bytes ---

// Table2Result aggregates byte fates across all traces and across the
// typical traces (all but 3 and 4), as the paper's Table 2 does.
type Table2Result struct {
	All      lifetime.Fate
	Typical  lifetime.Fate // excluding traces 3 and 4
	PerTrace map[int]lifetime.Fate
}

// Table2Context runs the infinite-cache fate analysis over the standard
// traces; analyses run concurrently and the cross-trace totals are
// accumulated in trace order.
func Table2Context(ctx context.Context, ws *Workspace) (*Table2Result, error) {
	traces := AllTraces()
	fates, err := engine.Map(ctx, ws.Engine(), len(traces), func(ctx context.Context, i int) (lifetime.Fate, error) {
		a, err := ws.AnalysisContext(ctx, traces[i])
		if err != nil {
			return lifetime.Fate{}, err
		}
		return a.Fate, nil
	})
	if err != nil {
		return nil, err
	}
	res := &Table2Result{PerTrace: make(map[int]lifetime.Fate)}
	add := func(dst *lifetime.Fate, f lifetime.Fate) {
		dst.Overwritten += f.Overwritten
		dst.Deleted += f.Deleted
		dst.CalledBack += f.CalledBack
		dst.Concurrent += f.Concurrent
		dst.Remaining += f.Remaining
		dst.Total += f.Total
	}
	for i, tr := range traces {
		res.PerTrace[tr] = fates[i]
		add(&res.All, fates[i])
		if !workload.HeavyTrace(tr) {
			add(&res.Typical, fates[i])
		}
	}
	return res, nil
}

// Render writes the fate table with megabyte and percentage columns.
func (r *Table2Result) Render(w io.Writer) error {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "Table 2: fate of all bytes written into an infinite non-volatile cache")
	fmt.Fprintln(tw, "traffic type\tMB all\tMB no3/4\t% all\t% no3/4")
	row := func(name string, get func(lifetime.Fate) int64) {
		a, t := r.All, r.Typical
		fmt.Fprintf(tw, "%s\t%.0f\t%.0f\t%.2f\t%.2f\n", name,
			float64(get(a))/(1<<20), float64(get(t))/(1<<20),
			pct(get(a), a.Total), pct(get(t), t.Total))
	}
	row("Never overwritten", func(f lifetime.Fate) int64 { return f.Overwritten })
	row("Deleted", func(f lifetime.Fate) int64 { return f.Deleted })
	row("Total absorbed", func(f lifetime.Fate) int64 { return f.Absorbed() })
	row("Called back", func(f lifetime.Fate) int64 { return f.CalledBack })
	row("Concurrent writes", func(f lifetime.Fate) int64 { return f.Concurrent })
	row("Total server writes", func(f lifetime.Fate) int64 { return f.ServerBytes() })
	row("Remaining", func(f lifetime.Fate) int64 { return f.Remaining })
	row("Total application writes", func(f lifetime.Fate) int64 { return f.Total })
	return tw.Flush()
}

func pct(part, total int64) float64 {
	if total == 0 {
		return 0
	}
	return 100 * float64(part) / float64(total)
}

// --- Figures 3 and 4: replacement policies ---

// PolicySweepResult holds net write traffic per NVRAM size for one or
// more (trace, policy) series.
type PolicySweepResult struct {
	SizesMB []float64
	// Series maps a label (e.g. "trace7/lru") to net write fractions.
	Labels []string
	Frac   [][]float64
}

// Figure3Context runs the omniscient unified-model sweep for every
// standard trace (writes only, as in the paper's Figure 3 methodology).
// It reads every (trace, NVRAM size) cell through the workspace's cell
// memo (cellTraffic): each trace's row is one lockstep job that replays
// the trace once for every size. Rows assemble in trace order, so the
// output is identical at any worker count.
func Figure3Context(ctx context.Context, ws *Workspace) (*PolicySweepResult, error) {
	traces := AllTraces()
	res := &PolicySweepResult{SizesMB: DefaultNVRAMSizesMB}
	series := make([][]cellKey, len(traces))
	for i, tr := range traces {
		series[i] = sweepKeys(tr, cache.Omniscient, true)
		res.Labels = append(res.Labels, fmt.Sprintf("trace%d", tr))
	}
	var err error
	res.Frac, err = ws.cellRows(ctx, series, (*cache.Traffic).NetWriteFrac)
	if err != nil {
		return nil, err
	}
	return res, nil
}

// figure4Series are the replacement policies Figure 4 compares on the
// model trace. The realistic policies include read traffic's effect on
// replacement; the omniscient series, as in the paper, does not.
var figure4Series = []struct {
	label      string
	kind       cache.PolicyKind
	writesOnly bool
}{
	{"lru", cache.LRU, false},
	{"random", cache.Random, false},
	{"omniscient", cache.Omniscient, true},
}

// Figure4Context compares LRU, random, and omniscient replacement on the
// model trace. It reads each policy series' cells through the cell memo,
// assembling the series in declaration order. The omniscient series is
// Figure 3's trace-7 row and the LRU series shares five cells with
// Figure 5's unified series, so after those figures only the cells no
// earlier call simulated cost a job.
func Figure4Context(ctx context.Context, ws *Workspace) (*PolicySweepResult, error) {
	res := &PolicySweepResult{SizesMB: DefaultNVRAMSizesMB}
	series := make([][]cellKey, len(figure4Series))
	for i, pc := range figure4Series {
		series[i] = sweepKeys(ModelTrace, pc.kind, pc.writesOnly)
		res.Labels = append(res.Labels, pc.label)
	}
	var err error
	res.Frac, err = ws.cellRows(ctx, series, (*cache.Traffic).NetWriteFrac)
	if err != nil {
		return nil, err
	}
	return res, nil
}

// sweepKeys returns one (trace, policy) series of the Figure 3/4 grids:
// the unified model over an 8 MB volatile cache, at each NVRAM size.
func sweepKeys(tr int, kind cache.PolicyKind, writesOnly bool) []cellKey {
	keys := make([]cellKey, len(DefaultNVRAMSizesMB))
	for i, mb := range DefaultNVRAMSizesMB {
		keys[i] = cellKey{trace: tr, model: cache.ModelUnified, policy: kind, writesOnly: writesOnly,
			volBlocks: mbBlocks(8), nvBlocks: mbBlocks(mb)}
	}
	return keys
}

// Render writes the sweep as a table of series.
func (r *PolicySweepResult) Render(w io.Writer) error {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "Net write traffic (%) vs NVRAM size (MB), unified model")
	fmt.Fprint(tw, "MB NVRAM")
	for _, l := range r.Labels {
		fmt.Fprintf(tw, "\t%s", l)
	}
	fmt.Fprintln(tw)
	for i, mb := range r.SizesMB {
		fmt.Fprintf(tw, "%8.3f", mb)
		for _, row := range r.Frac {
			fmt.Fprintf(tw, "\t%5.1f", row[i]*100)
		}
		fmt.Fprintln(tw)
	}
	return tw.Flush()
}

// --- Figures 5 and 6: cache model comparison ---

// ModelCompareResult holds net total traffic per added megabyte for
// several (model, base size) series.
type ModelCompareResult struct {
	ExtraMB []float64
	Labels  []string
	Frac    [][]float64
}

// modelSeries is one series of the Figure 5/6 comparisons: a cache model
// growing from a base volatile size.
type modelSeries struct {
	label  string
	model  cache.ModelKind
	baseMB float64
}

var figure5Series = []modelSeries{
	{"volatile", cache.ModelVolatile, 8},
	{"write-aside", cache.ModelWriteAside, 8},
	{"unified", cache.ModelUnified, 8},
}

var figure6Series = []modelSeries{
	{"volatile-8MB", cache.ModelVolatile, 8},
	{"volatile-16MB", cache.ModelVolatile, 16},
	{"unified-8MB", cache.ModelUnified, 8},
	{"unified-16MB", cache.ModelUnified, 16},
}

// Figure5Context compares the three cache models on the model trace,
// each starting from an 8 MB volatile cache: the volatile series adds
// volatile memory, the NVRAM series add NVRAM.
func Figure5Context(ctx context.Context, ws *Workspace) (*ModelCompareResult, error) {
	return modelCompare(ctx, ws, figure5Series)
}

// Figure6Context compares volatile and unified growth from 8 MB and
// 16 MB bases.
func Figure6Context(ctx context.Context, ws *Workspace) (*ModelCompareResult, error) {
	return modelCompare(ctx, ws, figure6Series)
}

// key is the series' cell at extra added megabytes: volatile memory for
// the volatile model, NVRAM otherwise.
func (mc modelSeries) key(extra float64) cellKey {
	k := cellKey{trace: ModelTrace, model: mc.model, policy: cache.LRU,
		volBlocks: mbBlocks(mc.baseMB), nvBlocks: mbBlocks(extra)}
	if mc.model == cache.ModelVolatile || extra == 0 {
		// Zero NVRAM degenerates to the volatile organization; all
		// three series share their starting point.
		k.model, k.volBlocks, k.nvBlocks = cache.ModelVolatile, mbBlocks(mc.baseMB+extra), 0
	}
	return k
}

// modelCompare reads every (series, extra MB) cell through the
// workspace's cell memo and assembles the series in declaration order.
func modelCompare(ctx context.Context, ws *Workspace, series []modelSeries) (*ModelCompareResult, error) {
	res := &ModelCompareResult{ExtraMB: DefaultExtraMB}
	keys := make([][]cellKey, len(series))
	for i, mc := range series {
		for _, extra := range DefaultExtraMB {
			keys[i] = append(keys[i], mc.key(extra))
		}
		res.Labels = append(res.Labels, mc.label)
	}
	var err error
	res.Frac, err = ws.cellRows(ctx, keys, (*cache.Traffic).NetTotalFrac)
	if err != nil {
		return nil, err
	}
	return res, nil
}

// cellKey is the canonical configuration of one simulated grid cell of
// Figures 3-6 and the bus study: the trace, the cache model after the
// zero-NVRAM fallback, the replacement policy, whether reads are
// dropped, and the memories in blocks. The rest of the configuration is
// common to every cell (the seed is the trace index, the block size the
// default, and an omniscient cell's schedule is its trace's), so equal
// keys are equal simulations.
type cellKey struct {
	trace      int
	model      cache.ModelKind
	policy     cache.PolicyKind
	writesOnly bool
	volBlocks  int
	nvBlocks   int // 0 for the volatile model, which has no NVRAM
}

// mbBlocks converts megabytes of cache memory to default-size blocks.
func mbBlocks(mb float64) int {
	return sim.BlocksForBytes(int64(mb*float64(sim.MB)), cache.DefaultBlockSize)
}

// group is the part of the key that one lockstep job's cells share.
// sim.Broadcast yokes one model kind and one writes-only setting at a
// time, and one replay serves one trace.
func (k cellKey) group() cellKey {
	k.volBlocks, k.nvBlocks = 0, 0
	return k
}

// config is the cell's simulation configuration; sched is the trace's
// omniscient schedule, or nil for the other policies.
func (k cellKey) config(sched cache.Schedule) sim.Config {
	return sim.Config{
		Model: k.model,
		Cache: cache.Config{
			VolatileBlocks: k.volBlocks,
			NVRAMBlocks:    k.nvBlocks,
			Policy:         k.policy,
			Schedule:       sched,
		},
		Seed:       int64(k.trace),
		WritesOnly: k.writesOnly,
	}
}

// cellRows reads every series' cells through the memo and maps each
// cell's traffic through frac, one row per series.
func (ws *Workspace) cellRows(ctx context.Context, series [][]cellKey, frac func(*cache.Traffic) float64) ([][]float64, error) {
	var keys []cellKey
	for _, s := range series {
		keys = append(keys, s...)
	}
	traffic, err := ws.cellTraffic(ctx, keys)
	if err != nil {
		return nil, err
	}
	rows := make([][]float64, len(series))
	for i, s := range series {
		rows[i] = make([]float64, len(s))
		for j := range s {
			rows[i][j] = frac(&traffic[0])
			traffic = traffic[1:]
		}
	}
	return rows, nil
}

// cellTraffic returns each key's traffic, simulating only the keys no
// earlier call has memoized. The missing keys are grouped by
// cellKey.group, in order of first appearance, and each group is one
// engine job that drives a stepper per key over one replay of its trace;
// an omniscient group fetches its trace's schedule inside the job. A cell
// is a pure function of its key, so which call simulates it never changes
// what any call returns; two concurrent callers may both simulate a key
// and store the same traffic.
func (ws *Workspace) cellTraffic(ctx context.Context, keys []cellKey) ([]cache.Traffic, error) {
	var groups [][]cellKey
	queued := make(map[cellKey]bool)
	ws.cellsMu.Lock()
	for _, k := range keys {
		if _, ok := ws.cells[k]; ok || queued[k] {
			continue
		}
		queued[k] = true
		i := slices.IndexFunc(groups, func(g []cellKey) bool { return g[0].group() == k.group() })
		if i < 0 {
			i = len(groups)
			groups = append(groups, nil)
		}
		groups[i] = append(groups[i], k)
	}
	ws.cellsMu.Unlock()

	results, err := engine.Map(ctx, ws.Engine(), len(groups), func(ctx context.Context, i int) ([]*sim.Result, error) {
		g := groups[i]
		var sched cache.Schedule
		if g[0].policy == cache.Omniscient {
			s, err := ws.ScheduleContext(ctx, g[0].trace)
			if err != nil {
				return nil, err
			}
			sched = s
		}
		cfgs := make([]sim.Config, len(g))
		for j, k := range g {
			cfgs[j] = k.config(sched)
		}
		res, _, err := ws.lockstep(ctx, g[0].trace, cfgs)
		return res, err
	})
	if err != nil {
		return nil, err
	}

	ws.cellsMu.Lock()
	defer ws.cellsMu.Unlock()
	if ws.cells == nil {
		ws.cells = make(map[cellKey]cache.Traffic)
	}
	for i, g := range groups {
		for j, k := range g {
			ws.cells[k] = results[i][j].Traffic
		}
	}
	out := make([]cache.Traffic, len(keys))
	for i, k := range keys {
		out[i] = ws.cells[k]
	}
	return out, nil
}

// Render writes the comparison as a table of series.
func (r *ModelCompareResult) Render(w io.Writer) error {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "Net total traffic (%) vs added memory (MB), Trace 7")
	fmt.Fprint(tw, "extra MB")
	for _, l := range r.Labels {
		fmt.Fprintf(tw, "\t%s", l)
	}
	fmt.Fprintln(tw)
	for i, mb := range r.ExtraMB {
		fmt.Fprintf(tw, "%8.1f", mb)
		for _, row := range r.Frac {
			fmt.Fprintf(tw, "\t%5.1f", row[i]*100)
		}
		fmt.Fprintln(tw)
	}
	return tw.Flush()
}

// Series returns the labeled series as a map for further analysis (the
// cost study consumes Figure 6 this way).
func (r *ModelCompareResult) Series(label string) []float64 {
	for i, l := range r.Labels {
		if l == label {
			return r.Frac[i]
		}
	}
	return nil
}

// --- Section 2.6: memory bus and NVRAM access claims ---

// BusResult quantifies the write-path memory-bus traffic and NVRAM
// accesses of the two NVRAM models with 8 MB volatile + 8 MB NVRAM.
type BusResult struct {
	WriteAsideBusWrite int64
	UnifiedBusWrite    int64
	WriteAsideNVRAM    int64
	UnifiedNVRAM       int64
	AppWriteBytes      int64
}

// BusTrafficContext measures the Section 2.6 claims on the model trace:
// write-aside stores every written byte twice (2x bus traffic), the
// unified model stores once plus occasional transfers (>=25% less), and
// the unified model makes 2-2.5x as many NVRAM accesses. It reads the two
// models' 8 MB + 8 MB cells, which are Figure 5's +8 MB cells, from the
// workspace's memoized model traffic.
func BusTrafficContext(ctx context.Context, ws *Workspace) (*BusResult, error) {
	traffic, err := ws.cellTraffic(ctx, []cellKey{
		modelSeries{model: cache.ModelWriteAside, baseMB: 8}.key(8),
		modelSeries{model: cache.ModelUnified, baseMB: 8}.key(8),
	})
	if err != nil {
		return nil, err
	}
	wa, un := traffic[0], traffic[1]
	return &BusResult{
		WriteAsideBusWrite: wa.BusWriteBytes,
		UnifiedBusWrite:    un.BusWriteBytes,
		WriteAsideNVRAM:    wa.NVRAMAccesses,
		UnifiedNVRAM:       un.NVRAMAccesses,
		AppWriteBytes:      wa.AppWriteBytes,
	}, nil
}

// Render writes the claim comparison.
func (r *BusResult) Render(w io.Writer) error {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "Section 2.6: write-path bus traffic and NVRAM accesses (8 MB + 8 MB, Trace 7)")
	fmt.Fprintf(tw, "write-aside bus-write bytes\t%d\t(%.2fx app writes)\n",
		r.WriteAsideBusWrite, float64(r.WriteAsideBusWrite)/float64(r.AppWriteBytes))
	fmt.Fprintf(tw, "unified bus-write bytes\t%d\t(%.2fx app writes)\n",
		r.UnifiedBusWrite, float64(r.UnifiedBusWrite)/float64(r.AppWriteBytes))
	fmt.Fprintf(tw, "unified/write-aside bus ratio\t%.2f\t(paper: at least 25%% less)\n",
		float64(r.UnifiedBusWrite)/float64(r.WriteAsideBusWrite))
	fmt.Fprintf(tw, "NVRAM accesses write-aside\t%d\n", r.WriteAsideNVRAM)
	fmt.Fprintf(tw, "NVRAM accesses unified\t%d\t(%.2fx; paper: 2-2.5x)\n",
		r.UnifiedNVRAM, float64(r.UnifiedNVRAM)/float64(r.WriteAsideNVRAM))
	return tw.Flush()
}
