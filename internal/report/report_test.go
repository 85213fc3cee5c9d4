package report

import (
	"bytes"
	"context"
	"reflect"
	"strings"
	"testing"
	"time"

	"nvramfs/internal/cache"
	"nvramfs/internal/engine"
	"nvramfs/internal/prep"
	"nvramfs/internal/sim"
)

// testWS returns a small-scale workspace shared by the report tests.
var sharedWS = NewWorkspace(0.03)

func TestFigure2Shape(t *testing.T) {
	r, err := Figure2Context(context.Background(), sharedWS)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Frac) != 8 {
		t.Fatalf("%d traces", len(r.Frac))
	}
	for i, row := range r.Frac {
		// Monotone decreasing in delay, within [0,1].
		for j := range row {
			if row[j] < 0 || row[j] > 1 {
				t.Fatalf("trace %d frac out of range: %f", i+1, row[j])
			}
			if j > 0 && row[j] > row[j-1]+1e-9 {
				t.Fatalf("trace %d not monotone", i+1)
			}
		}
	}
	// Typical traces lose a large share of bytes within 30 seconds; heavy
	// traces (3, 4) lose very little.
	if r.Dead30s[0] < 0.20 {
		t.Errorf("trace1 dead-in-30s = %.2f, paper band 0.35-0.50", r.Dead30s[0])
	}
	if r.Dead30s[2] > 0.20 {
		t.Errorf("trace3 dead-in-30s = %.2f, paper band 0.05-0.10", r.Dead30s[2])
	}
	var buf bytes.Buffer
	if err := r.Render(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "trace8") {
		t.Fatal("render missing series")
	}
}

func TestTable2Shape(t *testing.T) {
	r, err := Table2Context(context.Background(), sharedWS)
	if err != nil {
		t.Fatal(err)
	}
	if r.All.Total <= r.Typical.Total {
		t.Fatal("all-traces total should exceed typical total")
	}
	// Deletion dominates the absorbed bytes, as in the paper.
	if r.All.Deleted < r.All.Overwritten {
		t.Error("overwrites exceed deletions, unlike the paper's Table 2")
	}
	// Absorption is higher with traces 3 and 4 included (85% vs 65%).
	fracAll := float64(r.All.Absorbed()) / float64(r.All.Total)
	fracTyp := float64(r.Typical.Absorbed()) / float64(r.Typical.Total)
	if fracAll <= fracTyp {
		t.Errorf("absorption all=%.2f <= typical=%.2f; traces 3/4 should raise it", fracAll, fracTyp)
	}
	var buf bytes.Buffer
	if err := r.Render(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "Called back") {
		t.Fatal("render missing rows")
	}
}

func TestFigure4Shape(t *testing.T) {
	r, err := Figure4Context(context.Background(), sharedWS)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Labels) != 3 {
		t.Fatalf("labels = %v", r.Labels)
	}
	find := func(label string) []float64 {
		for i, l := range r.Labels {
			if l == label {
				return r.Frac[i]
			}
		}
		t.Fatalf("no %s series", label)
		return nil
	}
	lru, rnd, omni := find("lru"), find("random"), find("omniscient")
	// All series decrease with NVRAM size (allowing small noise).
	for _, s := range [][]float64{lru, rnd, omni} {
		if s[0] < s[len(s)-1] {
			t.Fatalf("series not decreasing: %v", s)
		}
	}
	// LRU and random are close (the paper's surprise); omniscient is best
	// at every size up to tolerance.
	for i := range lru {
		if d := lru[i] - rnd[i]; d > 0.15 || d < -0.15 {
			t.Errorf("size %d: lru %.2f vs random %.2f differ too much", i, lru[i], rnd[i])
		}
		if omni[i] > lru[i]+0.05 {
			t.Errorf("size %d: omniscient %.2f worse than lru %.2f", i, omni[i], lru[i])
		}
	}
	var buf bytes.Buffer
	if err := r.Render(&buf); err != nil {
		t.Fatal(err)
	}
}

func TestFigure5Shape(t *testing.T) {
	r, err := Figure5Context(context.Background(), sharedWS)
	if err != nil {
		t.Fatal(err)
	}
	uni := r.Series("unified")
	vol := r.Series("volatile")
	wa := r.Series("write-aside")
	if uni == nil || vol == nil || wa == nil {
		t.Fatalf("missing series: %v", r.Labels)
	}
	// All three start from the same configuration.
	if uni[0] != vol[0] || wa[0] != vol[0] {
		t.Errorf("series do not share a starting point: %v %v %v", vol[0], wa[0], uni[0])
	}
	// With substantial extra memory the unified model beats write-aside
	// (it reduces read traffic too).
	last := len(uni) - 1
	if uni[last] > wa[last] {
		t.Errorf("unified %.3f worse than write-aside %.3f at +8MB", uni[last], wa[last])
	}
	var buf bytes.Buffer
	if err := r.Render(&buf); err != nil {
		t.Fatal(err)
	}
}

func TestFigure6AndCostStudy(t *testing.T) {
	r, err := Figure6Context(context.Background(), sharedWS)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Labels) != 4 {
		t.Fatalf("labels = %v", r.Labels)
	}
	// A 16 MB base produces less traffic than an 8 MB base for both models.
	v8, v16 := r.Series("volatile-8MB"), r.Series("volatile-16MB")
	if v16[0] > v8[0] {
		t.Errorf("16MB base (%.3f) worse than 8MB base (%.3f)", v16[0], v8[0])
	}
	cs := CostStudy(r)
	if len(cs.Rows) == 0 {
		t.Fatal("no cost rows")
	}
	var buf bytes.Buffer
	if err := cs.Render(&buf); err != nil {
		t.Fatal(err)
	}
	if err := RenderTable1(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "DRAM") {
		t.Fatal("table 1 render missing DRAM row")
	}
}

func TestBusTrafficClaims(t *testing.T) {
	r, err := BusTrafficContext(context.Background(), sharedWS)
	if err != nil {
		t.Fatal(err)
	}
	// Write-aside stores every written byte twice (bytes written while
	// caching is disabled by concurrent sharing bypass both memories, so
	// the ratio sits just below 2).
	ratio := float64(r.WriteAsideBusWrite) / float64(r.AppWriteBytes)
	if ratio < 1.90 || ratio > 2.01 {
		t.Errorf("write-aside bus ratio = %.2f, want ~2.0", ratio)
	}
	// Unified bus traffic is at least 25% below write-aside.
	if f := float64(r.UnifiedBusWrite) / float64(r.WriteAsideBusWrite); f > 0.75 {
		t.Errorf("unified/write-aside bus = %.2f, paper: <= 0.75", f)
	}
	// Unified makes substantially more NVRAM accesses.
	if f := float64(r.UnifiedNVRAM) / float64(r.WriteAsideNVRAM); f < 1.2 {
		t.Errorf("unified/write-aside NVRAM accesses = %.2f, paper: 2-2.5", f)
	}
	var buf bytes.Buffer
	if err := r.Render(&buf); err != nil {
		t.Fatal(err)
	}
}

func TestServerStudyShape(t *testing.T) {
	r, err := ServerStudyContext(context.Background(), engine.New(0), 8*time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 8 {
		t.Fatalf("%d rows", len(r.Rows))
	}
	byName := map[string]ServerRow{}
	var shareSum float64
	for _, row := range r.Rows {
		byName[row.Name] = row
		shareSum += row.ShareOfSegments
	}
	if shareSum < 0.99 || shareSum > 1.01 {
		t.Errorf("segment shares sum to %.3f", shareSum)
	}
	u6 := byName["/user6"]
	if u6.FsyncPartialFrac < 0.8 {
		t.Errorf("/user6 fsync-partial = %.2f", u6.FsyncPartialFrac)
	}
	if u6.ShareOfSegments < 0.5 {
		t.Errorf("/user6 share = %.2f, paper: 89%%", u6.ShareOfSegments)
	}
	if u6.Reduction() < 0.6 {
		t.Errorf("/user6 buffer reduction = %.2f, paper: ~0.90", u6.Reduction())
	}
	if sw := byName["/swap1"]; sw.FsyncPartialFrac != 0 {
		t.Errorf("/swap1 fsync partials = %f", sw.FsyncPartialFrac)
	}
	var buf bytes.Buffer
	if err := r.RenderTable3(&buf); err != nil {
		t.Fatal(err)
	}
	if err := r.RenderTable4(&buf); err != nil {
		t.Fatal(err)
	}
	if err := r.RenderBuffer(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "/sprite/src/kernel") {
		t.Fatal("render missing file systems")
	}
}

func TestSortedBufferReport(t *testing.T) {
	r := SortedBuffer()
	if len(r.Depths) == 0 {
		t.Fatal("empty result")
	}
	for i := 1; i < len(r.Utilization); i++ {
		if r.Utilization[i] < r.Utilization[i-1] {
			t.Fatal("utilization not monotone in depth")
		}
	}
	var buf bytes.Buffer
	if err := r.Render(&buf); err != nil {
		t.Fatal(err)
	}
}

func TestWorkspaceCaching(t *testing.T) {
	ws := NewWorkspace(0.02)
	src, err := ws.OpsSourceContext(context.Background(), 1)
	if err != nil {
		t.Fatal(err)
	}
	a, err := prep.Collect(src)
	if err != nil {
		t.Fatal(err)
	}
	src, err = ws.OpsSourceContext(context.Background(), 1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := prep.Collect(src)
	if err != nil {
		t.Fatal(err)
	}
	// Independent cursors over the one cached encoding must replay the
	// identical op stream.
	if !reflect.DeepEqual(a, b) {
		t.Fatal("repeated OpsSource cursors decoded different streams")
	}
	st, err := ws.TraceStatsContext(context.Background(), 1)
	if err != nil || st.BytesWritten == 0 {
		t.Fatalf("stats: %+v, %v", st, err)
	}
	if st.Ops != int64(len(a)) {
		t.Fatalf("stats report %d ops, cursor decoded %d", st.Ops, len(a))
	}
}

func TestAblationsShape(t *testing.T) {
	r, err := AblationsContext(context.Background(), sharedWS)
	if err != nil {
		t.Fatal(err)
	}
	// Dirty preference can only reduce replacement write-backs.
	if r.PreferReplBytes > r.PlainReplBytes {
		t.Errorf("preference increased replacement traffic: %d > %d",
			r.PreferReplBytes, r.PlainReplBytes)
	}
	// The hybrid model exposes a nonzero share of writes in volatile
	// memory; the unified model exposes none.
	if r.HybridVulnerableFrac <= 0 {
		t.Error("hybrid exposed no writes")
	}
	// Block-level consistency never recalls more than whole-file.
	if r.BlockCalledBackFrac > r.WholeFileCalledBackFrac+1e-9 {
		t.Errorf("block-level recalls more: %.3f > %.3f",
			r.BlockCalledBackFrac, r.WholeFileCalledBackFrac)
	}
	// Rosenblum's cost-benefit cleaner copies no more live data than
	// greedy under the hot/cold update regime it targets.
	if r.GreedyCopied == 0 || r.CostBenefitCopied == 0 {
		t.Error("cleaner ablation measured no copying")
	}
	if r.CostBenefitCopied > r.GreedyCopied {
		t.Errorf("cost-benefit copied more than greedy: %d > %d",
			r.CostBenefitCopied, r.GreedyCopied)
	}
	var buf bytes.Buffer
	if err := r.Render(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "block-by-block") {
		t.Fatal("render incomplete")
	}
}

func TestHybridModelRunsThroughSim(t *testing.T) {
	src, err := sharedWS.OpsSourceContext(context.Background(), 1)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.Run(src, sim.Config{
		Model: cache.ModelHybrid,
		Cache: cache.Config{
			VolatileBlocks: sim.BlocksForBytes(4*sim.MB, cache.DefaultBlockSize),
			NVRAMBlocks:    sim.BlocksForBytes(sim.MB/2, cache.DefaultBlockSize),
			Policy:         cache.LRU,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Traffic.AppWriteBytes == 0 {
		t.Fatal("no traffic")
	}
}

func TestFsyncLatencyStudy(t *testing.T) {
	r, err := FsyncLatencyStudyContext(context.Background(), sharedWS)
	if err != nil {
		t.Fatal(err)
	}
	if r.Fsyncs == 0 {
		t.Fatal("no fsyncs measured")
	}
	if !(r.Mean[2] <= r.Mean[1] && r.Mean[1] <= r.Mean[0]) {
		t.Fatalf("latency ordering violated: %v", r.Mean)
	}
	var buf bytes.Buffer
	if err := r.Render(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "client-nvram") {
		t.Fatal("render incomplete")
	}
}

func TestServerCacheStudyShape(t *testing.T) {
	r, err := ServerCacheStudyContext(context.Background(), engine.New(0), 4*time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Names) != 8 {
		t.Fatalf("%d rows", len(r.Names))
	}
	for i, name := range r.Names {
		base := r.DiskWrites[i][0]
		last := r.DiskWrites[i][len(r.DiskWrites[i])-1]
		if last > base {
			t.Errorf("%s: NVRAM cache increased disk writes %d -> %d", name, base, last)
		}
	}
	var buf bytes.Buffer
	if err := r.Render(&buf); err != nil {
		t.Fatal(err)
	}
}

func TestStackStudyShape(t *testing.T) {
	r, err := StackStudyContext(context.Background(), sharedWS)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 3 {
		t.Fatalf("%d rows", len(r.Rows))
	}
	vol, cliNV, both := r.Rows[0], r.Rows[1], r.Rows[2]
	// Client NVRAM reduces both network write traffic and server disk
	// writes; adding server NVRAM reduces disk writes further still.
	if cliNV.NetWriteFrac >= vol.NetWriteFrac {
		t.Errorf("client NVRAM did not reduce write traffic: %.2f vs %.2f",
			cliNV.NetWriteFrac, vol.NetWriteFrac)
	}
	if cliNV.ServerDiskWrites >= vol.ServerDiskWrites {
		t.Errorf("client NVRAM did not reduce disk writes: %d vs %d",
			cliNV.ServerDiskWrites, vol.ServerDiskWrites)
	}
	if both.ServerDiskWrites >= cliNV.ServerDiskWrites {
		t.Errorf("server NVRAM did not reduce disk writes further: %d vs %d",
			both.ServerDiskWrites, cliNV.ServerDiskWrites)
	}
	// With NVRAM clients, fsyncs never reach the server (they complete in
	// client NVRAM).
	if cliNV.FsyncsForced != 0 {
		t.Errorf("fsyncs forced through with client NVRAM: %d", cliNV.FsyncsForced)
	}
	var buf bytes.Buffer
	if err := r.Render(&buf); err != nil {
		t.Fatal(err)
	}
}

func TestCSVExports(t *testing.T) {
	fig2, err := Figure2Context(context.Background(), sharedWS)
	if err != nil {
		t.Fatal(err)
	}
	tab2, err := Table2Context(context.Background(), sharedWS)
	if err != nil {
		t.Fatal(err)
	}
	fig6, err := Figure6Context(context.Background(), sharedWS)
	if err != nil {
		t.Fatal(err)
	}
	for name, tab := range map[string]Tabular{
		"fig2": fig2,
		"tab2": tab2,
		"fig6": fig6,
		"cost": CostStudy(fig6),
		"sort": SortedBuffer(),
	} {
		rows := tab.CSV()
		if len(rows) < 2 {
			t.Fatalf("%s: %d rows", name, len(rows))
		}
		width := len(rows[0])
		for i, row := range rows {
			if len(row) != width {
				t.Fatalf("%s row %d: %d columns, want %d", name, i, len(row), width)
			}
		}
		var buf bytes.Buffer
		if err := WriteCSV(&buf, tab); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !strings.Contains(buf.String(), ",") {
			t.Fatalf("%s: no CSV content", name)
		}
	}
}

func TestReadResponseStudy(t *testing.T) {
	r := ReadResponseStudy()
	// The [3] anchors: the interference-minimizing write unit is on the
	// order of one to two tracks, and full-segment (512 KB) writes raise
	// mean read response by roughly 14% (typical) to ~40% (heavy).
	if r.OptimalKB < 0.5*r.TrackKB || r.OptimalKB > 3*r.TrackKB {
		t.Errorf("optimal unit %.0f KB not near track size %.0f KB", r.OptimalKB, r.TrackKB)
	}
	full := r.IncreaseAt(512)
	if full < 0.10 || full > 0.25 {
		t.Errorf("512 KB typical increase = %.2f, paper band ~0.14", full)
	}
	// The curve is U-shaped: the 512 KB end is worse than the minimum.
	min := full
	for _, v := range r.IncreaseTypical {
		if v < min {
			min = v
		}
	}
	if min >= full {
		t.Error("no interior minimum found")
	}
	if r.IncreaseAt(999) != -1 {
		t.Error("IncreaseAt on unknown unit")
	}
	var buf bytes.Buffer
	if err := r.Render(&buf); err != nil {
		t.Fatal(err)
	}
	if len(r.CSV()) != len(r.WriteUnitKB)+1 {
		t.Fatal("CSV row count wrong")
	}
}
