package lifetime

import (
	"testing"

	"nvramfs/internal/cache"
	"nvramfs/internal/interval"
	"nvramfs/internal/prep"
	"nvramfs/internal/workload"
)

func wop(t int64, c uint32, k prep.Kind, f uint64, a, b int64) prep.Op {
	return prep.Op{Time: t, Client: c, Kind: k, File: f, Range: interval.Range{Start: a, End: b}}
}

func openOp(t int64, c uint32, f uint64, w bool) prep.Op {
	return prep.Op{Time: t, Client: c, Kind: prep.Open, File: f, WriteMode: w}
}

func TestAnalyzeOverwriteAndDelete(t *testing.T) {
	ops := []prep.Op{
		openOp(0, 1, 5, true),
		wop(10, 1, prep.Write, 5, 0, 100),
		wop(50, 1, prep.Write, 5, 0, 40),        // overwrites 40 bytes, age 40
		wop(90, 1, prep.DeleteRange, 5, 0, 100), // kills 100 cached bytes
	}
	a, err := Analyze(prep.NewSliceSource(ops))
	if err != nil {
		t.Fatal(err)
	}
	f := a.Fate
	if f.Total != 140 || f.Overwritten != 40 || f.Deleted != 100 || f.Remaining != 0 {
		t.Fatalf("fate = %+v", f)
	}
	if len(a.Deaths) != 3 {
		t.Fatalf("deaths = %v", a.Deaths)
	}
	// Ages: overwrite at 40; deletes at 40 (bytes written at 50) and 80
	// (bytes written at 10).
	if got := a.DeadWithin(39); got != 0 {
		t.Fatalf("DeadWithin(39) = %d", got)
	}
	if got := a.DeadWithin(40); got != 80 {
		t.Fatalf("DeadWithin(40) = %d", got)
	}
	if got := a.DeadWithin(80); got != 140 {
		t.Fatalf("DeadWithin(80) = %d", got)
	}
}

func TestAnalyzeRemaining(t *testing.T) {
	ops := []prep.Op{
		openOp(0, 1, 5, true),
		wop(10, 1, prep.Write, 5, 0, 100),
	}
	a, err := Analyze(prep.NewSliceSource(ops))
	if err != nil {
		t.Fatal(err)
	}
	if a.Fate.Remaining != 100 || a.Fate.Total != 100 {
		t.Fatalf("fate = %+v", a.Fate)
	}
	if got := a.NetWriteFracAt(1 << 40); got != 1.0 {
		t.Fatalf("NetWriteFracAt = %f, want 1.0 (all bytes remain)", got)
	}
}

func TestAnalyzeCallback(t *testing.T) {
	ops := []prep.Op{
		openOp(0, 1, 5, true),
		wop(10, 1, prep.Write, 5, 0, 100),
		prep.Op{Time: 20, Client: 1, Kind: prep.Close, File: 5},
		openOp(30, 2, 5, false), // other client opens: recall
	}
	a, err := Analyze(prep.NewSliceSource(ops))
	if err != nil {
		t.Fatal(err)
	}
	if a.Fate.CalledBack != 100 {
		t.Fatalf("fate = %+v", a.Fate)
	}
	// Called-back bytes are never absorbed regardless of delay.
	if got := a.NetWriteFracAt(1 << 40); got != 1.0 {
		t.Fatalf("NetWriteFracAt = %f", got)
	}
}

func TestAnalyzeConcurrent(t *testing.T) {
	ops := []prep.Op{
		openOp(0, 1, 5, true),
		openOp(1, 2, 5, true), // disables caching
		wop(10, 1, prep.Write, 5, 0, 100),
		wop(20, 2, prep.Write, 5, 0, 100),
	}
	a, err := Analyze(prep.NewSliceSource(ops))
	if err != nil {
		t.Fatal(err)
	}
	if a.Fate.Concurrent != 200 {
		t.Fatalf("fate = %+v", a.Fate)
	}
}

func TestAnalyzeMigration(t *testing.T) {
	ops := []prep.Op{
		openOp(0, 1, 5, true),
		wop(10, 1, prep.Write, 5, 0, 100),
		prep.Op{Time: 20, Client: 1, Kind: prep.MigrateFlush},
	}
	a, err := Analyze(prep.NewSliceSource(ops))
	if err != nil {
		t.Fatal(err)
	}
	if a.Fate.CalledBack != 100 {
		t.Fatalf("fate = %+v", a.Fate)
	}
}

func TestAnalyzeFsyncIsFree(t *testing.T) {
	ops := []prep.Op{
		openOp(0, 1, 5, true),
		wop(10, 1, prep.Write, 5, 0, 100),
		prep.Op{Time: 20, Client: 1, Kind: prep.Fsync, File: 5},
		wop(30, 1, prep.DeleteRange, 5, 0, 100),
	}
	a, err := Analyze(prep.NewSliceSource(ops))
	if err != nil {
		t.Fatal(err)
	}
	// The fsync'd bytes still die in the NVRAM.
	if a.Fate.Deleted != 100 || a.Fate.ServerBytes() != 0 {
		t.Fatalf("fate = %+v", a.Fate)
	}
}

func TestNetWriteFracMonotone(t *testing.T) {
	a, err := Analyze(prep.NewSource(workload.NewCursor(workload.StandardProfile(1, 0.03)), prep.Options{}))
	if err != nil {
		t.Fatal(err)
	}
	prev := 2.0
	for _, mins := range []int64{0, 1, 10, 60, 600, 100000} {
		f := a.NetWriteFracAt(mins * 60e6)
		if f > prev+1e-12 {
			t.Fatalf("net write frac not monotone: %f after %f", f, prev)
		}
		if f < 0 || f > 1 {
			t.Fatalf("frac out of range: %f", f)
		}
		prev = f
	}
	// At zero delay everything is flushed.
	if f := a.NetWriteFracAt(0); f < 0.99 {
		t.Fatalf("NetWriteFracAt(0) = %f", f)
	}
}

func TestFateConservationOnGeneratedTraces(t *testing.T) {
	for i := 1; i <= workload.NumStandardTraces; i++ {
		src := prep.NewSource(workload.NewCursor(workload.StandardProfile(i, 0.02)), prep.Options{})
		a, err := Analyze(src)
		if err != nil {
			t.Fatalf("trace %d: %v", i, err)
		}
		if st := src.Stats(); a.Fate.Total != st.BytesWritten {
			t.Fatalf("trace %d: fate total %d != written %d", i, a.Fate.Total, st.BytesWritten)
		}
	}
}

func TestBuildSchedule(t *testing.T) {
	ops := []prep.Op{
		wop(10, 1, prep.Write, 5, 0, 5000),    // blocks 0 and 1
		wop(20, 1, prep.Write, 5, 0, 100),     // block 0
		wop(30, 1, prep.Write, 7, 4096, 4097), // file 7 block 1
	}
	s, err := BuildSchedule(prep.NewSliceSource(ops), 4096)
	if err != nil {
		t.Fatal(err)
	}
	if s.Blocks() != 3 {
		t.Fatalf("blocks = %d", s.Blocks())
	}
	b0 := cache.BlockID{File: 5, Index: 0}
	if got := s.NextModify(b0, 0); got != 10 {
		t.Fatalf("NextModify = %d", got)
	}
	if got := s.NextModify(b0, 10); got != 20 {
		t.Fatalf("NextModify after 10 = %d", got)
	}
	if got := s.NextModify(b0, 20); got != cache.NeverModified {
		t.Fatalf("NextModify after 20 = %d", got)
	}
	if got := s.NextModify(cache.BlockID{File: 9, Index: 0}, 0); got != cache.NeverModified {
		t.Fatalf("NextModify unknown = %d", got)
	}
}

func TestBlockConsistencyRecallsOnlyReadBytes(t *testing.T) {
	ops := []prep.Op{
		openOp(0, 1, 5, true),
		wop(10, 1, prep.Write, 5, 0, 1000),
		prep.Op{Time: 20, Client: 1, Kind: prep.Close, File: 5},
		openOp(30, 2, 5, false),
		wop(40, 2, prep.Read, 5, 0, 300), // reads only a prefix
		wop(50, 2, prep.DeleteRange, 5, 0, 1000),
	}
	// Whole-file protocol: the open recalls all 1000 dirty bytes.
	wf, err := Analyze(prep.NewSliceSource(ops))
	if err != nil {
		t.Fatal(err)
	}
	if wf.Fate.CalledBack != 1000 {
		t.Fatalf("whole-file called back = %d", wf.Fate.CalledBack)
	}
	// Block protocol: only the 300 read bytes are recalled; the other 700
	// die in the cache when the file is deleted.
	bl, err := AnalyzeWith(prep.NewSliceSource(ops), Options{BlockConsistency: true})
	if err != nil {
		t.Fatal(err)
	}
	if bl.Fate.CalledBack != 300 {
		t.Fatalf("block-level called back = %d", bl.Fate.CalledBack)
	}
	if bl.Fate.Deleted != 700 {
		t.Fatalf("block-level deleted = %d", bl.Fate.Deleted)
	}
}

func TestBlockConsistencyNeverWorse(t *testing.T) {
	ops, err := prep.Collect(prep.NewSource(workload.NewCursor(workload.StandardProfile(7, 0.03)), prep.Options{}))
	if err != nil {
		t.Fatal(err)
	}
	wf, err := Analyze(prep.NewSliceSource(ops))
	if err != nil {
		t.Fatal(err)
	}
	bl, err := AnalyzeWith(prep.NewSliceSource(ops), Options{BlockConsistency: true})
	if err != nil {
		t.Fatal(err)
	}
	if bl.Fate.CalledBack > wf.Fate.CalledBack {
		t.Fatalf("block-level recalls more bytes (%d) than whole-file (%d)",
			bl.Fate.CalledBack, wf.Fate.CalledBack)
	}
	if bl.Fate.Total != wf.Fate.Total {
		t.Fatal("totals differ between protocols")
	}
}

func TestAgeHistogram(t *testing.T) {
	ops := []prep.Op{
		openOp(0, 1, 5, true),
		wop(10, 1, prep.Write, 5, 0, 100),
		wop(1000010, 1, prep.Write, 5, 0, 50),        // 50 bytes die at age 1s
		wop(2000010, 1, prep.DeleteRange, 5, 0, 100), // rest dies at 1s / 2s
	}
	a, err := Analyze(prep.NewSliceSource(ops))
	if err != nil {
		t.Fatal(err)
	}
	h := a.AgeHistogram()
	if h.Total() != 150 {
		t.Fatalf("histogram total = %d", h.Total())
	}
	// All deaths happened within ~2 seconds.
	if got := h.CumulativeAt(4e6); got != 1.0 {
		t.Fatalf("CumulativeAt(4s) = %f", got)
	}
	if got := h.CumulativeAt(1); got != 0 {
		t.Fatalf("CumulativeAt(1us) = %f", got)
	}
}
