package crash

import (
	"bytes"
	"reflect"
	"testing"

	"nvramfs/internal/cache"
	"nvramfs/internal/lifetime"
	"nvramfs/internal/prep"
	"nvramfs/internal/sim"
	"nvramfs/internal/trace"
	"nvramfs/internal/workload"
)

// The streaming pipeline (generator → codec → streaming prep → simulator,
// no materialized slices anywhere) must be indistinguishable from the old
// slice-based path. These tests hold the two equal for every standard
// trace and cache organization, at the three consumers the pipeline feeds:
// the cache simulator, the lifetime analysis, and the crash harness.

const equivScale = 0.01

// encodedTrace renders a standard trace through the wire codec, the way
// the report workspace stores traces.
func encodedTrace(t *testing.T, idx int) []byte {
	t.Helper()
	p := workload.StandardProfile(idx, equivScale)
	var buf bytes.Buffer
	tw, err := trace.NewWriter(&buf, p.Header())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := workload.Generate(p, tw.Write); err != nil {
		t.Fatal(err)
	}
	if err := tw.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// streamSource is the streaming path: decode the encoded trace and
// canonicalize it one op at a time, trusting the reader's validation.
func streamSource(t *testing.T, enc []byte) prep.Source {
	t.Helper()
	rd, err := trace.NewBytesReader(enc)
	if err != nil {
		t.Fatal(err)
	}
	return prep.NewSource(rd, prep.Options{Trusted: true})
}

// sliceOps is the materialized path: the generator's events canonicalized
// without the codec, untrusted, and collected into one op slice.
func sliceOps(t *testing.T, idx int) []prep.Op {
	t.Helper()
	ops, err := prep.Collect(prep.NewSource(workload.NewCursor(workload.StandardProfile(idx, equivScale)), prep.Options{}))
	if err != nil {
		t.Fatal(err)
	}
	return ops
}

// TestStreamingSimEquivalence runs every standard trace through every
// cache organization twice — once pulling from the streaming pipeline,
// once from the materialized op slice — and requires identical sim
// results.
func TestStreamingSimEquivalence(t *testing.T) {
	for idx := 1; idx <= workload.NumStandardTraces; idx++ {
		enc := encodedTrace(t, idx)
		ops := sliceOps(t, idx)
		for _, kind := range allKinds {
			cfg := simCfg(kind)
			cfg.Seed = int64(idx)
			want, err := sim.Run(prep.NewSliceSource(ops), cfg)
			if err != nil {
				t.Fatalf("trace %d %v slice: %v", idx, kind, err)
			}
			got, err := sim.Run(streamSource(t, enc), cfg)
			if err != nil {
				t.Fatalf("trace %d %v stream: %v", idx, kind, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("trace %d %v: streaming result differs\n got %+v\nwant %+v",
					idx, kind, got, want)
			}
		}
	}
}

// TestStreamingLifetimeEquivalence holds the infinite-cache analysis equal
// between the two paths for every standard trace, in both consistency
// modes.
func TestStreamingLifetimeEquivalence(t *testing.T) {
	for idx := 1; idx <= workload.NumStandardTraces; idx++ {
		enc := encodedTrace(t, idx)
		ops := sliceOps(t, idx)
		for _, block := range []bool{false, true} {
			opts := lifetime.Options{BlockConsistency: block}
			want, err := lifetime.AnalyzeWith(prep.NewSliceSource(ops), opts)
			if err != nil {
				t.Fatalf("trace %d slice: %v", idx, err)
			}
			got, err := lifetime.AnalyzeWith(streamSource(t, enc), opts)
			if err != nil {
				t.Fatalf("trace %d stream: %v", idx, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("trace %d block=%v: streaming analysis differs", idx, block)
			}
		}
	}
}

// TestStreamingScheduleEquivalence holds the omniscient schedule equal
// between the two paths (NextModify probes cover the table since the
// schedule's internal layout is allowed to differ).
func TestStreamingScheduleEquivalence(t *testing.T) {
	for _, idx := range []int{2, 7} {
		enc := encodedTrace(t, idx)
		ops := sliceOps(t, idx)
		want, err := lifetime.BuildSchedule(prep.NewSliceSource(ops), 0)
		if err != nil {
			t.Fatal(err)
		}
		got, err := lifetime.BuildSchedule(streamSource(t, enc), 0)
		if err != nil {
			t.Fatal(err)
		}
		if got.Blocks() != want.Blocks() {
			t.Fatalf("trace %d: %d blocks streamed, %d sliced", idx, got.Blocks(), want.Blocks())
		}
		for _, op := range ops {
			if op.Kind != prep.Write {
				continue
			}
			id := cache.BlockID{File: op.File, Index: op.Range.Start / cache.DefaultBlockSize}
			if g, w := got.NextModify(id, op.Time), want.NextModify(id, op.Time); g != w {
				t.Fatalf("trace %d %v@%d: NextModify %d != %d", idx, id, op.Time, g, w)
			}
		}
	}
}

// TestStreamingCrashEquivalence injects crashes at sampled event
// boundaries for every organization and requires identical outcomes from
// the two paths.
func TestStreamingCrashEquivalence(t *testing.T) {
	const idx = 7
	enc := encodedTrace(t, idx)
	ops := sliceOps(t, idx)
	ks := []int{0, 1, len(ops) / 3, len(ops) / 2, len(ops) - 1, len(ops)}
	for _, kind := range allKinds {
		for _, k := range ks {
			want, err := RunCache(prep.NewSliceSource(ops), simCfg(kind), k)
			if err != nil {
				t.Fatalf("%v k=%d slice: %v", kind, k, err)
			}
			got, err := RunCache(streamSource(t, enc), simCfg(kind), k)
			if err != nil {
				t.Fatalf("%v k=%d stream: %v", kind, k, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%v k=%d: streaming crash outcome differs\n got %+v\nwant %+v",
					kind, k, got, want)
			}
		}
	}
}

// streamReplayable re-decodes the encoded trace for each replay the LFS
// oracle requests — the same strategy the report workspace uses.
type streamReplayable struct {
	t   *testing.T
	enc []byte
}

func (r streamReplayable) Ops() (prep.Source, error) {
	return streamSource(r.t, r.enc), nil
}

// TestStreamingLFSCrashEquivalence does the same for the LFS harness,
// whose oracle replays the trace through a Replayable.
func TestStreamingLFSCrashEquivalence(t *testing.T) {
	const idx = 2
	enc := encodedTrace(t, idx)
	ops := sliceOps(t, idx)
	cfg := LFSConfig{CheckpointEvery: 97}
	for _, k := range []int{0, len(ops) / 2, len(ops)} {
		want, err := RunLFS(prep.SliceReplayable(ops), cfg, k)
		if err != nil {
			t.Fatalf("k=%d slice: %v", k, err)
		}
		got, err := RunLFS(streamReplayable{t, enc}, cfg, k)
		if err != nil {
			t.Fatalf("k=%d stream: %v", k, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("k=%d: streaming LFS outcome differs", k)
		}
	}
}
