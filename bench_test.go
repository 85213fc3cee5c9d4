package nvramfs

// One benchmark per table and figure of the paper's evaluation. Each
// benchmark regenerates its experiment end to end; run
//
//	go test -bench=. -benchmem
//
// to reproduce every result. Benchmarks share a workspace at a reduced
// workload scale so the suite completes quickly; cmd/nvreport runs the
// same experiments at paper scale (see EXPERIMENTS.md for the paper-scale
// numbers and comparison).

import (
	"context"
	"encoding/binary"
	"fmt"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"nvramfs/internal/faults"
	"nvramfs/internal/netmodel"
)

const benchScale = 0.2

var benchWS = struct {
	once sync.Once
	ws   *Workspace
}{}

// benchWorkspace returns the shared workspace, generating the traces once
// outside benchmark timing.
func benchWorkspace(b *testing.B) *Workspace {
	b.Helper()
	benchWS.once.Do(func() {
		benchWS.ws = NewWorkspace(benchScale)
		// Pre-generate every trace so individual benchmarks time the
		// experiment, not trace synthesis. TraceStats forces the
		// encoded-trace build; cursors then decode from cache.
		for i := 1; i <= NumStandardTraces; i++ {
			if _, err := benchWS.ws.TraceStatsContext(context.Background(), i); err != nil {
				panic(err)
			}
		}
	})
	return benchWS.ws
}

func BenchmarkTable1(b *testing.B) {
	// Table 1 is the static price list — no traces to synthesize — so the
	// benchmark times rendering alone.
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := RenderTable1(discard{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure2(b *testing.B) {
	ws := benchWorkspace(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := Figure2Context(context.Background(), ws)
		if err != nil {
			b.Fatal(err)
		}
		if len(r.Frac) != NumStandardTraces {
			b.Fatal("incomplete figure")
		}
	}
}

func BenchmarkTable2(b *testing.B) {
	ws := benchWorkspace(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := Table2Context(context.Background(), ws)
		if err != nil {
			b.Fatal(err)
		}
		if r.All.Total == 0 {
			b.Fatal("empty table")
		}
	}
}

func BenchmarkFigure3(b *testing.B) {
	ws := benchWorkspace(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Figure3Context(context.Background(), ws); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure4(b *testing.B) {
	ws := benchWorkspace(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Figure4Context(context.Background(), ws); err != nil {
			b.Fatal(err)
		}
	}
}

// modelWorkspace returns a workspace holding only the encoded model
// trace (trace 7), built outside benchmark timing. The workspace memoizes
// every Figure 5/6 cell it simulates, so a benchmark of those figures
// takes a new one per iteration to time the simulations, not the memo.
func modelWorkspace(b *testing.B) *Workspace {
	b.StopTimer()
	defer b.StartTimer()
	ws := NewWorkspace(benchScale)
	if _, err := ws.TraceStatsContext(context.Background(), 7); err != nil {
		b.Fatal(err)
	}
	return ws
}

func BenchmarkFigure5(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Figure5Context(context.Background(), modelWorkspace(b)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure6(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		fig6, err := Figure6Context(context.Background(), modelWorkspace(b))
		if err != nil {
			b.Fatal(err)
		}
		// The Section 2.7 cost study consumes Figure 6 directly.
		if cs := CostStudy(fig6); len(cs.Rows) == 0 {
			b.Fatal("no cost rows")
		}
	}
}

func BenchmarkBusTraffic(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := BusTrafficContext(context.Background(), modelWorkspace(b)); err != nil {
			b.Fatal(err)
		}
	}
}

// benchServerDuration keeps the Tables 3-4 benchmark quick; EXPERIMENTS.md
// records the full 14-day run.
const benchServerDuration = 6 * time.Hour

func BenchmarkTable3and4(b *testing.B) {
	// Reuse the shared workspace's engine rather than building a fresh
	// worker pool per iteration, so the benchmark times the LFS replays.
	ws := benchWorkspace(b)
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := ServerStudyContext(ctx, ws.Engine(), benchServerDuration)
		if err != nil {
			b.Fatal(err)
		}
		if len(r.Rows) != 8 {
			b.Fatal("incomplete study")
		}
	}
}

func BenchmarkWriteBuffer(b *testing.B) {
	// The write-buffer comparison on the fsync-dominated file system.
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		plain, err := RunServer("/user6", benchServerDuration, 0)
		if err != nil {
			b.Fatal(err)
		}
		buffered, err := RunServer("/user6", benchServerDuration, 512<<10)
		if err != nil {
			b.Fatal(err)
		}
		if buffered.DiskWrites >= plain.DiskWrites {
			b.Fatal("buffer did not reduce disk writes")
		}
	}
}

func BenchmarkSortedBuffer(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r := SortedBuffer()
		if len(r.Depths) == 0 {
			b.Fatal("empty result")
		}
	}
}

// BenchmarkWorkspaceSerial and BenchmarkWorkspaceParallel compare the
// one-worker and all-CPU engine on the same work: prewarming every
// trace's ops, lifetime analysis, and omniscient schedule from scratch.

func benchPrewarm(b *testing.B, workers int) {
	b.Helper()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ws := NewWorkspace(0.05)
		ws.SetEngine(NewEngine(workers))
		if err := ws.Prewarm(context.Background()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkWorkspaceSerial(b *testing.B)   { benchPrewarm(b, 1) }
func BenchmarkWorkspaceParallel(b *testing.B) { benchPrewarm(b, 0) }

// Microbenchmarks of the simulator itself.

func BenchmarkSimUnifiedTrace7(b *testing.B) {
	tr, err := StandardTrace(7, benchScale)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := tr.RunCache(CacheConfig{Model: "unified", VolatileMB: 8, NVRAMMB: 1})
		if err != nil {
			b.Fatal(err)
		}
		b.SetBytes(res.Traffic.AppReadBytes + res.Traffic.AppWriteBytes)
	}
}

func BenchmarkLifetimeAnalysis(b *testing.B) {
	tr, err := StandardTrace(1, benchScale)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tr.Analyze(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTraceGeneration(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := StandardTrace(1, benchScale); err != nil {
			b.Fatal(err)
		}
	}
}

// Per-layer microbenchmarks of the daemon's parked write-back path
// (ROADMAP 1b): what a commit barrier costs per record as batches grow,
// and what a delivery costs as the backlog behind it grows.

// BenchmarkImageCommit appends parked-delivery-sized records in batches
// of 1, 8 and 64. One iteration is one record; msyncs/record is 2 at
// batch=1 and 2/n at batch=n.
func BenchmarkImageCommit(b *testing.B) {
	for _, batch := range []int{1, 8, 64} {
		b.Run(fmt.Sprintf("batch=%d", batch), func(b *testing.B) {
			img, _, err := OpenImage(filepath.Join(b.TempDir(), "img"), ImageOptions{Capacity: 64 << 20})
			if err != nil {
				b.Fatal(err)
			}
			defer img.Close()
			var key [8]byte
			var payload [54]byte
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; {
				img.Begin()
				for n := 0; n < batch && i < b.N; n, i = n+1, i+1 {
					// Keys recur, so the live set stays small however long
					// the run and a compaction has little to rewrite.
					binary.BigEndian.PutUint64(key[:], uint64(i%4096))
					if err := img.Put(2, string(key[:]), payload[:]); err != nil {
						b.Fatal(err)
					}
				}
				if err := img.Commit(); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			st := img.Stats()
			b.ReportMetric(float64(st.Msyncs)/float64(st.Puts), "msyncs/record")
		})
	}
}

// BenchmarkInjectorDeliver times a clean delivery with 0, 1k and 32k
// entries parked behind it, none of them due. The three must read the
// same within noise: a delivery that walks the backlog to find nothing
// due is the regression this guards against.
func BenchmarkInjectorDeliver(b *testing.B) {
	for _, backlog := range []int{0, 1000, 32000} {
		b.Run(fmt.Sprintf("backlog=%d", backlog), func(b *testing.B) {
			// A parked entry is due BackoffCap after it parked: never,
			// on this benchmark's timeline.
			x := faults.NewInjector(faults.Profile{Net: &netmodel.Params{}, BackoffCap: 1 << 50}, nil)
			d := faults.Delivery{Client: 1, File: 7, Start: 0, End: 4096, Stable: true}
			for i := 0; i < backlog; i++ {
				x.Park(0, d)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				x.Deliver(int64(i), d)
			}
			b.StopTimer()
			if st := x.Stats(); st.CommittedBytes != int64(b.N)*4096 || st.PendingBytes != int64(backlog)*4096 {
				b.Fatalf("committed %d pending %d: the deliveries were not clean", st.CommittedBytes, st.PendingBytes)
			}
		})
	}
}

// discard is an io.Writer sink without importing io/ioutil in benches.
type discard struct{}

func (discard) Write(p []byte) (int, error) { return len(p), nil }
