package report

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"nvramfs/internal/cache"
	"nvramfs/internal/disk"
	"nvramfs/internal/engine"
	"nvramfs/internal/lfs"
	"nvramfs/internal/lifetime"
	"nvramfs/internal/prep"
	"nvramfs/internal/serverload"
	"nvramfs/internal/sim"
	"nvramfs/internal/workload"
)

// schedulesEqual compares schedules semantically — same block set, same
// modification times. The hash table's internal layout is not part of
// the contract, so it compares the visited contents rather than running
// reflect.DeepEqual on the structs.
func schedulesEqual(a, b *lifetime.Schedule) bool {
	if a.Blocks() != b.Blocks() {
		return false
	}
	dump := func(s *lifetime.Schedule) map[cache.BlockID][]int64 {
		m := make(map[cache.BlockID][]int64, s.Blocks())
		s.ForEach(func(id cache.BlockID, ts []int64) { m[id] = ts })
		return m
	}
	return reflect.DeepEqual(dump(a), dump(b))
}

// TestWorkspaceConcurrentAccess hammers the workspace's memoized passes —
// Ops, Analysis, Schedule — for every trace from parallel goroutines and
// checks each result against an independently built serial reference.
// Run with -race this is the singleflight correctness test: every
// goroutine must observe the one shared build, never a torn or duplicate
// one.
func TestWorkspaceConcurrentAccess(t *testing.T) {
	const scale = 0.02
	ws := NewWorkspace(scale)
	traces := AllTraces()

	// Serial reference, built outside the workspace.
	refOps := make(map[int][]prep.Op)
	refAn := make(map[int]*lifetime.Analysis)
	refSched := make(map[int]*lifetime.Schedule)
	for _, tr := range traces {
		ops, err := prep.Collect(prep.NewSource(workload.NewCursor(workload.StandardProfile(tr, scale)), prep.Options{}))
		if err != nil {
			t.Fatal(err)
		}
		refOps[tr] = ops
		if refAn[tr], err = lifetime.Analyze(prep.NewSliceSource(ops)); err != nil {
			t.Fatal(err)
		}
		if refSched[tr], err = lifetime.BuildSchedule(prep.NewSliceSource(ops), cache.DefaultBlockSize); err != nil {
			t.Fatal(err)
		}
	}

	const goroutines = 8
	var wg sync.WaitGroup
	errs := make(chan error, goroutines*len(traces))
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, tr := range traces {
				src, err := ws.OpsSourceContext(context.Background(), tr)
				if err != nil {
					errs <- err
					return
				}
				ops, err := prep.Collect(src)
				if err != nil {
					errs <- err
					return
				}
				if !reflect.DeepEqual(ops, refOps[tr]) {
					t.Errorf("trace %d: concurrent ops stream differs from serial build", tr)
				}
				an, err := ws.AnalysisContext(context.Background(), tr)
				if err != nil {
					errs <- err
					return
				}
				if an.Fate != refAn[tr].Fate {
					t.Errorf("trace %d: concurrent Analysis fate = %+v, serial %+v",
						tr, an.Fate, refAn[tr].Fate)
				}
				sched, err := ws.ScheduleContext(context.Background(), tr)
				if err != nil {
					errs <- err
					return
				}
				if !schedulesEqual(sched, refSched[tr]) {
					t.Errorf("trace %d: concurrent Schedule differs from serial build", tr)
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	// Singleflight: all goroutines must have shared one Analysis build.
	an, err := ws.AnalysisContext(context.Background(), traces[0])
	if err != nil {
		t.Fatal(err)
	}
	an2, err := ws.AnalysisContext(context.Background(), traces[0])
	if err != nil {
		t.Fatal(err)
	}
	if an != an2 {
		t.Fatal("repeated Analysis returned distinct builds")
	}
}

// update rewrites the checked-in render digest:
//
//	go test -run TestDriversDeterministicAcrossWorkerCounts ./internal/report -update
var update = flag.Bool("update", false, "rewrite testdata/golden.sha256 from the serial render")

const goldenFile = "testdata/golden.sha256"

// serverGoldenDuration is the shortest whole-day server study in which
// both /user6 and /swap1 run the cleaner.
const serverGoldenDuration = 2 * 24 * time.Hour

// TestDriversDeterministicAcrossWorkerCounts renders a cross-section of
// the sweep drivers on a one-worker engine and again on an eight-worker
// engine and requires byte-identical output — the engine's core contract.
// The serial render's sha256 must also match the checked-in digest, so a
// change that moves any rendered byte (a reordered series, a different
// traffic count) fails here even when it moves both renders alike.
func TestDriversDeterministicAcrossWorkerCounts(t *testing.T) {
	const scale = 0.02
	// The cleaner ablation runs outside the engine: computed once, it is
	// pinned by the digest only.
	cleaner := fmt.Sprintf("cleaner copied: greedy %d, cost-benefit %d\n",
		cleanerCopied(lfs.CleanGreedy), cleanerCopied(lfs.CleanCostBenefit))
	render := func(workers int) string {
		ws := NewWorkspace(scale)
		ws.SetEngine(engine.New(workers))
		var buf bytes.Buffer
		renderAll := func(r renderer, err error) {
			if err != nil {
				t.Fatal(err)
			}
			if err := r.Render(&buf); err != nil {
				t.Fatal(err)
			}
		}
		renderAll(Figure2Context(context.Background(), ws))
		renderAll(Table2Context(context.Background(), ws))
		renderAll(Figure3Context(context.Background(), ws))
		renderAll(Figure4Context(context.Background(), ws))
		renderAll(Figure5Context(context.Background(), ws))
		renderAll(Figure6Context(context.Background(), ws))
		renderAll(BusTrafficContext(context.Background(), ws))
		renderAll(StackStudyContext(context.Background(), ws))
		srv, err := ServerStudyContext(context.Background(), ws.Engine(), serverGoldenDuration)
		if err != nil {
			t.Fatal(err)
		}
		for _, render := range []func(io.Writer) error{srv.RenderTable3, srv.RenderTable4, srv.RenderBuffer} {
			if err := render(&buf); err != nil {
				t.Fatal(err)
			}
		}
		buf.WriteString(cleaner)
		return buf.String()
	}
	// The server study's duration must be long enough for the cleaner to
	// run on the file systems that fill their disks, or the golden would
	// not pin the cleaner's victim choice.
	for _, name := range []string{"/user6", "/swap1"} {
		p, _ := serverload.ProfileByName(name)
		fs := lfs.New(lfs.Config{Name: name}, disk.New(disk.DefaultParams()))
		serverload.Run(p, fs, serverGoldenDuration)
		if fs.Stats().CleanerRuns == 0 {
			t.Fatalf("%s never ran the cleaner in %v", name, serverGoldenDuration)
		}
	}
	serial := render(1)
	parallel := render(8)
	if serial != parallel {
		t.Fatalf("output differs between 1 and 8 workers:\n--- serial ---\n%s\n--- parallel ---\n%s",
			serial, parallel)
	}

	sum := sha256.Sum256([]byte(serial))
	got := hex.EncodeToString(sum[:]) + "\n"
	if *update {
		if err := os.WriteFile(goldenFile, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(goldenFile)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if got != string(want) {
		t.Fatalf("serial render sha256 = %s, %s holds %s\n--- serial ---\n%s",
			strings.TrimSpace(got), goldenFile, strings.TrimSpace(string(want)), serial)
	}
}

// renderer is any experiment result.
type renderer interface{ Render(io.Writer) error }

// TestFigure6SameFreshAndAfterFigure5 renders Figures 3-6 on one
// workspace in call order and on another in reverse, and requires every
// figure byte-identical: each figure reads cells an earlier one may have
// memoized (Figure 4's omniscient series is Figure 3's trace-7 row, its
// LRU series shares five cells with Figure 5's unified series, Figure 6
// repeats Figure 5's 8 MB series), so the reverse order simulates them
// in different groups. The forward pass also pins what the memo saves,
// in engine jobs per figure and in unified model-trace cells.
func TestFigure6SameFreshAndAfterFigure5(t *testing.T) {
	const scale = 0.02
	figures := []struct {
		name string
		run  func(*Workspace) (renderer, error)
		jobs int64 // engine jobs in call order
	}{
		{"fig3", func(ws *Workspace) (renderer, error) { return Figure3Context(context.Background(), ws) }, 8},
		{"fig4", func(ws *Workspace) (renderer, error) { return Figure4Context(context.Background(), ws) }, 2},
		{"fig5", func(ws *Workspace) (renderer, error) { return Figure5Context(context.Background(), ws) }, 3},
		{"fig6", func(ws *Workspace) (renderer, error) { return Figure6Context(context.Background(), ws) }, 2},
	}
	unifiedCells := func(ws *Workspace) int {
		n := 0
		for k := range ws.cells {
			if k.trace == ModelTrace && k.model == cache.ModelUnified && k.policy == cache.LRU {
				n++
			}
		}
		return n
	}
	render := func(ws *Workspace, i int) string {
		r, err := figures[i].run(ws)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := r.Render(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}

	forward := make([]string, len(figures))
	ws := NewWorkspace(scale)
	for i, f := range figures {
		jobs, unified := ws.Engine().Metrics().JobsFinished, unifiedCells(ws)
		forward[i] = render(ws, i)
		if got := ws.Engine().Metrics().JobsFinished - jobs; got != f.jobs {
			t.Errorf("%s in call order ran %d engine jobs, want %d", f.name, got, f.jobs)
		}
		if f.name == "fig5" {
			// Figure 4's LRU series holds five of Figure 5's six unified
			// cells; only +6 MB is new.
			if got := unifiedCells(ws) - unified; got != 1 {
				t.Errorf("fig5 after fig4 simulated %d unified cells, want 1", got)
			}
		}
	}
	ws = NewWorkspace(scale)
	for i := len(figures) - 1; i >= 0; i-- {
		if got := render(ws, i); got != forward[i] {
			t.Errorf("%s in reverse order differs from call order:\n--- call order ---\n%s\n--- reverse ---\n%s",
				figures[i].name, forward[i], got)
		}
	}
}

// TestModelTrafficConcurrentCallers runs Figures 4 and 5 and the bus
// study from several goroutines on one fresh workspace, so callers race
// to simulate and memoize the cells they share; every caller must get
// what a serial run on its own workspace gets. Under -race this is the
// cell memo's locking test.
func TestModelTrafficConcurrentCallers(t *testing.T) {
	const scale = 0.02
	render := func(ws *Workspace, i int) (string, error) {
		var (
			r   renderer
			err error
		)
		switch i % 3 {
		case 0:
			r, err = Figure4Context(context.Background(), ws)
		case 1:
			r, err = Figure5Context(context.Background(), ws)
		default:
			r, err = BusTrafficContext(context.Background(), ws)
		}
		if err != nil {
			return "", err
		}
		var buf bytes.Buffer
		err = r.Render(&buf)
		return buf.String(), err
	}
	const callers = 6
	want := make([]string, 3)
	for i := range want {
		var err error
		if want[i], err = render(NewWorkspace(scale), i); err != nil {
			t.Fatal(err)
		}
	}
	ws := NewWorkspace(scale)
	got := make([]string, callers)
	errs := make([]error, callers)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i], errs[i] = render(ws, i)
		}()
	}
	wg.Wait()
	for i := range got {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		if got[i] != want[i%3] {
			t.Errorf("caller %d got\n%s\nserial run got\n%s", i, got[i], want[i%3])
		}
	}
}

// TestDriverCancellation runs every registry entry with a cancelled
// context: each one that touches the workspace or an engine must return
// context.Canceled, not a partial result, and start no engine job. The
// pure computations are exempt.
func TestDriverCancellation(t *testing.T) {
	pure := map[string]bool{"table1": true, "sort": true, "readlat": true}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	s := &Session{Workspace: NewWorkspace(0.02), ServerDuration: time.Hour}
	for _, e := range Experiments() {
		if _, err := e.Run(ctx, s); !pure[e.Name] && !errors.Is(err, context.Canceled) {
			t.Errorf("cancelled %s returned %v, want context.Canceled", e.Name, err)
		}
	}
	if n := s.Workspace.Engine().Metrics().JobsStarted; n != 0 {
		t.Errorf("cancelled entries started %d engine jobs", n)
	}
}

// TestLockstepSharesModelCalls pins the capacity classes' saving where the
// sweeps spend it: Figure 3's trace-7 row and Figure 4's LRU row, each one
// lockstep replay of ten NVRAM sizes, must make at most the stated share
// of the model calls that simulating each cell on its own would make. A
// change that splits every class early fails here by name.
func TestLockstepSharesModelCalls(t *testing.T) {
	ctx := context.Background()
	ws := NewWorkspace(0.02)
	sched, err := ws.ScheduleContext(ctx, ModelTrace)
	if err != nil {
		t.Fatal(err)
	}
	rows := []struct {
		name  string
		keys  []cellKey
		sched cache.Schedule
		share float64 // most calls made per per-cell call
	}{
		// Measured 0.193 (34 413 of 178 660) and 0.192 (128 147 of 668 190).
		{"fig3-trace7", sweepKeys(ModelTrace, cache.Omniscient, true), sched, 0.25},
		{"fig4-lru", sweepKeys(ModelTrace, cache.LRU, false), nil, 0.25},
	}
	for _, row := range rows {
		cfgs := make([]sim.Config, len(row.keys))
		for i, k := range row.keys {
			cfgs[i] = k.config(row.sched)
		}
		_, calls, err := ws.lockstep(ctx, ModelTrace, cfgs)
		if err != nil {
			t.Fatal(err)
		}
		share := float64(calls.Made) / float64(calls.PerCell)
		t.Logf("%s: %d model calls for %d per-cell calls (%.3f)", row.name, calls.Made, calls.PerCell, share)
		if share > row.share {
			t.Errorf("%s: %.3f of the per-cell model calls, want at most %.2f", row.name, share, row.share)
		}
	}
}
