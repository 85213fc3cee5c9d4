// Command nvreport regenerates the paper's tables and figures.
//
// Usage:
//
//	nvreport                      # everything, at paper scale
//	nvreport -exp fig2,table2     # selected experiments
//	nvreport -exp list            # list experiment names and descriptions
//	nvreport -scale 0.1           # faster, smaller workloads
//	nvreport -j 4 -progress       # four workers, job progress on stderr
//
// The experiment list is generated from the registry (report.Experiments)
// at startup — run `nvreport -exp list` for names and one-line
// descriptions; main cross-checks the registry against the dispatch table
// so the help text cannot drift from the code.
//
// Experiment output is written to stdout and is byte-identical at any
// worker count; progress and the wall-clock summary go to stderr.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"nvramfs"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("nvreport: ")
	registry := nvramfs.Experiments()
	names := make([]string, len(registry))
	for i, e := range registry {
		names[i] = e.Name
	}
	var (
		expList    = flag.String("exp", "all", "comma-separated experiments, \"all\", or \"list\" to print the registry")
		scale      = flag.Float64("scale", 1.0, "client workload scale (1.0 = paper scale)")
		serverDays = flag.Float64("server-days", 14, "server study duration in days")
		csvDir     = flag.String("csv", "", "also write each experiment's data as CSV into this directory")
		plot       = flag.Bool("plot", false, "also draw ASCII charts for the figures")
		jobs       = flag.Int("j", runtime.GOMAXPROCS(0), "worker goroutines for the experiment engine")
		progress   = flag.Bool("progress", false, "report per-job progress on stderr")
		cpuprofile = flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
		memprofile = flag.String("memprofile", "", "write a heap profile (post-run, after GC) to this file")
	)
	flag.Parse()

	if *expList == "list" {
		for _, e := range registry {
			fmt.Printf("%-12s %s\n", e.Name, e.Desc)
		}
		return
	}
	if *jobs <= 0 {
		log.Fatalf("-j %d is not positive; the engine needs at least one worker (default %d = all CPUs)",
			*jobs, runtime.GOMAXPROCS(0))
	}
	if *scale <= 0 {
		log.Fatalf("-scale %g is not positive; use a fraction of paper scale such as 0.1", *scale)
	}
	if *serverDays <= 0 {
		log.Fatalf("-server-days %g is not positive", *serverDays)
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			log.Fatal(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			log.Fatal(err)
		}
		defer pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				log.Fatal(err)
			}
			runtime.GC() // report live heap, not transient garbage
			if err := pprof.WriteHeapProfile(f); err != nil {
				log.Fatal(err)
			}
			f.Close()
		}()
	}

	valid := map[string]bool{}
	for _, name := range names {
		valid[name] = true
	}
	want := map[string]bool{}
	all := *expList == "all"
	if !all {
		for _, e := range strings.Split(*expList, ",") {
			e = strings.TrimSpace(e)
			if !valid[e] {
				log.Fatalf("unknown experiment %q; valid names: %s",
					e, strings.Join(names, " "))
			}
			want[e] = true
		}
	}
	sel := func(name string) bool { return all || want[name] }

	// Ctrl-C cancels the running job grid; in-flight jobs finish, queued
	// ones are skipped, and the first error (the cancellation) is fatal.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	eng := nvramfs.NewEngine(*jobs)
	if *progress {
		eng.SetHooks(nvramfs.EngineHooks{
			JobFinished: func(index, total int, err error) {
				if err != nil {
					fmt.Fprintf(os.Stderr, "nvreport: job %d/%d failed: %v\n", index+1, total, err)
					return
				}
				fmt.Fprintf(os.Stderr, "nvreport: job %d/%d done\n", index+1, total)
			},
		})
	}
	ws := nvramfs.NewWorkspace(*scale)
	ws.SetEngine(eng)
	start := time.Now()

	out := os.Stdout
	section := func(name string) {
		fmt.Fprintf(out, "\n===== %s =====\n", name)
	}
	check := func(err error) {
		if err != nil {
			log.Fatal(err)
		}
	}
	saveCSV := func(name string, t nvramfs.Tabular) {
		if *csvDir == "" {
			return
		}
		f, err := os.Create(filepath.Join(*csvDir, name+".csv"))
		check(err)
		check(nvramfs.WriteCSV(f, t))
		check(f.Close())
	}

	// Results shared by several experiments, computed once on first use.
	var fig6 *nvramfs.ModelCompareResult
	getFig6 := func() *nvramfs.ModelCompareResult {
		if fig6 == nil {
			var err error
			fig6, err = nvramfs.Figure6Context(ctx, ws)
			check(err)
		}
		return fig6
	}
	var serverStudy *nvramfs.ServerStudyResult
	getServerStudy := func() *nvramfs.ServerStudyResult {
		if serverStudy == nil {
			duration := time.Duration(*serverDays * float64(24*time.Hour))
			var err error
			serverStudy, err = nvramfs.ServerStudyContext(ctx, eng, duration)
			check(err)
			saveCSV("server_study", serverStudy)
		}
		return serverStudy
	}

	// runners maps every registered experiment to its dispatch; main
	// verifies the map and the registry agree exactly, in both
	// directions, before running anything.
	runners := map[string]func(){
		"table1": func() {
			check(nvramfs.RenderTable1(out))
		},
		"fig2": func() {
			r, err := nvramfs.Figure2Context(ctx, ws)
			check(err)
			check(r.Render(out))
			if *plot {
				check(r.Plot(out))
			}
			saveCSV("fig2", r)
		},
		"table2": func() {
			r, err := nvramfs.Table2Context(ctx, ws)
			check(err)
			check(r.Render(out))
			saveCSV("table2", r)
		},
		"fig3": func() {
			r, err := nvramfs.Figure3Context(ctx, ws)
			check(err)
			check(r.Render(out))
			saveCSV("fig3", r)
		},
		"fig4": func() {
			r, err := nvramfs.Figure4Context(ctx, ws)
			check(err)
			check(r.Render(out))
			if *plot {
				check(r.Plot(out, "Figure 4: replacement policies (trace 7)"))
			}
			saveCSV("fig4", r)
		},
		"fig5": func() {
			r, err := nvramfs.Figure5Context(ctx, ws)
			check(err)
			check(r.Render(out))
			if *plot {
				check(r.Plot(out, "Figure 5: cache models (trace 7)"))
			}
			saveCSV("fig5", r)
		},
		"fig6": func() {
			r := getFig6()
			check(r.Render(out))
			if *plot {
				check(r.Plot(out, "Figure 6: volatile vs unified (8/16 MB bases)"))
			}
			saveCSV("fig6", r)
		},
		"bus": func() {
			r, err := nvramfs.BusTrafficContext(ctx, ws)
			check(err)
			check(r.Render(out))
		},
		"cost": func() {
			cs := nvramfs.CostStudy(getFig6())
			check(cs.Render(out))
			saveCSV("cost", cs)
		},
		"table3": func() {
			check(getServerStudy().RenderTable3(out))
		},
		"table4": func() {
			check(getServerStudy().RenderTable4(out))
		},
		"buffer": func() {
			check(getServerStudy().RenderBuffer(out))
		},
		"sort": func() {
			sb := nvramfs.SortedBuffer()
			check(sb.Render(out))
			saveCSV("sort", sb)
		},
		"servercache": func() {
			duration := time.Duration(*serverDays * float64(24*time.Hour))
			r, err := nvramfs.ServerCacheStudyContext(ctx, eng, duration)
			check(err)
			check(r.Render(out))
			saveCSV("servercache", r)
		},
		"fsynclat": func() {
			r, err := nvramfs.FsyncLatencyStudyContext(ctx, ws)
			check(err)
			check(r.Render(out))
			saveCSV("fsynclat", r)
		},
		"readlat": func() {
			r := nvramfs.ReadResponseStudy()
			check(r.Render(out))
			saveCSV("readlat", r)
		},
		"stack": func() {
			r, err := nvramfs.StackStudyContext(ctx, ws)
			check(err)
			check(r.Render(out))
			saveCSV("stack", r)
		},
		"ablate": func() {
			r, err := nvramfs.AblationsContext(ctx, ws)
			check(err)
			check(r.Render(out))
		},
		"reliability": func() {
			r, err := nvramfs.ReliabilityContext(ctx, ws)
			check(err)
			check(r.Render(out))
			saveCSV("reliability", r)
		},
		"degraded": func() {
			r, err := nvramfs.DegradedContext(ctx, ws)
			check(err)
			check(r.Render(out))
			saveCSV("degraded", r)
		},
		"fleet": func() {
			r, err := nvramfs.FleetContext(ctx, ws)
			check(err)
			check(r.Render(out))
			saveCSV("fleet", r)
		},
	}
	for _, e := range registry {
		if _, ok := runners[e.Name]; !ok {
			log.Fatalf("registry drift: experiment %q has no runner", e.Name)
		}
	}
	for name := range runners {
		if !valid[name] {
			log.Fatalf("registry drift: runner %q is not in the registry", name)
		}
	}

	for _, e := range registry {
		if !sel(e.Name) {
			continue
		}
		section(fmt.Sprintf("%s (%s)", e.Name, e.Desc))
		runners[e.Name]()
	}

	m := eng.Metrics()
	fmt.Fprintf(os.Stderr, "nvreport: %d jobs on %d workers in %v (%v busy)\n",
		m.JobsFinished, eng.Workers(), time.Since(start).Round(time.Millisecond),
		m.Busy.Round(time.Millisecond))
}
