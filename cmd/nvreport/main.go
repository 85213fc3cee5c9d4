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
// main runs the experiment registry (nvramfs.Experiments): `nvreport -exp
// list` prints its names and one-line descriptions, and the selected
// entries run in registry order. Results shared between experiments are
// computed once per run: the workspace memoizes Figure 6's cells for the
// cost study, and the session holds the server study Tables 3-4 and the
// buffer table render (server_study.csv is written once).
//
// Experiment output is written to stdout and is byte-identical at any
// worker count; progress and the wall-clock summary go to stderr.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"slices"
	"strings"
	"time"

	"nvramfs"
)

// plotter is a result that also draws itself as an ASCII chart, as every
// titled registry entry's result does.
type plotter interface {
	Plot(w io.Writer, title string) error
}

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

	want := map[string]bool{}
	all := *expList == "all"
	if !all {
		for _, name := range strings.Split(*expList, ",") {
			name = strings.TrimSpace(name)
			if !slices.Contains(names, name) {
				log.Fatalf("unknown experiment %q; valid names: %s",
					name, strings.Join(names, " "))
			}
			want[name] = true
		}
	}

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
	session := &nvramfs.Session{
		Workspace:      ws,
		ServerDuration: time.Duration(*serverDays * float64(24*time.Hour)),
	}
	start := time.Now()

	out := os.Stdout
	check := func(err error) {
		if err != nil {
			log.Fatal(err)
		}
	}
	written := map[string]bool{} // CSV files, one per shared result
	for _, e := range registry {
		if !all && !want[e.Name] {
			continue
		}
		fmt.Fprintf(out, "\n===== %s (%s) =====\n", e.Name, e.Desc)
		r, err := e.Run(ctx, session)
		check(err)
		check(r.Render(out))
		if *plot && e.Title != "" {
			p, ok := r.(plotter)
			if !ok {
				log.Fatalf("experiment %s has a chart title but its result cannot plot", e.Name)
			}
			check(p.Plot(out, e.Title))
		}
		if t, ok := r.(nvramfs.Tabular); ok && *csvDir != "" && !written[e.CSV] {
			if e.CSV == "" {
				log.Fatalf("experiment %s has CSV rows but no CSV file name", e.Name)
			}
			written[e.CSV] = true
			f, err := os.Create(filepath.Join(*csvDir, e.CSV+".csv"))
			check(err)
			check(nvramfs.WriteCSV(f, t))
			check(f.Close())
		}
	}

	m := eng.Metrics()
	fmt.Fprintf(os.Stderr, "nvreport: %d jobs on %d workers in %v (%v busy)\n",
		m.JobsFinished, eng.Workers(), time.Since(start).Round(time.Millisecond),
		m.Busy.Round(time.Millisecond))
}
