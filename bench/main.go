// Command bench is the repository's benchmark: five named workloads over
// both ways the system is served — the offline trace-driven sweeps and
// the live nvramd daemon — with end-to-end metrics measured untraced and
// a separate traced run that gives the per-layer numbers. See README.md.
//
//	bash bench/run.sh --workload daemon_mix --seed 1 --seconds 16 --trace 0
//	bash bench/run.sh -seed 1 -out result-a.json          # all five workloads
//	bash bench/run.sh -seed 1 -trace 1 -spans run.spans.json
//	bash bench/run.sh -compare result-a.json result-b.json
//
// It runs from the root of the checkout (run.sh starts it there).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
)

// environment is recorded beside the metrics: a number without it cannot
// be compared with another.
type environment struct {
	Commit     string `json:"commit"`
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"nproc"`
	Kernel     string `json:"kernel"`
	Seed       int64  `json:"seed"`
	Seconds    int    `json:"seconds"`
	Traced     bool   `json:"traced"`
	Conns      int    `json:"connections"`
	Workers    int    `json:"engine_workers"`
}

func recordEnvironment(root string, seed int64, seconds int, traced bool) environment {
	env := environment{
		Commit:     "unknown",
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		Kernel:     "unknown",
		Seed:       seed,
		Seconds:    seconds,
		Traced:     traced,
		Conns:      loadConns,
		Workers:    engineWorkers,
	}
	// A driver's checkout is not a git repository; the commit is then unknown.
	if out, err := exec.Command("git", "-C", root, "rev-parse", "HEAD").Output(); err == nil {
		env.Commit = strings.TrimSpace(string(out))
	}
	if b, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		env.Kernel = strings.TrimSpace(string(b))
	}
	return env
}

// record is the -out file: what -compare reads.
type record struct {
	Env     environment `json:"env"`
	Results []*result   `json:"results"`
}

func main() {
	var (
		workload = flag.String("workload", "", "run one workload ("+strings.Join(workloadNames, ", ")+"); default all")
		seed     = flag.Int64("seed", 1, "seed every input is generated from")
		seconds  = flag.Int("seconds", 16, "how long one workload measures (sizes scale with it)")
		traceN   = flag.Int("trace", 0, "1 = the traced run: per-layer metrics instead of end-to-end")
		spans    = flag.String("spans", "", "traced run: write the spans to this file at exit")
		out      = flag.String("out", "", "write the full record (environment, metrics, spreads, counts) to this file")
		compare  = flag.Bool("compare", false, "compare two -out files: bench -compare A.json B.json")
		spin     = flag.Bool("idle-spin", false, "internal: spin at idle priority until killed (see keepCPUsAwake)")
	)
	flag.Parse()
	if *spin {
		idleSpin()
	}
	if *compare {
		if flag.NArg() != 2 {
			fatalf("usage: bench -compare A.json B.json")
		}
		os.Exit(compareFiles(".", flag.Arg(0), flag.Arg(1), os.Stdout))
	}
	if flag.NArg() != 0 {
		fatalf("unexpected arguments %q", flag.Args())
	}
	if *seconds < 1 || *seconds > 60 {
		fatalf("-seconds must be 1..60, got %d", *seconds)
	}
	if *traceN != 0 && *traceN != 1 {
		fatalf("-trace must be 0 or 1, got %d", *traceN)
	}
	tracing := *traceN == 1
	if err := requireCPUs(runtime.NumCPU()); err != nil {
		fatalf("%v", err)
	}
	absRoot, err := os.Getwd()
	if err != nil {
		fatalf("%v", err)
	}
	if !fileExists(filepath.Join(absRoot, "go.mod")) || !fileExists(filepath.Join(absRoot, "cmd", "nvramd")) {
		fatalf("%s is not the root of the repository: nothing to build nvramd from", absRoot)
	}
	names := workloadNames
	if *workload != "" {
		names = []string{*workload}
	}

	cleanupOnSignal()
	c := &run{
		root:    absRoot,
		build:   filepath.Join(absRoot, ".bench_build"),
		seed:    *seed,
		seconds: *seconds,
		logf:    func(format string, args ...any) { fmt.Fprintf(os.Stderr, format+"\n", args...) },
	}
	if tracing {
		c.tr = newTracer()
	}
	rec := record{Env: recordEnvironment(absRoot, *seed, *seconds, tracing)}
	envJSON, _ := json.Marshal(rec.Env)
	c.logf("environment %s", envJSON)

	ok := true
	for _, name := range names {
		// One workload's garbage must not be the next one's heap.
		debug.FreeOSMemory()
		c.logf("== %s (seed %d, %ds, traced=%v)", name, *seed, *seconds, tracing)
		res, err := c.workload(name)
		if err != nil {
			cleanupAll()
			fatalf("%s: %v", name, err)
		}
		rec.Results = append(rec.Results, res)
		printHuman(os.Stderr, res)
		fmt.Println(resultLine(res, tracing))
		ok = ok && res.Correct
	}
	cleanupAll()
	if err := c.tr.writeSpans(*spans); err != nil {
		fatalf("writing spans: %v", err)
	}
	if *out != "" {
		b, err := json.MarshalIndent(rec, "", "  ")
		if err == nil {
			err = os.WriteFile(*out, append(b, '\n'), 0o644)
		}
		if err != nil {
			fatalf("writing %s: %v", *out, err)
		}
	}
	if !ok {
		os.Exit(1)
	}
}

// workload runs one workload, traced or not.
func (c *run) workload(name string) (*result, error) {
	if c.tr.on() {
		return c.traced(name)
	}
	switch name {
	case "sweep_client":
		return c.sweepClient()
	case "sweep_server":
		return c.sweepServer()
	case "daemon_mix":
		return c.daemonMix()
	case "daemon_open":
		return c.daemonOpen()
	case "daemon_park":
		return c.daemonPark()
	}
	return nil, fmt.Errorf("unknown workload (want one of %s)", strings.Join(workloadNames, ", "))
}

// resultLine is the one JSON object a harness reads from the last line
// of standard output: every end-to-end metric of an untraced run, every
// per-layer metric of a traced one (0 where the workload does not reach
// the layer).
func resultLine(res *result, tracing bool) string {
	defs := endToEnd
	if tracing {
		defs = perLayer
	}
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool          `json:"correct"`
		Attempted int64         `json:"attempted"`
		Failed    int64         `json:"failed"`
		Metrics   map[string]mv `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, map[string]mv{}}
	for _, d := range defs {
		line.Metrics[d.Name] = mv{res.Metrics[d.Name].Value, d.Unit}
	}
	b, err := json.Marshal(line)
	if err != nil {
		fatalf("encoding the result: %v", err)
	}
	return string(b)
}

// printHuman prints every metric by name with its unit, spread and
// sample count, then the counts, diagnostics and any failed check.
func printHuman(w *os.File, res *result) {
	fmt.Fprintf(w, "%s: correct=%v attempted_ops=%d failed_ops=%d\n", res.Workload, res.Correct, res.Attempted, res.Failed)
	if res.SimDigest != "" {
		fmt.Fprintf(w, "  sim_digest %s\n", res.SimDigest)
	}
	if res.InputDigest != "" {
		fmt.Fprintf(w, "  input_digest %s\n", res.InputDigest)
	}
	for _, name := range sortedNames(res.Metrics) {
		m := res.Metrics[name]
		fmt.Fprintf(w, "  %-36s %16.4f %-6s", name, m.Value, m.Unit)
		if m.N > 0 {
			fmt.Fprintf(w, " spread %5.2f%% of median, n=%d", 100*m.Spread, m.N)
		}
		fmt.Fprintln(w)
	}
	for _, name := range sortedNames(res.Counts) {
		fmt.Fprintf(w, "  count %-30s %16d\n", name, res.Counts[name])
	}
	for _, name := range sortedNames(res.Diagnostics) {
		fmt.Fprintf(w, "  diag  %-30s %16.4f\n", name, res.Diagnostics[name])
	}
	for _, p := range res.Problems {
		fmt.Fprintf(w, "  FAILED CHECK: %s\n", p)
	}
	if res.Workload == "daemon_park" {
		fmt.Fprintln(w, "  note: SIGKILL keeps the page cache: this is process-crash durability, not power loss")
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "bench: "+format+"\n", args...)
	os.Exit(1)
}
