// Command nvsim runs one client-cache simulation and prints the traffic
// breakdown.
//
// Usage:
//
//	nvsim -trace 7 -model unified -policy lru -volatile 8 -nvram 1
//	nvsim -file traces/trace7.nvft -model write-aside -nvram 2
//	nvsim -file - < traces/trace7.nvft                     # trace from stdin
//	nvsim -trace 7 -faults seed=7,drop=0.1,outage=2m+60s   # unreliable server
//	nvsim -trace 7 -crash-at 5000 -faults outage=0s+never  # crash during outage
//	nvsim -trace 7 -durable /tmp/nv -crash-at 5000 -faults outage=0s+never
//	                                                       # kill/reopen against a real image file
//	nvsim -trace 7 -durable /tmp/nv -durable-lfs -crash-at 5000
//	                                                       # ... on the server LFS write buffer
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strconv"
	"strings"
	"text/tabwriter"

	"nvramfs"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("nvsim: ")
	var (
		traceIdx   = flag.Int("trace", 7, "standard trace index 1..8")
		file       = flag.String("file", "", "trace file (overrides -trace)")
		scale      = flag.Float64("scale", 1.0, "workload scale for standard traces")
		model      = flag.String("model", "unified", "cache model: volatile | write-aside | unified | hybrid")
		policy     = flag.String("policy", "lru", "NVRAM replacement: lru | random | omniscient")
		volatileMB = flag.Float64("volatile", 8, "volatile cache size per client (MB)")
		nvramMB    = flag.Float64("nvram", 1, "NVRAM size per client (MB)")
		writesOnly = flag.Bool("writes-only", false, "ignore read traffic (Figure 3 methodology)")
		sweepNVRAM = flag.String("sweep-nvram", "", "comma-separated NVRAM sizes (MB) to sweep instead of a single run")
		sweepModel = flag.Bool("sweep-models", false, "compare all cache models at the given sizes")
		crashAt    = flag.Int("crash-at", -1, "inject a crash after N trace operations and report the loss model (-1 disables; 0 crashes before any work)")
		faultSpec  = flag.String("faults", "", "fault-injection spec for the write-back path, e.g. seed=7,drop=0.1,outage=2m+60s (see -faults-help)")
		faultHelp  = flag.Bool("faults-help", false, "print the -faults spec grammar and exit")
		durableDir = flag.String("durable", "", "scratch directory for a durable NVRAM image: run the kill/reopen crash harness at the -crash-at boundary against a real file instead of the in-memory loss model (cache path requires -faults)")
		durableLFS = flag.Bool("durable-lfs", false, "durable harness drives the server LFS write buffer and checkpoint instead of the client cache (requires -durable)")
	)
	flag.Parse()

	if *faultHelp {
		fmt.Print(nvramfs.FaultSpecUsage())
		return
	}
	var faultDesc string
	if *faultSpec != "" {
		var err error
		if faultDesc, err = nvramfs.DescribeFaultSpec(*faultSpec); err != nil {
			log.Fatal(err)
		}
	}

	var (
		tr  *nvramfs.Trace
		err error
	)
	if *file == "-" {
		tr, err = nvramfs.ReadTrace(os.Stdin)
	} else if *file != "" {
		f, ferr := os.Open(*file)
		if ferr != nil {
			log.Fatal(ferr)
		}
		defer f.Close()
		tr, err = nvramfs.ReadTrace(f)
	} else {
		tr, err = nvramfs.StandardTrace(*traceIdx, *scale)
	}
	if err != nil {
		log.Fatal(err)
	}

	if *crashAt > tr.NumOps() {
		log.Fatalf("-crash-at %d is beyond the trace: valid crash points are 0..%d (operation boundaries), or -1 to disable",
			*crashAt, tr.NumOps())
	}
	cfg := nvramfs.CacheConfig{
		Model:      *model,
		Policy:     *policy,
		VolatileMB: *volatileMB,
		NVRAMMB:    *nvramMB,
		WritesOnly: *writesOnly,
		Faults:     *faultSpec,
	}
	if *durableLFS && *durableDir == "" {
		log.Fatal("-durable-lfs needs -durable <dir> for the image file")
	}
	if *durableDir != "" {
		if *sweepNVRAM != "" || *sweepModel {
			log.Fatal("-durable runs a single kill/reopen crash, not a sweep")
		}
		if !*durableLFS && *faultSpec == "" {
			log.Fatal("-durable on the cache path needs -faults (the image holds the parked write-back backlog; try outage=0s+never)")
		}
		// A scratch directory, so create it on demand: the harness only
		// creates the image files inside it.
		if err := os.MkdirAll(*durableDir, 0o755); err != nil {
			log.Fatalf("-durable %s: %v", *durableDir, err)
		}
		runDurable(tr, cfg, *durableDir, *crashAt, *durableLFS, faultDesc)
		return
	}
	if *crashAt >= 0 {
		injectCrash(tr, cfg, *crashAt, faultDesc)
		return
	}
	if *sweepNVRAM != "" {
		sweep(tr, *model, *policy, *volatileMB, *sweepNVRAM, *writesOnly)
		return
	}
	if *sweepModel {
		compareModels(tr, *policy, *volatileMB, *nvramMB, *writesOnly)
		return
	}

	res, err := tr.RunCache(cfg)
	if err != nil {
		log.Fatal(err)
	}

	t := &res.Traffic
	st := tr.Stats()
	fmt.Printf("trace %s: %d events, %d files\n", tr.Name, st.Events, st.Files)
	fmt.Printf("model=%s policy=%s volatile=%.2fMB nvram=%.2fMB\n", *model, *policy, *volatileMB, *nvramMB)
	fmt.Printf("application:   %12d B read   %12d B written\n", t.AppReadBytes, t.AppWriteBytes)
	fmt.Printf("server reads:  %12d B (hit rate %.1f%%)\n", t.ServerReadBytes,
		100*float64(t.ReadHitBytes)/max(float64(t.AppReadBytes), 1))
	fmt.Printf("server writes: %12d B   net write traffic %.1f%%\n", t.ServerWriteBytes(), 100*t.NetWriteFrac())
	for c := 0; c < int(len(t.WriteBack)); c++ {
		if t.WriteBack[c] > 0 {
			fmt.Printf("  %-12s %12d B\n", causeName(c), t.WriteBack[c])
		}
	}
	fmt.Printf("absorbed:      %12d B overwritten, %12d B deleted\n",
		t.AbsorbedOverwriteBytes, t.AbsorbedDeleteBytes)
	fmt.Printf("net total traffic: %.1f%%   bus writes: %d B   NVRAM accesses: %d\n",
		100*t.NetTotalFrac(), t.BusWriteBytes, t.NVRAMAccesses)
	fmt.Printf("consistency: %d recalls, %d cache disables\n", res.Recalls, res.DisableEvents)
	if res.Faults != nil {
		printFaultStats(faultDesc, res.Faults, res.ReplayedWrites)
	}
}

// printFaultStats reports the fault-injection stage: the schedule (with
// defaults filled, so the run is reproducible from this banner), the
// retry activity, and the degradation costs.
func printFaultStats(desc string, st *nvramfs.FaultStats, replays int64) {
	fmt.Printf("fault injection: %s\n", desc)
	fmt.Printf("  deliveries: %d  attempts: %d  retries: %d  drops: %d  ack losses: %d  spikes: %d  exhausted: %d\n",
		st.Deliveries, st.Attempts, st.Retries, st.Drops, st.AckLosses, st.Spikes, st.Exhausted)
	fmt.Printf("  stall time: %.3fs  retry latency: %.3fs  NVRAM dirty high-water: %d B\n",
		float64(st.StallUS)/1e6, float64(st.RetryLatencyUS)/1e6, st.NVRAMHighWater)
	fmt.Printf("  committed: %d B  redelivered: %d B  lost: %d B  pending: %d B  server replays: %d\n",
		st.CommittedBytes, st.RedeliveredBytes, st.LostBytes, st.PendingBytes, replays)
}

// runDurable runs the kill/reopen harness: the simulation mirrors its
// NVRAM state into an image file under dir, the power is cut at the
// given boundary, and recovery from the reopened file is verified against
// an in-memory oracle replay.
func runDurable(tr *nvramfs.Trace, cfg nvramfs.CacheConfig, dir string, at int, lfsMode bool, faultDesc string) {
	var (
		out *nvramfs.DurableOutcome
		err error
	)
	if lfsMode {
		var lc nvramfs.LFSCrashConfig
		lc.FS.BufferBytes = 512 << 10
		lc.CheckpointEvery = 5
		out, err = tr.KillReopenLFS(lc, dir, at)
	} else {
		out, err = tr.KillReopenCache(cfg, dir, at)
	}
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("durable kill/reopen after %d ops: image replayed %d committed records, discarded %d torn tail bytes\n",
		out.Index, out.Records, out.DiscardedTailBytes)
	if lfsMode {
		fmt.Printf("recovered: %d buffered blocks, checkpoint seq %d\n", out.RecoveredBlocks, out.CheckpointSeq)
	} else {
		fmt.Printf("fault injection: %s\n", faultDesc)
		fmt.Printf("recovered: %d parked deliveries, %d B write-back backlog\n",
			out.ParkedDeliveries, out.ParkedBytes)
	}
	if len(out.Violations) == 0 {
		fmt.Println("durable recovery: exact (zero committed-byte loss)")
		return
	}
	fmt.Printf("durable recovery: %d VIOLATIONS\n", len(out.Violations))
	for _, v := range out.Violations {
		fmt.Printf("  %s\n", v)
	}
	os.Exit(1)
}

// injectCrash crashes the simulation at an event boundary and prints the
// loss model's verdict (internal/crash).
func injectCrash(tr *nvramfs.Trace, cfg nvramfs.CacheConfig, at int, faultDesc string) {
	out, err := tr.CrashCache(cfg, at)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("crash after %d ops (t=%.3fs): model=%s\n", out.Index, float64(out.Time)/1e6, cfg.Model)
	fmt.Printf("at risk:   %12d B dirty client-side\n", out.AtRiskBytes())
	fmt.Printf("lost:      %12d B (volatile only)\n", out.LostBytes)
	fmt.Printf("survived:  %12d B (NVRAM)\n", out.SurvivedBytes)
	if out.Faults != nil {
		fmt.Printf("fault injection: %s\n", faultDesc)
		fmt.Printf("  write-back backlog at crash: %d B parked in NVRAM (survives), %d B stalled volatile (lost)\n",
			out.PendingStableBytes, out.PendingVolatileBytes)
	}
	if out.LostBytes > 0 {
		fmt.Printf("oldest lost byte: %.3fs before the crash\n", float64(out.OldestLostAge)/1e6)
	}
	if len(out.Violations) == 0 {
		fmt.Println("loss-model invariants: all held")
		return
	}
	fmt.Printf("loss-model invariants: %d VIOLATED\n", len(out.Violations))
	for _, v := range out.Violations {
		fmt.Printf("  %s\n", v)
	}
	os.Exit(1)
}

// sweep runs one model across several NVRAM sizes.
func sweep(tr *nvramfs.Trace, model, policy string, volMB float64, sizes string, writesOnly bool) {
	tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	defer tw.Flush()
	fmt.Fprintf(tw, "model=%s policy=%s volatile=%.2fMB\n", model, policy, volMB)
	fmt.Fprintln(tw, "NVRAM MB\tnet write %\tnet total %\tabsorbed %")
	for _, field := range strings.Split(sizes, ",") {
		mb, err := strconv.ParseFloat(strings.TrimSpace(field), 64)
		if err != nil {
			log.Fatalf("bad sweep size %q: %v", field, err)
		}
		res, err := tr.RunCache(nvramfs.CacheConfig{
			Model: model, Policy: policy,
			VolatileMB: volMB, NVRAMMB: mb, WritesOnly: writesOnly,
		})
		if err != nil {
			log.Fatal(err)
		}
		t := &res.Traffic
		fmt.Fprintf(tw, "%.3f\t%5.1f\t%5.1f\t%5.1f\n", mb,
			100*t.NetWriteFrac(), 100*t.NetTotalFrac(),
			100*float64(t.AbsorbedBytes())/float64(t.AppWriteBytes))
	}
}

// compareModels runs every cache model at one size point.
func compareModels(tr *nvramfs.Trace, policy string, volMB, nvMB float64, writesOnly bool) {
	tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	defer tw.Flush()
	fmt.Fprintf(tw, "volatile=%.2fMB nvram=%.2fMB policy=%s\n", volMB, nvMB, policy)
	fmt.Fprintln(tw, "model\tnet write %\tnet total %\tNVRAM accesses")
	for _, model := range []string{"volatile", "write-aside", "unified", "hybrid"} {
		cfg := nvramfs.CacheConfig{
			Model: model, Policy: policy,
			VolatileMB: volMB, NVRAMMB: nvMB, WritesOnly: writesOnly,
		}
		if model == "volatile" {
			cfg.NVRAMMB = 0
		}
		res, err := tr.RunCache(cfg)
		if err != nil {
			log.Fatal(err)
		}
		t := &res.Traffic
		fmt.Fprintf(tw, "%s\t%5.1f\t%5.1f\t%d\n", model,
			100*t.NetWriteFrac(), 100*t.NetTotalFrac(), t.NVRAMAccesses)
	}
}

func causeName(i int) string {
	names := []string{"replacement", "cleaner", "fsync", "callback", "migration", "concurrent", "remaining"}
	if i < len(names) {
		return names[i]
	}
	return fmt.Sprintf("cause%d", i)
}
