package main

// The names this program prints. BENCHMARK.json at the root of the
// repository lists the same names with their direction and regression
// bound; a unit test holds the two in step.

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
)

// Fixed by the issue for this two-core sandbox: load never comes from
// more connections or workers than there are CPUs.
const (
	loadConns     = 2
	engineWorkers = 2
)

// metricDef names one metric and its unit.
type metricDef struct {
	Name string
	Unit string
}

// workloadNames in the order a full run executes them.
var workloadNames = []string{"sweep_client", "sweep_server", "daemon_mix", "daemon_open", "daemon_park"}

// endToEnd is what a user of the system sees. Every workload reports all
// of them (README.md says what ops_per_s counts on each workload, and why
// latency and memory are per-layer diagnostics on this sandbox).
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"ops_per_s", "1/s"},
}

// perLayer is the traced run's output. A workload reports 0 for a layer
// it does not reach, which is itself the bypass prediction.
var perLayer = []metricDef{
	{"latency.p50_us", "us"},
	{"latency.p99_us", "us"},
	{"mem.peak_rss_mb", "MiB"},
	{"workload.gen_ns_per_event", "ns"},
	{"trace.encode_ns_per_event", "ns"},
	{"trace.decode_ns_per_event", "ns"},
	{"trace.bytes_per_event", "bytes"},
	{"trace.append_event_ns", "ns"},
	{"trace.decode_event_ns", "ns"},
	{"prep.source_ns_per_event", "ns"},
	{"prep.ops_per_event", "count"},
	{"prep.push_ns", "ns"},
	{"lifetime.analyze_ns_per_op", "ns"},
	{"lifetime.schedule_ns_per_op", "ns"},
	{"sim.run_ns_per_op.volatile", "ns"},
	{"sim.run_ns_per_op.write-aside", "ns"},
	{"sim.run_ns_per_op.unified", "ns"},
	{"sim.run_ns_per_op.hybrid", "ns"},
	{"sim.allocs_per_op.unified", "count"},
	{"sim.apply_ns.unified", "ns"},
	{"sim.deliveries_per_event", "count"},
	{"consist.server_ns_per_call", "ns"},
	{"engine.busy_frac", "frac"},
	{"engine.jobs", "count"},
	{"engine.peak_concurrent", "count"},
	{"report.wall_s.fig2", "s"},
	{"report.wall_s.table2", "s"},
	{"report.wall_s.fig3", "s"},
	{"report.wall_s.fig4", "s"},
	{"report.wall_s.fig5", "s"},
	{"report.wall_s.fig6", "s"},
	{"report.wall_s.server", "s"},
	{"report.self_s", "s"},
	{"lfs.run_s_per_fs", "s"},
	{"lfs.segments_written", "count"},
	{"lfs.partial_frac", "frac"},
	{"disk.accesses", "count"},
	{"faults.deliver_ns", "ns"},
	{"faults.park_self_ns", "ns"},
	{"faults.attempts", "count"},
	{"faults.exhausted", "count"},
	{"faults.nvram_high_water", "bytes"},
	{"nvram.put_ns.64B", "ns"},
	{"nvram.put_ns.4KiB", "ns"},
	{"nvram.delete_ns", "ns"},
	{"nvram.msync_ns", "ns"},
	{"nvram.msyncs_per_put", "count"},
	{"nvram.appended_bytes_per_put", "bytes"},
	{"nvram.put_ns_at_records.1k", "ns"},
	{"nvram.put_ns_at_records.20k", "ns"},
	{"nvram.reopen_ns_per_record", "ns"},
	{"nvram.compactions", "count"},
	{"nvram.image_puts", "count"},
	{"nvram.image_bytes_per_delivery", "bytes"},
	{"daemon.rtt_us.inproc", "us"},
	{"daemon.overhead_us", "us"},
	{"daemon.apply_p50_us", "us"},
	{"daemon.apply_p99_us", "us"},
	{"daemon.shed", "count"},
	{"daemon.parked", "count"},
	{"daemon.recover_drain_s", "s"},
	{"daemon.acked_unrecoverable_bytes", "bytes"},
	{"client.send_p50_us", "us"},
	{"loadgen.late_p99_us", "us"},
	{"loadgen.achieved_rate", "1/s"},
	{"loadgen.over_50ms", "count"},
	{"trace_overhead_frac", "frac"},
}

// benchmarkFile mirrors BENCHMARK.json.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func loadBenchmarkFile(root string) (*benchmarkFile, error) {
	b, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var f benchmarkFile
	if err := json.Unmarshal(b, &f); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &f, nil
}
