package report

import (
	"context"
	"fmt"
	"io"
	"text/tabwriter"

	"nvramfs/internal/cache"
	"nvramfs/internal/crash"
	"nvramfs/internal/engine"
	"nvramfs/internal/lfs"
	"nvramfs/internal/sim"
)

// DefaultCrashPoints is the number of evenly spaced crash points injected
// per (trace, configuration) cell of the reliability grid.
const DefaultCrashPoints = 8

// reliabilityConfig is one column of the reliability study: a client cache
// organization, or the server's LFS with or without its write buffer.
type reliabilityConfig struct {
	name   string
	model  cache.ModelKind
	isLFS  bool
	buffer int64
}

func reliabilityConfigs() []reliabilityConfig {
	return []reliabilityConfig{
		{name: "volatile", model: cache.ModelVolatile},
		{name: "write-aside", model: cache.ModelWriteAside},
		{name: "unified", model: cache.ModelUnified},
		{name: "hybrid", model: cache.ModelHybrid},
		{name: "lfs", isLFS: true},
		{name: "lfs+buffer", isLFS: true, buffer: 512 << 10},
	}
}

// ReliabilityRow aggregates the crash sweep of one (trace, configuration)
// pair: the worst case over every injected crash point.
type ReliabilityRow struct {
	Trace  int
	Config string
	// Points is how many crash points were injected.
	Points int
	// MaxAtRisk is the most dirty bytes held at any crash point;
	// MaxLost is the most a crash actually destroyed.
	MaxAtRisk int64
	MaxLost   int64
	// MaxLostAge is the age (µs) of the oldest byte any crash destroyed —
	// the paper bounds it by the 30-second write-back window.
	MaxLostAge int64
	// Violations counts loss-model invariants broken across the sweep
	// (zero means the configuration's reliability claim held everywhere).
	Violations int
}

// ReliabilityResult is the crash-injection study: the paper's reliability
// argument (Section 2's write-back window, Section 3's recoverable write
// buffer) checked at sampled trace positions.
type ReliabilityResult struct {
	Points int
	Rows   []ReliabilityRow
}

// ReliabilityContext runs the crash-injection grid over the standard
// traces: the (trace, configuration, crash point) grid runs on the
// workspace engine, one injection per cell, assembled in grid order —
// the result is byte-identical at any worker count.
func ReliabilityContext(ctx context.Context, ws *Workspace) (*ReliabilityResult, error) {
	traces := AllTraces()
	configs := reliabilityConfigs()
	points := DefaultCrashPoints
	type cell struct {
		atRisk, lost, age int64
		violations        int
	}
	cells, err := engine.Map(ctx, ws.Engine(), len(traces)*len(configs)*points,
		func(ctx context.Context, i int) (cell, error) {
			trace := traces[i/(len(configs)*points)]
			cfg := configs[i/points%len(configs)]
			p := i % points
			st, err := ws.TraceStatsContext(ctx, trace)
			if err != nil {
				return cell{}, err
			}
			// Crash points split the trace evenly, ending at the final op.
			k := int((int64(p) + 1) * st.Ops / int64(points))
			if cfg.isLFS {
				out, err := crash.RunLFS(ws.Replayable(trace), crash.LFSConfig{
					FS:              lfs.Config{BufferBytes: cfg.buffer},
					CheckpointEvery: 1000,
				}, k)
				if err != nil {
					return cell{}, err
				}
				return cell{out.AtRiskBytes(), out.LostBytes, out.OldestLostAge, len(out.Violations)}, nil
			}
			src, err := ws.OpsSourceContext(ctx, trace)
			if err != nil {
				return cell{}, err
			}
			arena := getArena()
			defer putArena(arena)
			out, err := crash.RunCache(src, sim.Config{
				Model: cfg.model,
				Cache: cache.Config{
					VolatileBlocks: sim.BlocksForBytes(8*sim.MB, cache.DefaultBlockSize),
					NVRAMBlocks:    sim.BlocksForBytes(8*sim.MB, cache.DefaultBlockSize),
					Policy:         cache.LRU,
					Arena:          arena,
				},
				Seed: int64(trace),
			}, k)
			if err != nil {
				return cell{}, err
			}
			return cell{out.AtRiskBytes(), out.LostBytes, out.OldestLostAge, len(out.Violations)}, nil
		})
	if err != nil {
		return nil, err
	}
	res := &ReliabilityResult{Points: points}
	for ti, trace := range traces {
		for ci, cfg := range configs {
			row := ReliabilityRow{Trace: trace, Config: cfg.name, Points: points}
			for p := 0; p < points; p++ {
				c := cells[(ti*len(configs)+ci)*points+p]
				if c.atRisk > row.MaxAtRisk {
					row.MaxAtRisk = c.atRisk
				}
				if c.lost > row.MaxLost {
					row.MaxLost = c.lost
				}
				if c.age > row.MaxLostAge {
					row.MaxLostAge = c.age
				}
				row.Violations += c.violations
			}
			res.Rows = append(res.Rows, row)
		}
	}
	return res, nil
}

// Render writes the study as a bytes-lost / bytes-at-risk table.
func (r *ReliabilityResult) Render(w io.Writer) error {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "Reliability: crash injection at %d points per trace, worst case over the sweep\n", r.Points)
	fmt.Fprintln(tw, "trace\tconfig\tat-risk(KB)\tlost(KB)\toldest-loss(s)\tviolations")
	var violations int
	for _, row := range r.Rows {
		fmt.Fprintf(tw, "%d\t%s\t%.1f\t%.1f\t%.1f\t%d\n",
			row.Trace, row.Config,
			float64(row.MaxAtRisk)/1024, float64(row.MaxLost)/1024,
			float64(row.MaxLostAge)/1e6, row.Violations)
		violations += row.Violations
	}
	if violations == 0 {
		fmt.Fprintln(tw, "all loss-model invariants held: NVRAM configs lost no committed bytes; volatile losses stayed inside the write-back window")
	} else {
		fmt.Fprintf(tw, "INVARIANT VIOLATIONS: %d (see internal/crash)\n", violations)
	}
	return tw.Flush()
}

// CSV exports the table rows (cmd/nvreport -csv).
func (r *ReliabilityResult) CSV() [][]string {
	rows := [][]string{{"trace", "config", "points", "max_at_risk_bytes", "max_lost_bytes", "max_lost_age_us", "violations"}}
	for _, row := range r.Rows {
		rows = append(rows, []string{
			fmt.Sprint(row.Trace), row.Config, fmt.Sprint(row.Points),
			fmt.Sprint(row.MaxAtRisk), fmt.Sprint(row.MaxLost),
			fmt.Sprint(row.MaxLostAge), fmt.Sprint(row.Violations),
		})
	}
	return rows
}
