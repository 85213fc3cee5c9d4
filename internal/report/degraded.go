package report

import (
	"context"
	"fmt"
	"io"
	"text/tabwriter"

	"nvramfs/internal/cache"
	"nvramfs/internal/engine"
	"nvramfs/internal/faults"
	"nvramfs/internal/sim"
)

// DefaultDegradedSeed seeds the degraded grid's fault schedules; the
// rendered header prints it, and a cell's schedule is the pure function
// of (seed, trace, organization, profile) described in degradedProfile,
// so any row is reproducible from the printed value.
const DefaultDegradedSeed = 1992

// DegradedOutageUS is the server-outage duration injected by the outage
// profiles: 60 s, twice the volatile organizations' 30-second write-back
// window, so every dirty byte a volatile cache holds when the outage
// begins must attempt (and exhaust) its write-back before recovery.
const DegradedOutageUS = 60_000_000

// degradedProfile is one fault column of the degraded grid.
type degradedProfile struct {
	name        string
	drop, spike float64
	// outage injects a DegradedOutageUS server outage starting at the
	// trace's midpoint operation, so the window always lands in active
	// workload regardless of trace length.
	outage bool
}

func degradedProfiles() []degradedProfile {
	return []degradedProfile{
		{name: "flaky", drop: 0.05, spike: 0.10},
		{name: "outage60s", outage: true},
		{name: "flaky+outage", drop: 0.05, spike: 0.10, outage: true},
	}
}

// degradedOrgs are the cache organizations of the degraded grid.
func degradedOrgs() []cache.ModelKind {
	return []cache.ModelKind{
		cache.ModelVolatile, cache.ModelWriteAside, cache.ModelUnified, cache.ModelHybrid,
	}
}

// DegradedRow is one (trace, organization, profile) cell: the fault
// stage's counters plus the server's replay count.
type DegradedRow struct {
	Trace   int
	Config  string
	Profile string
	Stats   faults.Stats
	Replays int64
}

// StallOrLoss is the row's combined degradation cost: nonzero when the
// organization either stalled a writer or shed bytes.
func (r *DegradedRow) StallOrLoss() bool { return r.Stats.StallUS > 0 || r.Stats.LostBytes > 0 }

// DegradedResult is the graceful-degradation study: every organization
// run under unreliable-network and server-outage fault schedules.
type DegradedResult struct {
	Seed int64
	Rows []DegradedRow
	// Headline summarizes the paper-extending claim over the outage
	// profiles: volatile organizations pay stall-or-loss, NVRAM
	// organizations absorb the outage into NVRAM with zero loss.
	VolatileStallUS int64
	VolatileLost    int64
	NVRAMLost       int64
	NVRAMHighWater  int64
	ConservationOK  bool
}

// DegradedContext runs the fault-injection grid over the standard traces:
// the (trace, organization, profile) grid runs on the workspace engine,
// one faulty simulation per cell, assembled in grid order — byte-identical
// at any worker count.
func DegradedContext(ctx context.Context, ws *Workspace) (*DegradedResult, error) {
	traces := AllTraces()
	orgs := degradedOrgs()
	profiles := degradedProfiles()
	rows, err := engine.Map(ctx, ws.Engine(), len(traces)*len(orgs)*len(profiles),
		func(ctx context.Context, i int) (DegradedRow, error) {
			trace := traces[i/(len(orgs)*len(profiles))]
			org := orgs[i/len(profiles)%len(orgs)]
			prof := profiles[i%len(profiles)]
			src, err := ws.OpsSourceContext(ctx, trace)
			if err != nil {
				return DegradedRow{}, err
			}
			fp := &faults.Profile{
				// One seed per cell, derived from the printed base so a
				// single row can be replayed in isolation.
				Seed:        DefaultDegradedSeed + int64(i),
				DropRate:    prof.drop,
				SpikeRate:   prof.spike,
				AckLossRate: 0.25,
			}
			if prof.outage {
				st, err := ws.TraceStatsContext(ctx, trace)
				if err != nil {
					return DegradedRow{}, err
				}
				if st.Ops > 0 {
					start, err := ws.MidTimeContext(ctx, trace)
					if err != nil {
						return DegradedRow{}, err
					}
					fp.Outages = []faults.Window{{Start: start, End: start + DegradedOutageUS}}
				}
			}
			arena := getArena()
			defer putArena(arena)
			res, err := sim.Run(src, sim.Config{
				Model: org,
				Cache: cache.Config{
					VolatileBlocks: sim.BlocksForBytes(8*sim.MB, cache.DefaultBlockSize),
					NVRAMBlocks:    sim.BlocksForBytes(2*sim.MB, cache.DefaultBlockSize),
					Policy:         cache.LRU,
					Arena:          arena,
				},
				Seed:   int64(trace),
				Faults: fp,
			})
			if err != nil {
				return DegradedRow{}, err
			}
			return DegradedRow{
				Trace:   trace,
				Config:  org.String(),
				Profile: prof.name,
				Stats:   *res.Faults,
				Replays: res.ReplayedWrites,
			}, nil
		})
	if err != nil {
		return nil, err
	}
	res := &DegradedResult{Seed: DefaultDegradedSeed, Rows: rows, ConservationOK: true}
	for i := range rows {
		r := &rows[i]
		st := &r.Stats
		if st.CommittedBytes+st.LostBytes+st.PendingBytes != st.OfferedBytes {
			res.ConservationOK = false
		}
		outage := r.Profile != "flaky"
		switch r.Config {
		case "volatile":
			if outage {
				res.VolatileStallUS += st.StallUS
				res.VolatileLost += st.LostBytes
			}
		case "write-aside", "unified":
			res.NVRAMLost += st.LostBytes
			if outage && st.NVRAMHighWater > res.NVRAMHighWater {
				res.NVRAMHighWater = st.NVRAMHighWater
			}
		}
	}
	return res, nil
}

// HeadlineHolds reports the study's central claim: under outages the
// volatile organization paid a nonzero stall-or-loss cost while the
// NVRAM organizations lost nothing and parked bytes in NVRAM.
func (r *DegradedResult) HeadlineHolds() bool {
	return r.ConservationOK &&
		r.VolatileStallUS+r.VolatileLost > 0 &&
		r.NVRAMLost == 0 &&
		r.NVRAMHighWater > 0
}

// Render writes the study as a per-cell degradation table.
func (r *DegradedResult) Render(w io.Writer) error {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "Degraded mode: fault-injected write-back (base seed %d; cell seed = base + row index)\n", r.Seed)
	for _, p := range degradedProfiles() {
		outage := ""
		if p.outage {
			outage = fmt.Sprintf(", %ds outage at trace midpoint", DegradedOutageUS/1_000_000)
		}
		fmt.Fprintf(tw, "profile %s: drop=%g spike=%g%s\n", p.name, p.drop, p.spike, outage)
	}
	fmt.Fprintln(tw, "trace\tconfig\tprofile\tretries\tstall(s)\tnv-peak(KB)\tlost(KB)\tredelivered(KB)\treplays")
	for _, row := range r.Rows {
		st := row.Stats
		fmt.Fprintf(tw, "%d\t%s\t%s\t%d\t%.2f\t%.1f\t%.1f\t%.1f\t%d\n",
			row.Trace, row.Config, row.Profile,
			st.Retries, float64(st.StallUS)/1e6,
			float64(st.NVRAMHighWater)/1024, float64(st.LostBytes)/1024,
			float64(st.RedeliveredBytes)/1024, row.Replays)
	}
	if r.HeadlineHolds() {
		fmt.Fprintf(tw, "headline: outages stalled volatile writers %.2fs total while NVRAM organizations lost 0 bytes (peak %.1f KB parked in NVRAM)\n",
			float64(r.VolatileStallUS)/1e6, float64(r.NVRAMHighWater)/1024)
	} else {
		fmt.Fprintln(tw, "HEADLINE FAILED: see internal/report/degraded.go (conservation or degradation semantics broke)")
	}
	return tw.Flush()
}

// CSV exports the table rows (cmd/nvreport -csv).
func (r *DegradedResult) CSV() [][]string {
	rows := [][]string{{
		"trace", "config", "profile", "deliveries", "attempts", "retries",
		"drops", "ack_losses", "exhausted", "offered_bytes", "committed_bytes",
		"redelivered_bytes", "lost_bytes", "pending_bytes", "stall_us",
		"retry_latency_us", "nvram_high_water", "replays",
	}}
	for _, row := range r.Rows {
		st := row.Stats
		rows = append(rows, []string{
			fmt.Sprint(row.Trace), row.Config, row.Profile,
			fmt.Sprint(st.Deliveries), fmt.Sprint(st.Attempts), fmt.Sprint(st.Retries),
			fmt.Sprint(st.Drops), fmt.Sprint(st.AckLosses), fmt.Sprint(st.Exhausted),
			fmt.Sprint(st.OfferedBytes), fmt.Sprint(st.CommittedBytes),
			fmt.Sprint(st.RedeliveredBytes), fmt.Sprint(st.LostBytes),
			fmt.Sprint(st.PendingBytes), fmt.Sprint(st.StallUS),
			fmt.Sprint(st.RetryLatencyUS), fmt.Sprint(st.NVRAMHighWater),
			fmt.Sprint(row.Replays),
		})
	}
	return rows
}
