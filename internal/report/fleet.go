package report

import (
	"context"
	"fmt"
	"io"
	"text/tabwriter"
	"time"

	"nvramfs/internal/engine"
	"nvramfs/internal/fleet"
	"nvramfs/internal/server"
	"nvramfs/internal/stats"
	"nvramfs/internal/workload"
)

// DefaultFleetSeed seeds the fleet grid's synthetic populations; every
// cell derives its workload purely from (seed, client count), so any row
// reproduces in isolation.
const DefaultFleetSeed = 4092

// FleetOptions parameterizes the fleet sweep. The zero value is replaced
// by DefaultFleetOptions; tests shrink the grid for speed.
type FleetOptions struct {
	// ClientCounts and ShardCounts span the grid.
	ClientCounts []int
	ShardCounts  []int
	// DurationHours is the virtual trace length per cell.
	DurationHours int
	// MaxActive bounds concurrently active sessions (generator live
	// state); it is held constant across client counts so memory growth,
	// if any, is attributable to the servers.
	MaxActive int
	// Scale multiplies per-session data volume (the workspace scale).
	Scale float64
	// CacheBlocks is the cluster's shared block budget; NVRAMBlocks is
	// the per-shard NVRAM region used by the "nvm" organization.
	CacheBlocks int
	NVRAMBlocks int
}

// DefaultFleetOptions is the published grid: population sweeps at 1, 4,
// and 16 shards, volatile vs NVRAM servers, 128 MB shared cache.
func DefaultFleetOptions(scale float64) FleetOptions {
	return FleetOptions{
		ClientCounts:  []int{1_000, 10_000, 50_000},
		ShardCounts:   []int{1, 4, 16},
		DurationHours: 24,
		MaxActive:     512,
		Scale:         scale,
		CacheBlocks:   (128 << 20) / (4 << 10),
		NVRAMBlocks:   (2 << 20) / (4 << 10),
	}
}

func (o *FleetOptions) fillDefaults(scale float64) {
	d := DefaultFleetOptions(scale)
	if len(o.ClientCounts) == 0 {
		o.ClientCounts = d.ClientCounts
	}
	if len(o.ShardCounts) == 0 {
		o.ShardCounts = d.ShardCounts
	}
	if o.DurationHours <= 0 {
		o.DurationHours = d.DurationHours
	}
	if o.MaxActive <= 0 {
		o.MaxActive = d.MaxActive
	}
	if o.Scale <= 0 {
		o.Scale = d.Scale
	}
	if o.CacheBlocks <= 0 {
		o.CacheBlocks = d.CacheBlocks
	}
	if o.NVRAMBlocks <= 0 {
		o.NVRAMBlocks = d.NVRAMBlocks
	}
}

// fleetOrgs are the server organizations compared: volatile-only server
// caches vs servers with a per-shard NVRAM region.
func fleetOrgs() []string { return []string{"volatile", "nvm"} }

// FleetRow is one (clients, shards, organization) cell.
type FleetRow struct {
	Clients int
	Shards  int
	Org     string
	Events  int64
	// Load balance: max and mean messages / write blocks per shard, and
	// their ratios (1.0 = perfectly balanced).
	MsgMax, BlkMax   int64
	MsgMean, BlkMean float64
	MsgImb, BlkImb   float64
	// Consistency traffic totals.
	Recalls       int64
	Invalidations int64
	// Storm is the per-write invalidation fan-out histogram; WB the
	// cluster-wide write-back latency histogram (virtual µs).
	Storm      stats.Hist
	WB         stats.Hist
	DiskWrites int64
}

// FleetResult is the population-scale fleet study.
type FleetResult struct {
	Seed int64
	Opts FleetOptions
	Rows []FleetRow
}

// FleetContext runs the fleet grid with default options on the workspace
// engine.
func FleetContext(ctx context.Context, ws *Workspace) (*FleetResult, error) {
	return FleetWithOptions(ctx, ws, FleetOptions{})
}

// FleetWithOptions runs the (clients, shards, organization) grid, one
// sequential fleet simulation per cell, assembled in grid order — byte-
// identical at any worker count and any intra-trace shard width (cells
// never touch the sharded trace pipeline).
func FleetWithOptions(ctx context.Context, ws *Workspace, opts FleetOptions) (*FleetResult, error) {
	opts.fillDefaults(ws.Scale)
	orgs := fleetOrgs()
	n := len(opts.ClientCounts) * len(opts.ShardCounts) * len(orgs)
	rows, err := engine.Map(ctx, ws.Engine(), n,
		func(ctx context.Context, i int) (FleetRow, error) {
			clients := opts.ClientCounts[i/(len(opts.ShardCounts)*len(orgs))]
			shards := opts.ShardCounts[i/len(orgs)%len(opts.ShardCounts)]
			org := orgs[i%len(orgs)]
			row, err := fleetCell(opts, clients, shards, org)
			if err != nil {
				return FleetRow{}, err
			}
			if err := ctx.Err(); err != nil {
				return FleetRow{}, err
			}
			return row, nil
		})
	if err != nil {
		return nil, err
	}
	return &FleetResult{Seed: DefaultFleetSeed, Opts: opts, Rows: rows}, nil
}

// fleetCell runs one cell: a fresh synthetic population streamed through
// a fresh fleet.
func fleetCell(opts FleetOptions, clients, shards int, org string) (FleetRow, error) {
	cur, err := workload.NewFleetCursor(workload.FleetProfile{
		Name:      fmt.Sprintf("fleet-c%d", clients),
		Seed:      DefaultFleetSeed,
		Duration:  time.Duration(opts.DurationHours) * time.Hour,
		Clients:   clients,
		MaxActive: opts.MaxActive,
		Scale:     opts.Scale,
	})
	if err != nil {
		return FleetRow{}, err
	}
	nv := 0
	if org == "nvm" {
		nv = opts.NVRAMBlocks
	}
	res, err := fleet.Run(cur, fleet.Options{
		Shards: shards,
		Server: server.Config{CacheBlocks: opts.CacheBlocks, NVRAMBlocks: nv},
	})
	if err != nil {
		return FleetRow{}, err
	}
	row := FleetRow{
		Clients: clients,
		Shards:  shards,
		Org:     org,
		Events:  res.Events,
		MsgImb:  res.MsgImbalance(),
		BlkImb:  res.BlockImbalance(),
		Storm:   res.Storm,
		WB:      res.WriteBackMerged(),
	}
	var msgSum, blkSum int64
	for i := range res.Shards {
		s := &res.Shards[i]
		msgSum += s.Msgs
		blkSum += s.Blocks
		if s.Msgs > row.MsgMax {
			row.MsgMax = s.Msgs
		}
		if s.Blocks > row.BlkMax {
			row.BlkMax = s.Blocks
		}
		row.Recalls += s.Recalls
		row.Invalidations += s.Invalidations
		row.DiskWrites += s.DiskWrites
	}
	row.MsgMean = float64(msgSum) / float64(shards)
	row.BlkMean = float64(blkSum) / float64(shards)
	return row, nil
}

// Render writes the study as a per-cell table plus the fan-out histogram
// of the largest population at the widest fleet.
func (r *FleetResult) Render(w io.Writer) error {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "Fleet: population-scale sharded servers (seed %d, %dh traces, %d active sessions, scale %g)\n",
		r.Seed, r.Opts.DurationHours, r.Opts.MaxActive, r.Opts.Scale)
	fmt.Fprintln(tw, "clients\tshards\torg\tevents\tmsg-imb\tblk-imb\trecalls\tinvals\tstorm-p99\twb-p50(s)\twb-p99(s)\twb-p999(s)\tdisk-writes")
	for i := range r.Rows {
		row := &r.Rows[i]
		fmt.Fprintf(tw, "%d\t%d\t%s\t%d\t%.3f\t%.3f\t%d\t%d\t%d\t%.2f\t%.2f\t%.2f\t%d\n",
			row.Clients, row.Shards, row.Org, row.Events,
			row.MsgImb, row.BlkImb, row.Recalls, row.Invalidations,
			row.Storm.Quantile(0.99),
			float64(row.WB.Quantile(0.5))/1e6,
			float64(row.WB.Quantile(0.99))/1e6,
			float64(row.WB.Quantile(0.999))/1e6,
			row.DiskWrites)
	}
	if big := r.biggestCell(); big != nil {
		fmt.Fprintf(tw, "storm fan-out, %d clients x %d shards (%s): ", big.Clients, big.Shards, big.Org)
		first := true
		for b, c := range big.Storm.Counts {
			if c == 0 {
				continue
			}
			if !first {
				fmt.Fprint(tw, "  ")
			}
			first = false
			if b == 0 {
				fmt.Fprintf(tw, "0:%d", c)
			} else {
				fmt.Fprintf(tw, "<%d:%d", int64(1)<<uint(b), c)
			}
		}
		fmt.Fprintln(tw)
	}
	return tw.Flush()
}

// biggestCell picks the nvm row with the most clients at the most shards
// (the cell whose storm histogram the render prints).
func (r *FleetResult) biggestCell() *FleetRow {
	var best *FleetRow
	for i := range r.Rows {
		row := &r.Rows[i]
		if row.Org != "nvm" {
			continue
		}
		if best == nil || row.Clients > best.Clients ||
			(row.Clients == best.Clients && row.Shards > best.Shards) {
			best = row
		}
	}
	return best
}

// CSV exports the table rows (cmd/nvreport -csv), including the per-shard
// imbalance and tail write-back latency columns the study is about.
func (r *FleetResult) CSV() [][]string {
	rows := [][]string{{
		"clients", "shards", "org", "events",
		"msg_max", "msg_mean", "msg_imbalance",
		"blk_max", "blk_mean", "blk_imbalance",
		"recalls", "invalidations",
		"storms", "storm_p50", "storm_p99", "storm_p999",
		"wb_n", "wb_p50_us", "wb_p99_us", "wb_p999_us",
		"disk_writes",
	}}
	for i := range r.Rows {
		row := &r.Rows[i]
		rows = append(rows, []string{
			fmt.Sprint(row.Clients), fmt.Sprint(row.Shards), row.Org,
			fmt.Sprint(row.Events),
			fmt.Sprint(row.MsgMax), fmt.Sprintf("%.1f", row.MsgMean), fmt.Sprintf("%.4f", row.MsgImb),
			fmt.Sprint(row.BlkMax), fmt.Sprintf("%.1f", row.BlkMean), fmt.Sprintf("%.4f", row.BlkImb),
			fmt.Sprint(row.Recalls), fmt.Sprint(row.Invalidations),
			fmt.Sprint(row.Storm.N), fmt.Sprint(row.Storm.Quantile(0.5)),
			fmt.Sprint(row.Storm.Quantile(0.99)), fmt.Sprint(row.Storm.Quantile(0.999)),
			fmt.Sprint(row.WB.N), fmt.Sprint(row.WB.Quantile(0.5)),
			fmt.Sprint(row.WB.Quantile(0.99)), fmt.Sprint(row.WB.Quantile(0.999)),
			fmt.Sprint(row.DiskWrites),
		})
	}
	return rows
}
