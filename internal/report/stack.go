package report

import (
	"context"
	"fmt"
	"io"
	"text/tabwriter"

	"nvramfs/internal/cache"
	"nvramfs/internal/disk"
	"nvramfs/internal/engine"
	"nvramfs/internal/interval"
	"nvramfs/internal/server"
	"nvramfs/internal/sim"
)

// StackRow is one end-to-end configuration's outcome.
type StackRow struct {
	Label string
	// Client side.
	NetWriteFrac float64
	NetTotalFrac float64
	// Server side.
	ServerDiskWrites int64
	ServerDiskReads  int64
	PartialSegments  int64
	FsyncsForced     int64
	FsyncsAbsorbed   int64
}

// StackResult is the end-to-end study: client caches feeding a file
// server (cache + LFS + disk) through the traffic hooks, so NVRAM's
// effect is visible at every level of the storage hierarchy at once.
type StackResult struct {
	Rows []StackRow
}

// stackConfigs are the three NVRAM placements the study compares.
var stackConfigs = []struct {
	label    string
	model    cache.ModelKind
	clientNV float64 // MB per client
	serverNV int     // blocks
}{
	{"volatile clients, plain server", cache.ModelVolatile, 0, 0},
	{"client NVRAM (1 MB), plain server", cache.ModelUnified, 1, 0},
	{"client NVRAM (1 MB) + server NVRAM (1 MB)", cache.ModelUnified, 1, 256},
}

// StackStudyContext replays the model trace through three configurations:
// all-volatile, client NVRAM only, and client NVRAM plus a server NVRAM
// region. Client write-backs, misses, fsyncs, and deletions flow into the
// server via the cache hooks; the server stages them into the LFS, whose
// disk access counts close the loop. The three configurations run
// concurrently; each job owns its entire client-to-disk pipeline.
func StackStudyContext(ctx context.Context, ws *Workspace) (*StackResult, error) {
	rows, err := engine.Map(ctx, ws.Engine(), len(stackConfigs), func(ctx context.Context, i int) (StackRow, error) {
		c := stackConfigs[i]
		src, err := ws.OpsSourceContext(ctx, ModelTrace)
		if err != nil {
			return StackRow{}, err
		}
		srv := server.New(server.Config{
			CacheBlocks: (16 << 20) / 4096,
			NVRAMBlocks: c.serverNV,
		}, disk.New(disk.DefaultParams()))
		hooks := &cache.ServerHooks{
			Write: func(now int64, file uint64, r interval.Range, cause cache.Cause, stable bool) {
				srv.Write(now, file, r.Start, r.Len())
				if cause == cache.CauseFsync {
					srv.Fsync(now, file)
				}
			},
			Read: func(now int64, file uint64, r interval.Range) {
				srv.Read(now, file, r.Start, r.Len())
			},
			Delete: func(now int64, file uint64, r interval.Range) {
				if r.Start == 0 {
					srv.Delete(now, file)
				}
			},
		}
		cfg := sim.Config{Model: c.model, Seed: 7}
		cfg.Cache = cache.Config{
			VolatileBlocks: sim.BlocksForBytes(8*sim.MB, cache.DefaultBlockSize),
			NVRAMBlocks:    sim.BlocksForBytes(int64(c.clientNV*float64(sim.MB)), cache.DefaultBlockSize),
			Policy:         cache.LRU,
			Hooks:          hooks,
		}
		r, err := ws.simCell(ctx, ModelTrace, src, cfg)
		if err != nil {
			return StackRow{}, err
		}
		srv.Shutdown(r.EndTime)
		return StackRow{
			Label:            c.label,
			NetWriteFrac:     r.Traffic.NetWriteFrac(),
			NetTotalFrac:     r.Traffic.NetTotalFrac(),
			ServerDiskWrites: srv.Disk().Writes,
			ServerDiskReads:  srv.Disk().Reads,
			PartialSegments:  srv.FS().Stats().PartialSegments(),
			FsyncsForced:     srv.Stats().FsyncsForced,
			FsyncsAbsorbed:   srv.Stats().FsyncsAbsorbed,
		}, nil
	})
	if err != nil {
		return nil, err
	}
	return &StackResult{Rows: rows}, nil
}

// Render writes the end-to-end comparison.
func (r *StackResult) Render(w io.Writer) error {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "End-to-end stack (trace 7): client caches -> server cache -> LFS -> disk")
	fmt.Fprintln(tw, "configuration\tnet write %\tnet total %\tdisk writes\tdisk reads\tpartial segs\tfsyncs forced/absorbed")
	for _, row := range r.Rows {
		fmt.Fprintf(tw, "%s\t%5.1f\t%5.1f\t%d\t%d\t%d\t%d/%d\n",
			row.Label, row.NetWriteFrac*100, row.NetTotalFrac*100,
			row.ServerDiskWrites, row.ServerDiskReads, row.PartialSegments,
			row.FsyncsForced, row.FsyncsAbsorbed)
	}
	return tw.Flush()
}
