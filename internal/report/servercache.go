package report

import (
	"context"
	"fmt"
	"io"
	"text/tabwriter"
	"time"

	"nvramfs/internal/disk"
	"nvramfs/internal/engine"
	"nvramfs/internal/server"
	"nvramfs/internal/serverload"
)

// ServerCacheResult measures the Section 3 opening remark: a server NVRAM
// *cache* (as opposed to the write buffer in front of the disk) absorbs
// write traffic before it ever reaches the log-structured file system —
// dirty blocks parked in the battery-backed region are exempt from the
// 30-second write-back and can die in the cache or leave it in full
// segments.
type ServerCacheResult struct {
	Duration     time.Duration
	NVRAMSizesMB []float64
	Names        []string
	// DiskWrites[i][j] is file system i's disk write accesses with NVRAM
	// size j.
	DiskWrites [][]int64
}

// DefaultServerCacheSizesMB is the server NVRAM region sweep.
var DefaultServerCacheSizesMB = []float64{0, 0.5, 1, 2}

// ServerCacheStudyContext sweeps the server NVRAM cache size over the
// standard file-system workloads. The volatile server cache is fixed at
// 16 MB per file system (Sprite's 128 MB shared across its volumes). The
// (file system, NVRAM size) grid runs on eng, one server + LFS replay per
// cell, assembled in profile order.
func ServerCacheStudyContext(ctx context.Context, eng *engine.Engine, duration time.Duration) (*ServerCacheResult, error) {
	if duration <= 0 {
		duration = serverload.DefaultDuration
	}
	sizes := DefaultServerCacheSizesMB
	profiles := serverload.StandardProfiles()
	cells, err := engine.Map(ctx, eng, len(profiles)*len(sizes), func(ctx context.Context, k int) (int64, error) {
		p := profiles[k/len(sizes)]
		mb := sizes[k%len(sizes)]
		d := disk.New(disk.DefaultParams())
		s := server.New(server.Config{
			CacheBlocks: (16 << 20) / 4096,
			NVRAMBlocks: int(mb * float64(1<<20) / 4096),
		}, d)
		serverload.RunAgainst(p, serverload.Target{
			Write:    s.Write,
			Fsync:    s.Fsync,
			Delete:   s.Delete,
			Shutdown: s.Shutdown,
		}, duration)
		return d.Writes, nil
	})
	if err != nil {
		return nil, err
	}
	res := &ServerCacheResult{Duration: duration, NVRAMSizesMB: sizes}
	for i, p := range profiles {
		res.Names = append(res.Names, p.Name)
		res.DiskWrites = append(res.DiskWrites, cells[i*len(sizes):(i+1)*len(sizes)])
	}
	return res, nil
}

// Render writes the sweep with per-size reduction percentages.
func (r *ServerCacheResult) Render(w io.Writer) error {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "Server NVRAM cache study (%v run): disk write accesses by NVRAM region size\n", r.Duration)
	fmt.Fprint(tw, "file system")
	for _, mb := range r.NVRAMSizesMB {
		fmt.Fprintf(tw, "\t%.1f MB", mb)
	}
	fmt.Fprintln(tw, "\treduction at max")
	for i, name := range r.Names {
		fmt.Fprintf(tw, "%s", name)
		for _, v := range r.DiskWrites[i] {
			fmt.Fprintf(tw, "\t%d", v)
		}
		base := r.DiskWrites[i][0]
		last := r.DiskWrites[i][len(r.DiskWrites[i])-1]
		var red float64
		if base > 0 {
			red = 1 - float64(last)/float64(base)
		}
		fmt.Fprintf(tw, "\t%5.1f%%\n", red*100)
	}
	return tw.Flush()
}
