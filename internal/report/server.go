package report

import (
	"context"
	"fmt"
	"io"
	"text/tabwriter"
	"time"

	"nvramfs/internal/disk"
	"nvramfs/internal/engine"
	"nvramfs/internal/lfs"
	"nvramfs/internal/nvram"
	"nvramfs/internal/serverload"
)

// ServerRow is one file system's measurements for Tables 3 and 4 and the
// write-buffer study.
type ServerRow struct {
	Name string
	// Table 3 columns.
	PartialFrac      float64 // % of segment writes that are partial
	FsyncPartialFrac float64 // % of segment writes that are fsync-forced partials
	ShareOfSegments  float64 // % of all segment writes across file systems
	// Table 4 columns.
	KBPerPartial      float64 // average KB of file data per partial segment
	KBPerFsyncPartial float64
	FsyncTrafficFrac  float64 // fraction of file data written in fsync partials
	// Overheads and buffer effect.
	SpaceOverheadFrac float64 // metadata+summary share of written space
	Segments          int64   // full + partial segment writes (cleaner excluded)
	DiskWrites        int64   // without buffer
	DiskWritesBuffer  int64   // with the half-megabyte buffer
}

// Reduction is the disk-write access reduction the buffer achieved.
func (r ServerRow) Reduction() float64 {
	if r.DiskWrites == 0 {
		return 0
	}
	return 1 - float64(r.DiskWritesBuffer)/float64(r.DiskWrites)
}

// ServerStudyResult holds the full LFS measurement set.
type ServerStudyResult struct {
	Duration time.Duration
	Rows     []ServerRow
	// BufferBytes is the write-buffer size used in the with-buffer runs.
	BufferBytes int64
}

// ServerStudyContext replays every standard file-system workload twice —
// without and with a one-half megabyte NVRAM write buffer — and collects
// the measurements behind Tables 3 and 4 and the Section 3 buffer claims.
// The (file system, buffer) grid's sixteen independent LFS replays run on
// eng, and rows assemble in profile order.
func ServerStudyContext(ctx context.Context, eng *engine.Engine, duration time.Duration) (*ServerStudyResult, error) {
	if duration <= 0 {
		duration = serverload.DefaultDuration
	}
	const bufferBytes = 512 << 10
	profiles := serverload.StandardProfiles()
	type cell struct {
		stats  lfs.Stats
		writes int64
	}
	// Grid cell k: profile k/2, buffered when k%2 == 1. Each cell owns
	// its disk and file system; profiles are replayed read-only.
	cells, err := engine.Map(ctx, eng, 2*len(profiles), func(ctx context.Context, k int) (cell, error) {
		p := profiles[k/2]
		var buf int64
		if k%2 == 1 {
			buf = bufferBytes
		}
		d := disk.New(disk.DefaultParams())
		fs := lfs.New(lfs.Config{Name: p.Name, BufferBytes: buf}, d)
		serverload.Run(p, fs, duration)
		return cell{stats: *fs.Stats(), writes: d.Writes}, nil
	})
	if err != nil {
		return nil, err
	}
	res := &ServerStudyResult{Duration: duration, BufferBytes: bufferBytes}
	var totalSegs int64
	for i, p := range profiles {
		st := cells[2*i].stats
		row := ServerRow{
			Name:              p.Name,
			PartialFrac:       st.PartialFrac(),
			FsyncPartialFrac:  st.FsyncPartialFrac(),
			KBPerPartial:      st.KBPerPartial(),
			SpaceOverheadFrac: st.SpaceOverheadFrac(),
			Segments:          st.FullSegments + st.PartialSegments(),
			DiskWrites:        cells[2*i].writes,
			DiskWritesBuffer:  cells[2*i+1].writes,
		}
		if st.PartialFsyncSegments > 0 {
			row.KBPerFsyncPartial = float64(st.FsyncPartialBytes) / 1024 / float64(st.PartialFsyncSegments)
		}
		if st.FileDataBytes > 0 {
			row.FsyncTrafficFrac = float64(st.FsyncPartialBytes) / float64(st.FileDataBytes)
		}
		totalSegs += st.FullSegments + st.PartialSegments()
		res.Rows = append(res.Rows, row)
	}
	if totalSegs > 0 {
		for i := range res.Rows {
			res.Rows[i].ShareOfSegments = float64(res.Rows[i].Segments) / float64(totalSegs)
		}
	}
	return res, nil
}

// RenderTable3 writes the Table 3 columns.
func (r *ServerStudyResult) RenderTable3(w io.Writer) error {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "Table 3: forced partial segments per LFS file system (%v run)\n", r.Duration)
	fmt.Fprintln(tw, "file system\tpartial %\tfsync-partial %\tshare of segs %")
	for _, row := range r.Rows {
		fmt.Fprintf(tw, "%s\t%5.1f\t%5.2f\t%5.1f\n",
			row.Name, row.PartialFrac*100, row.FsyncPartialFrac*100, row.ShareOfSegments*100)
	}
	return tw.Flush()
}

// RenderTable4 writes the Table 4 columns.
func (r *ServerStudyResult) RenderTable4(w io.Writer) error {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "Table 4: partial-segment sizes and fsync traffic")
	fmt.Fprintln(tw, "file system\tKB/partial\tKB/fsync-partial\tfsync share of write traffic %\tspace overhead %")
	for _, row := range r.Rows {
		fmt.Fprintf(tw, "%s\t%6.1f\t%6.1f\t%5.1f\t%5.1f\n",
			row.Name, row.KBPerPartial, row.KBPerFsyncPartial,
			row.FsyncTrafficFrac*100, row.SpaceOverheadFrac*100)
	}
	return tw.Flush()
}

// RenderBuffer writes the write-buffer study.
func (r *ServerStudyResult) RenderBuffer(w io.Writer) error {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "Section 3: disk write accesses without/with a %d KB NVRAM write buffer\n", r.BufferBytes>>10)
	fmt.Fprintln(tw, "file system\twrites\twrites+buffer\treduction %")
	for _, row := range r.Rows {
		fmt.Fprintf(tw, "%s\t%d\t%d\t%5.1f\n",
			row.Name, row.DiskWrites, row.DiskWritesBuffer, row.Reduction()*100)
	}
	return tw.Flush()
}

// SortedBufferResult reproduces the [20] citation: disk bandwidth
// utilization for random 4 KB writes vs increasing NVRAM buffer depths.
type SortedBufferResult struct {
	Depths      []int
	Utilization []float64
	BufferBytes []int64
}

// SortedBuffer computes the buffered-and-sorted write analysis.
func SortedBuffer() *SortedBufferResult {
	p := disk.Params{
		AvgSeek:      14 * time.Millisecond,
		AvgRotation:  8300 * time.Microsecond,
		TransferRate: 2_000_000,
	}
	res := &SortedBufferResult{}
	for _, n := range []int{1, 10, 100, 1000, 10000} {
		res.Depths = append(res.Depths, n)
		res.Utilization = append(res.Utilization, nvram.SortedBufferUtilization(p, n, 4<<10))
		res.BufferBytes = append(res.BufferBytes, nvram.BufferForWrites(n, 4<<10))
	}
	return res
}

// Render writes the utilization series.
func (r *SortedBufferResult) Render(w io.Writer) error {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "Buffered+sorted 4 KB writes ([20]): disk bandwidth utilization vs buffer depth")
	fmt.Fprintln(tw, "buffered I/Os\tNVRAM needed\tutilization %")
	for i, n := range r.Depths {
		fmt.Fprintf(tw, "%d\t%.1f MB\t%5.1f\n",
			n, float64(r.BufferBytes[i])/(1<<20), r.Utilization[i]*100)
	}
	return tw.Flush()
}
