package report

import (
	"context"
	"fmt"
	"io"
	"text/tabwriter"
	"time"

	"nvramfs/internal/disk"
	"nvramfs/internal/interval"
	"nvramfs/internal/netmodel"
	"nvramfs/internal/prep"
)

// LatencyResult quantifies application-visible fsync latency under three
// organizations: everything volatile (the fsync must reach the server's
// disk), a server NVRAM (Prestoserve-style acknowledgement from
// battery-backed memory), and a client NVRAM (the paper's Section 2
// models, where fsync'd data is already permanent locally).
type LatencyResult struct {
	Fsyncs     int64
	MeanBytes  float64
	Mean       [3]time.Duration // indexed by netmodel.FsyncPath
	Worst      [3]time.Duration
	TotalBytes int64
}

// FsyncLatencyStudyContext replays the model trace, measuring each
// fsync's dirty payload (the file's bytes written since its last flush)
// and pricing it under the three paths. The study is a single sequential
// trace pass, so only the shared trace build fans out.
func FsyncLatencyStudyContext(ctx context.Context, ws *Workspace) (*LatencyResult, error) {
	src, err := ws.OpsSourceContext(ctx, ModelTrace)
	if err != nil {
		return nil, err
	}
	np := netmodel.DefaultParams()
	dp := disk.DefaultParams()
	res := &LatencyResult{}

	// Track per-file dirty bytes as the volatile model would see them
	// (bytes written since the last fsync or 30-second flush).
	dirty := make(map[uint64]*interval.Set)
	firstDirty := make(map[uint64]int64)
	const flushAge = 30 * 1e6
	flushOld := func(now int64) {
		for f, at := range firstDirty {
			if at+flushAge <= now {
				dirty[f].Clear()
				delete(firstDirty, f)
				delete(dirty, f)
			}
		}
	}
	for {
		op, ok, err := src.Next()
		if err != nil {
			return nil, err
		}
		if !ok {
			break
		}
		switch op.Kind {
		case prep.Write:
			flushOld(op.Time)
			s := dirty[op.File]
			if s == nil {
				s = &interval.Set{}
				dirty[op.File] = s
			}
			if _, ok := firstDirty[op.File]; !ok {
				firstDirty[op.File] = op.Time
			}
			s.Add(op.Range)
		case prep.DeleteRange:
			if s := dirty[op.File]; s != nil {
				s.Remove(op.Range)
				if s.Len() == 0 {
					delete(dirty, op.File)
					delete(firstDirty, op.File)
				}
			}
		case prep.Fsync:
			flushOld(op.Time)
			var n int64
			if s := dirty[op.File]; s != nil {
				n = s.Len()
				delete(dirty, op.File)
				delete(firstDirty, op.File)
			}
			res.Fsyncs++
			res.TotalBytes += n
			for _, path := range []netmodel.FsyncPath{
				netmodel.PathServerDisk, netmodel.PathServerNVRAM, netmodel.PathClientNVRAM,
			} {
				l := netmodel.FsyncLatency(np, dp, path, n)
				res.Mean[path] += l
				if l > res.Worst[path] {
					res.Worst[path] = l
				}
			}
		}
	}
	if res.Fsyncs > 0 {
		for i := range res.Mean {
			res.Mean[i] /= time.Duration(res.Fsyncs)
		}
		res.MeanBytes = float64(res.TotalBytes) / float64(res.Fsyncs)
	}
	return res, nil
}

// Render writes the latency comparison.
func (r *LatencyResult) Render(w io.Writer) error {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "Fsync latency (extension; %d fsyncs on trace 7, mean payload %.1f KB)\n",
		r.Fsyncs, r.MeanBytes/1024)
	fmt.Fprintln(tw, "path\tmean\tworst")
	for _, path := range []netmodel.FsyncPath{
		netmodel.PathServerDisk, netmodel.PathServerNVRAM, netmodel.PathClientNVRAM,
	} {
		fmt.Fprintf(tw, "%v\t%v\t%v\n", path,
			r.Mean[path].Round(time.Microsecond), r.Worst[path].Round(time.Microsecond))
	}
	return tw.Flush()
}
