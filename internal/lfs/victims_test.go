package lfs

import (
	"cmp"
	"slices"
	"testing"

	"nvramfs/internal/disk"
)

// FuzzVictimsMatchSort decodes its input into a log's cleaner state — a
// policy, a segment capacity of one to eight blocks (so live counts tie
// often, and a segment can be wholly live), up to 40 segments each free
// or holding some live blocks and last written some time ago, and a
// victim count k that may exceed the segments in use — and requires the
// victims to be the first k segments in use of a full sort by the
// policy's order: (live, seg) for greedy, (score descending, seg) for
// cost-benefit. Picking twice must give the same victims and leave no
// segment marked.
func FuzzVictimsMatchSort(f *testing.F) {
	f.Add([]byte{0, 3, 5, 100, 1, 10, 2, 20, 1, 30, 0x80, 0, 2, 5, 3, 7, 1, 1})
	f.Add([]byte{1, 3, 4, 100, 1, 10, 2, 20, 1, 30, 0x80, 0, 2, 5, 3, 7, 1, 1})
	f.Add([]byte{0, 7, 9, 0, 0x80, 0, 0x81, 0, 0x82, 0})
	f.Add([]byte{2, 0, 2, 50, 8, 1, 8, 1, 7, 2, 8, 0, 0, 9})
	f.Fuzz(func(t *testing.T, in []byte) {
		if len(in) < 4 {
			return
		}
		policy := CleanPolicy(in[0] % 2)
		per := 1 + int(in[0]/2%8)
		cfg := Config{
			BlockSize:     4 * kb,
			MetaBlockSize: 4 * kb,
			SummarySize:   512,
			SegmentSize:   4*kb + 512 + int64(per)*4*kb,
			Cleaner:       policy,
		}
		segs := (len(in) - 4) / 2
		if segs == 0 || segs > 40 {
			return
		}
		cfg.DiskSegments = segs
		fs := New(cfg, disk.New(disk.DefaultParams()))
		if got := fs.cfg.BlocksPerSegment(); got != per {
			t.Fatalf("segment of %d bytes holds %d blocks, want %d", cfg.SegmentSize, got, per)
		}
		k := int(in[1]) % (segs + 4)
		fs.now = 1000 + int64(in[2])*int64(in[3])
		fs.free = fs.free[:0]
		for seg := range segs {
			b, ago := in[4+2*seg], in[5+2*seg]
			fs.segWritten[seg] = fs.now - int64(ago)
			if b&0x80 != 0 {
				fs.segLive[seg] = 0
				fs.free = append(fs.free, int32(seg))
				continue
			}
			fs.segLive[seg] = int32(int(b) % (per + 1))
		}

		type cand struct {
			seg   int32
			live  int32
			score float64
		}
		var all []cand
		for seg, live := range fs.segLive {
			if slices.Contains(fs.free, int32(seg)) {
				continue
			}
			u := float64(live) / float64(per)
			age := float64(fs.now - fs.segWritten[seg])
			all = append(all, cand{seg: int32(seg), live: live, score: (1 - u) * age / (1 + u)})
		}
		slices.SortFunc(all, func(a, b cand) int {
			if policy == CleanCostBenefit {
				if c := cmp.Compare(b.score, a.score); c != 0 {
					return c
				}
			} else if c := cmp.Compare(a.live, b.live); c != 0 {
				return c
			}
			return cmp.Compare(a.seg, b.seg)
		})
		want := []int32{}
		for _, c := range all[:min(k, len(all))] {
			want = append(want, c.seg)
		}
		for try := range 2 {
			got := slices.Clone(fs.pickVictims(k))
			if got == nil {
				got = []int32{}
			}
			if !slices.Equal(got, want) {
				t.Fatalf("%v, %d blocks a segment, k=%d, live %v, free %v: pick %d chose %v; full sort gives %v",
					policy, per, k, fs.segLive, fs.free, try, got, want)
			}
			if i := slices.Index(fs.segMark, true); i >= 0 {
				t.Fatalf("pick %d left segment %d marked", try, i)
			}
		}
	})
}
