package lfs

import (
	"testing"

	"nvramfs/internal/disk"
)

const (
	sec = int64(1e6)
	kb  = int64(1 << 10)
)

func newFS(t *testing.T, cfg Config) *FS {
	t.Helper()
	return New(cfg, disk.New(disk.DefaultParams()))
}

func TestBlocksPerSegment(t *testing.T) {
	cfg := Config{}
	cfg.fillDefaults()
	// (512K - 4K metadata - 512 summary) / 4K = 126 blocks.
	if got := cfg.BlocksPerSegment(); got != 126 {
		t.Fatalf("BlocksPerSegment = %d", got)
	}
}

func TestFullSegmentOnAccumulation(t *testing.T) {
	fs := newFS(t, Config{})
	per := int64(fs.Config().BlocksPerSegment())
	// Write exactly one segment's worth of blocks quickly.
	fs.Write(0, 1, 0, per*4*kb)
	st := fs.Stats()
	if st.FullSegments != 1 || st.PartialSegments() != 0 {
		t.Fatalf("stats: %+v", st)
	}
	if fs.Disk().Writes != 1 {
		t.Fatalf("disk writes = %d, want one access per segment", fs.Disk().Writes)
	}
	if fs.PendingBlocks() != 0 {
		t.Fatalf("pending = %d", fs.PendingBlocks())
	}
}

func TestFsyncForcesPartialSegment(t *testing.T) {
	fs := newFS(t, Config{})
	fs.Write(0, 1, 0, 8*kb) // two blocks
	fs.Fsync(sec, 1)
	st := fs.Stats()
	if st.PartialFsyncSegments != 1 {
		t.Fatalf("stats: %+v", st)
	}
	if st.FsyncPartialBytes != 8*kb {
		t.Fatalf("fsync partial bytes = %d", st.FsyncPartialBytes)
	}
	// Metadata and summary ride along on every segment.
	if st.MetaBytes != 4*kb || st.SummaryBytes != 512 {
		t.Fatalf("overhead: meta=%d summary=%d", st.MetaBytes, st.SummaryBytes)
	}
	// A second fsync with no new dirty data writes nothing.
	fs.Fsync(2*sec, 1)
	if fs.Stats().PartialFsyncSegments != 1 {
		t.Fatal("empty fsync wrote a segment")
	}
	if fs.Stats().Fsyncs != 2 {
		t.Fatalf("fsync count = %d", fs.Stats().Fsyncs)
	}
}

func TestAgeFlushProducesPartial(t *testing.T) {
	fs := newFS(t, Config{})
	fs.Write(0, 1, 0, 12*kb)
	fs.Advance(29 * sec)
	if fs.Stats().SegmentsWritten != 0 {
		t.Fatal("flushed before 30s")
	}
	fs.Advance(36 * sec) // 30s age + 5s check grid
	st := fs.Stats()
	if st.PartialAgeSegments != 1 {
		t.Fatalf("stats: %+v", st)
	}
	if fs.PendingBlocks() != 0 {
		t.Fatal("blocks still pending after age flush")
	}
}

func TestOverwriteAbsorbedBeforeDisk(t *testing.T) {
	fs := newFS(t, Config{})
	fs.Write(0, 1, 0, 4*kb)
	fs.Write(5*sec, 1, 0, 4*kb) // same block, still pending
	st := fs.Stats()
	if st.BlocksAbsorbed != 1 {
		t.Fatalf("absorbed = %d", st.BlocksAbsorbed)
	}
	fs.Advance(40 * sec)
	if st.PartialAgeSegments != 1 || st.PartialDataBytes != 4*kb {
		t.Fatalf("stats: %+v", st)
	}
}

// TestAgeFlushWritesRedirtiedBlockOnce re-dirties a block at the same
// instant it was written out, which leaves two age-queue entries with the
// same (time, block). The age flush must write the block once.
func TestAgeFlushWritesRedirtiedBlockOnce(t *testing.T) {
	for _, tc := range []struct {
		name     string
		writeOut func(fs *FS, per int64)
	}{
		{"full segment", func(fs *FS, per int64) { fs.Write(0, 1, 0, per*4*kb) }},
		{"fsync", func(fs *FS, per int64) { fs.Write(0, 1, 0, 4*kb); fs.Fsync(0, 1) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			fs := newFS(t, Config{})
			per := int64(fs.Config().BlocksPerSegment())
			tc.writeOut(fs, per)
			written := fs.Stats().FileDataBytes
			fs.Write(0, 1, 0, 4*kb) // block 0 again, same instant
			fs.Advance(60 * sec)
			if got := fs.Stats().FileDataBytes - written; got != 4*kb {
				t.Fatalf("age flush wrote %d bytes for one re-dirtied block", got)
			}
		})
	}
}

// TestDrainWritesEachBlockOnce deletes and rewrites pending blocks at one
// instant, which leaves two age-queue entries with equal (time, block) that
// both read as live, and then fills a segment at that instant. The drain
// must take each block once: with a duplicate in the segment, blocks of the
// filler would be left over for the shutdown flush.
func TestDrainWritesEachBlockOnce(t *testing.T) {
	fs := newFS(t, Config{})
	per := int64(fs.Config().BlocksPerSegment())
	const rewritten = 8
	fs.Write(0, 1, 0, rewritten*4*kb)
	fs.Delete(0, 1)
	fs.Write(0, 1, 0, rewritten*4*kb)
	fs.Write(0, 2, 0, (per-rewritten)*4*kb) // the distinct blocks fill one segment
	if got := fs.Stats().FullSegments; got != 1 {
		t.Fatalf("full segments = %d, want 1", got)
	}
	fs.Shutdown(sec)
	if got, want := fs.Stats().FileDataBytes, per*4*kb; got != want {
		t.Fatalf("wrote %d bytes of file data for %d distinct blocks (%d bytes)", got, per, want)
	}
}

func TestDeletePendingBlocksAbsorbed(t *testing.T) {
	fs := newFS(t, Config{})
	fs.Write(0, 1, 0, 8*kb)
	fs.Delete(sec, 1)
	st := fs.Stats()
	if st.BlocksAbsorbed != 2 {
		t.Fatalf("absorbed = %d", st.BlocksAbsorbed)
	}
	fs.Advance(60 * sec)
	if st.SegmentsWritten != 0 {
		t.Fatal("deleted data was written to disk")
	}
}

func TestWriteBufferAbsorbsFsyncs(t *testing.T) {
	fs := newFS(t, Config{BufferBytes: 512 * kb})
	for i := int64(0); i < 10; i++ {
		fs.Write(i*10*sec, 1, i*4*kb, 4*kb)
		fs.Fsync(i*10*sec+1, 1)
	}
	st := fs.Stats()
	if st.PartialFsyncSegments != 0 {
		t.Fatalf("buffered fsyncs still forced partials: %+v", st)
	}
	if st.BufferedBlocks != 10 {
		t.Fatalf("buffered = %d", st.BufferedBlocks)
	}
	// Buffered (fsync'd) data is exempt from the age flush.
	fs.Advance(10 * 10 * sec)
	if st.SegmentsWritten != 0 {
		t.Fatalf("buffered data flushed by age: %+v", st)
	}
	// Once a full segment accumulates, it goes to disk as a full segment.
	per := int64(fs.Config().BlocksPerSegment())
	fs.Write(200*10*sec, 2, 0, per*4*kb)
	if st.FullSegments == 0 {
		t.Fatalf("no full segment after accumulation: %+v", st)
	}
}

func TestWriteBufferStillAgeFlushesUnfsyncedData(t *testing.T) {
	// The buffer parks only fsync'd data; plain dirty data still obeys the
	// 30-second write-back (it lives in volatile server cache).
	fs := newFS(t, Config{BufferBytes: 512 * kb})
	fs.Write(0, 1, 0, 8*kb)
	fs.Advance(40 * sec)
	if fs.Stats().PartialAgeSegments != 1 {
		t.Fatalf("stats: %+v", fs.Stats())
	}
}

func TestShutdownFlushesEverything(t *testing.T) {
	fs := newFS(t, Config{BufferBytes: 512 * kb})
	fs.Write(0, 1, 0, 8*kb)
	fs.Fsync(1, 1)          // into the buffer
	fs.Write(2, 2, 0, 4*kb) // plain dirty
	fs.Shutdown(10 * sec)
	if fs.PendingBlocks() != 0 {
		t.Fatalf("pending after shutdown = %d", fs.PendingBlocks())
	}
	if fs.Stats().PartialOtherSegments == 0 {
		t.Fatal("shutdown flush not recorded")
	}
}

func TestCleanerReclaimsSpace(t *testing.T) {
	// A tiny disk with heavy overwrite traffic forces cleaning.
	fs := newFS(t, Config{DiskSegments: 64, CleanLowWater: 8, CleanHighWater: 16})
	per := int64(fs.Config().BlocksPerSegment())
	var now int64
	// Repeatedly rewrite the same 20-segment working set: old versions die,
	// so the cleaner finds nearly-empty segments.
	for round := 0; round < 8; round++ {
		for seg := int64(0); seg < 20; seg++ {
			fs.Write(now, 1, seg*per*4*kb, per*4*kb)
			now += sec
		}
	}
	st := fs.Stats()
	if st.CleanerRuns == 0 || st.SegmentsCleaned == 0 {
		t.Fatalf("cleaner never ran: %+v", st)
	}
	if fs.FreeSegments() <= 0 {
		t.Fatal("no free segments after cleaning")
	}
	// Live blocks never exceed one working set.
	if got := fs.LiveBlocks(); int64(got) > 20*per {
		t.Fatalf("live blocks = %d", got)
	}
}

func TestCleanerCopiesLiveData(t *testing.T) {
	fs := newFS(t, Config{DiskSegments: 64, CleanLowWater: 6, CleanHighWater: 12})
	per := int64(fs.Config().BlocksPerSegment())
	half := per / 2 * 4 * kb
	var now int64
	// Interleave half-segments of a long-lived file (1) and a short-lived
	// file (2) so each on-disk segment is half file 1, half file 2. When
	// file 2 dies the segments are half-live and the cleaner must copy
	// file 1's blocks to reclaim them.
	shortFile := uint64(1000)
	for i := int64(0); i < 60; i++ {
		fs.Write(now, 1, i*half, half)
		now += sec
		fs.Write(now, shortFile, (i%5)*half, half)
		now += sec
		if i%5 == 4 {
			fs.Delete(now, shortFile)
			shortFile++
			now += sec
		}
	}
	st := fs.Stats()
	if st.CleanerRuns == 0 {
		t.Fatalf("cleaner never ran: %+v", st)
	}
	if st.CleanerBlocksCopied == 0 {
		t.Fatalf("cleaner copied nothing: %+v", st)
	}
	// Conservation: every live block is in exactly one segment.
	var live int32
	for _, n := range fs.segLive {
		live += n
	}
	if int(live) != fs.LiveBlocks() {
		t.Fatalf("segment live counts %d != live blocks %d", live, fs.LiveBlocks())
	}
}

func TestStatsFractions(t *testing.T) {
	var st Stats
	if st.PartialFrac() != 0 || st.KBPerPartial() != 0 {
		t.Fatal("zero stats not handled")
	}
	st.FullSegments = 10
	st.PartialFsyncSegments = 80
	st.PartialAgeSegments = 10
	st.PartialDataBytes = 90 * 8 * 1024
	if got := st.PartialFrac(); got != 0.9 {
		t.Fatalf("PartialFrac = %f", got)
	}
	if got := st.FsyncPartialFrac(); got != 0.8 {
		t.Fatalf("FsyncPartialFrac = %f", got)
	}
	if got := st.KBPerPartial(); got != 8 {
		t.Fatalf("KBPerPartial = %f", got)
	}
}

func TestSegCauseString(t *testing.T) {
	for c, want := range map[SegCause]string{
		SegFull: "full", SegFsync: "fsync", SegAge: "age",
		SegCleaner: "cleaner", SegShutdown: "shutdown",
	} {
		if c.String() != want {
			t.Fatalf("%d.String() = %q", c, c.String())
		}
	}
}

func TestCostBenefitCleaner(t *testing.T) {
	// A hot/cold workload: the cold file is written once and fragmented a
	// little; the hot region is rewritten constantly. Cost-benefit should
	// clean successfully (and prefer cold, aged segments); functionally we
	// require it to reclaim space and preserve accounting invariants.
	run := func(policy CleanPolicy) *Stats {
		fs := newFS(t, Config{
			DiskSegments: 64, CleanLowWater: 8, CleanHighWater: 16,
			Cleaner: policy,
		})
		per := int64(fs.Config().BlocksPerSegment())
		var now int64
		// Cold data: 10 segments written once.
		fs.Write(now, 1, 0, 10*per*4*kb)
		now += sec
		// Hot data: rewrite the same 10 segments repeatedly.
		for round := 0; round < 10; round++ {
			fs.Write(now, 2, 0, 10*per*4*kb)
			now += sec
		}
		st := fs.Stats()
		if st.CleanerRuns == 0 {
			t.Fatalf("%v: cleaner never ran", policy)
		}
		var live int32
		for _, n := range fs.segLive {
			live += n
		}
		if int(live) != fs.LiveBlocks() {
			t.Fatalf("%v: live accounting broken", policy)
		}
		return st
	}
	greedy := run(CleanGreedy)
	cb := run(CleanCostBenefit)
	if greedy.SegmentsCleaned == 0 || cb.SegmentsCleaned == 0 {
		t.Fatal("no cleaning measured")
	}
}

func TestCleanPolicyString(t *testing.T) {
	if CleanGreedy.String() != "greedy" || CleanCostBenefit.String() != "cost-benefit" {
		t.Fatal("policy names wrong")
	}
}

func TestFsyncTargetsFile(t *testing.T) {
	fs := newFS(t, Config{})
	fs.Write(0, 1, 0, 8*kb)
	// An fsync of a file with nothing pending must not force a segment,
	// even while another file is dirty.
	fs.Fsync(sec, 2)
	st := fs.Stats()
	if st.SegmentsWritten != 0 {
		t.Fatalf("fsync of clean file wrote a segment: %+v", st)
	}
	if fs.PendingBlocks() != 2 {
		t.Fatalf("pending = %d", fs.PendingBlocks())
	}
	// An fsync of the dirty file keeps whole-pending-segment semantics:
	// every pending block (including other files') rides along.
	fs.Write(2*sec, 2, 0, 4*kb)
	fs.Fsync(3*sec, 1)
	st = fs.Stats()
	if st.PartialFsyncSegments != 1 {
		t.Fatalf("stats: %+v", st)
	}
	if st.FsyncPartialBytes != 12*kb {
		t.Fatalf("fsync partial bytes = %d, want the whole pending batch", st.FsyncPartialBytes)
	}
	if fs.PendingBlocks() != 0 {
		t.Fatalf("pending = %d after fsync", fs.PendingBlocks())
	}
}

func TestFsyncTargetsFileBuffered(t *testing.T) {
	fs := newFS(t, Config{BufferBytes: 512 * kb})
	fs.Write(0, 1, 0, 8*kb)
	// A clean file's fsync must not park the other file's dirty blocks in
	// the NVRAM buffer.
	fs.Fsync(sec, 2)
	if got := fs.Stats().BufferedBlocks; got != 0 {
		t.Fatalf("buffered = %d after fsync of clean file", got)
	}
	fs.Fsync(2*sec, 1)
	if got := fs.Stats().BufferedBlocks; got != 2 {
		t.Fatalf("buffered = %d", got)
	}
	// Once parked the data is permanent: a repeat fsync is a no-op.
	fs.Fsync(3*sec, 1)
	if got := fs.Stats().BufferedBlocks; got != 2 {
		t.Fatalf("buffered = %d after repeat fsync", got)
	}
	if fs.Stats().SegmentsWritten != 0 {
		t.Fatalf("buffered fsync wrote segments: %+v", fs.Stats())
	}
}
