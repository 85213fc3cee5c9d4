package lfs

import (
	"math/rand"
	"testing"
	"time"

	"nvramfs/internal/disk"
)

// stateEqual compares the durable metadata of two file systems: the
// block-to-segment map must match exactly, and the recovered file extents
// must cover every durable and buffered block. (A file whose only blocks
// were volatile-dirty legitimately vanishes in a crash — its size metadata
// was never written to the log.)
func stateEqual(t *testing.T, want, got *FS) {
	t.Helper()
	if want.LiveBlocks() != got.LiveBlocks() {
		t.Fatalf("block maps differ: %d vs %d entries", want.LiveBlocks(), got.LiveBlocks())
	}
	want.blocks.each(func(id blockID, seg int32) {
		if g, _ := got.blocks.seg(id); g != seg {
			t.Fatalf("block %v: segment %d vs %d", id, seg, g)
		}
	})
	covers := func(id blockID, what string) {
		if f := got.files[id.File]; f == nil || f.extent <= id.Index {
			t.Fatalf("file %d extent does not cover %s block %d", id.File, what, id.Index)
		}
	}
	got.blocks.each(func(id blockID, _ int32) { covers(id, "durable") })
	want.buffered.Each(func(id blockID, _ struct{}) { covers(id, "buffered") })
	if err := got.checkConsistent(); err != nil {
		t.Fatal(err)
	}
}

func TestRecoveryWithoutCheckpointReplaysWholeLog(t *testing.T) {
	fs := newFS(t, Config{})
	per := int64(fs.Config().BlocksPerSegment())
	fs.Write(0, 1, 0, per*4*kb) // full segment
	fs.Write(sec, 2, 0, 8*kb)   // partial via fsync
	fs.Fsync(2*sec, 2)
	rec, report, err := fs.SimulateCrashAndRecover(3 * sec)
	if err != nil {
		t.Fatal(err)
	}
	if report.SegmentsReplayed != 2 {
		t.Fatalf("replayed %d segments", report.SegmentsReplayed)
	}
	if report.CheckpointSeq != 0 {
		t.Fatalf("checkpoint seq = %d", report.CheckpointSeq)
	}
	stateEqual(t, fs, rec)
}

func TestRecoveryFromCheckpointBoundsReplay(t *testing.T) {
	fs := newFS(t, Config{})
	per := int64(fs.Config().BlocksPerSegment())
	// Two segments, checkpoint, two more segments.
	fs.Write(0, 1, 0, 2*per*4*kb)
	fs.Checkpoint(sec)
	fs.Write(2*sec, 2, 0, 2*per*4*kb)
	rec, report, err := fs.SimulateCrashAndRecover(3 * sec)
	if err != nil {
		t.Fatal(err)
	}
	if report.SegmentsReplayed != 2 {
		t.Fatalf("replayed %d segments, want only the post-checkpoint two", report.SegmentsReplayed)
	}
	if report.CheckpointSeq != 2 {
		t.Fatalf("checkpoint seq = %d", report.CheckpointSeq)
	}
	stateEqual(t, fs, rec)
	if fs.Stats().Checkpoints != 1 {
		t.Fatalf("checkpoints = %d", fs.Stats().Checkpoints)
	}
}

func TestRecoveryLosesDirtyKeepsBuffered(t *testing.T) {
	fs := newFS(t, Config{BufferBytes: 512 * kb})
	fs.Write(0, 1, 0, 8*kb) // volatile dirty
	fs.Write(1, 2, 0, 4*kb)
	fs.Fsync(2, 2)          // parks file 2's block (and file 1's) in NVRAM
	fs.Write(3, 3, 0, 4*kb) // dirty again, unfsynced
	rec, report, err := fs.SimulateCrashAndRecover(4)
	if err != nil {
		t.Fatal(err)
	}
	if report.LostDirtyBlocks != 1 {
		t.Fatalf("lost %d dirty blocks, want 1 (file 3)", report.LostDirtyBlocks)
	}
	if report.RecoveredBufferedBlocks != 3 {
		t.Fatalf("recovered %d buffered blocks, want 3", report.RecoveredBufferedBlocks)
	}
	if rec.PendingBlocks() != 3 {
		t.Fatalf("pending after recovery = %d", rec.PendingBlocks())
	}
	// The recovered data eventually reaches disk.
	rec.Shutdown(10 * sec)
	if rec.LiveBlocks() != 3 {
		t.Fatalf("live blocks after shutdown = %d", rec.LiveBlocks())
	}
}

func TestRecoveryReplaysDeletions(t *testing.T) {
	fs := newFS(t, Config{})
	fs.Write(0, 1, 0, 8*kb)
	fs.Fsync(1, 1) // on disk
	fs.Checkpoint(2)
	fs.Delete(3, 1) // after the checkpoint
	rec, _, err := fs.SimulateCrashAndRecover(4)
	if err != nil {
		t.Fatal(err)
	}
	if rec.LiveBlocks() != 0 {
		t.Fatalf("deleted file resurrected: %d live blocks", rec.LiveBlocks())
	}
	stateEqual(t, fs, rec)
}

// TestDeleteFarOffsetCostsItsBlocks deletes and recovers a one-block file
// written at offset 1<<42, whose extent is 2^30 blocks. Both the delete and
// recovery's replay of it must cost the file's blocks, not its extent (a
// walk over every index below the extent takes tens of seconds).
func TestDeleteFarOffsetCostsItsBlocks(t *testing.T) {
	for _, buf := range []int64{0, 512 * kb} {
		fs := newFS(t, Config{BufferBytes: buf})
		const off = 1 << 42
		start := time.Now()
		fs.Write(0, 1, off, 4*kb)
		fs.Checkpoint(sec)
		fs.Fsync(2*sec, 1) // to disk, or parked in the buffer
		fs.Write(3*sec, 1, off+4*kb, 4*kb)
		fs.Write(3*sec, 2, 0, 4*kb)
		fs.Delete(4*sec, 1)
		if fs.PendingBlocks() != 1 || fs.LiveBlocks() != 0 {
			t.Fatalf("buffer %d: after delete pending %d, live %d", buf, fs.PendingBlocks(), fs.LiveBlocks())
		}
		rec, report, err := fs.SimulateCrashAndRecover(5 * sec)
		if err != nil {
			t.Fatal(err)
		}
		if rec.LiveBlocks() != 0 || report.SegmentsReplayed != int(fs.Stats().SegmentsWritten) {
			t.Fatalf("buffer %d: recovered %d live blocks from %d segments", buf, rec.LiveBlocks(), report.SegmentsReplayed)
		}
		stateEqual(t, fs, rec)
		if d := time.Since(start); d > 5*time.Second {
			t.Fatalf("buffer %d: delete and recovery took %v", buf, d)
		}
	}
}

func TestRecoveryAfterCleaning(t *testing.T) {
	// The cleaner moves blocks between segments; recovery must follow the
	// log to the blocks' final homes.
	fs := newFS(t, Config{DiskSegments: 64, CleanLowWater: 8, CleanHighWater: 16})
	per := int64(fs.Config().BlocksPerSegment())
	var now int64
	fs.Checkpoint(now)
	for round := 0; round < 8; round++ {
		for seg := int64(0); seg < 20; seg++ {
			fs.Write(now, 1, seg*per*4*kb, per*4*kb)
			now += sec
		}
	}
	if fs.Stats().CleanerRuns == 0 {
		t.Fatal("test needs cleaner activity")
	}
	rec, _, err := fs.SimulateCrashAndRecover(now)
	if err != nil {
		t.Fatal(err)
	}
	stateEqual(t, fs, rec)
}

// TestRecoveryRandomized drives a random operation mix with periodic
// checkpoints and verifies crash recovery reproduces the durable state at
// every probe point.
func TestRecoveryRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	fs := New(Config{DiskSegments: 256, BufferBytes: 512 << 10}, disk.New(disk.DefaultParams()))
	var now int64
	files := []uint64{}
	nextFile := uint64(1)
	for i := 0; i < 400; i++ {
		now += int64(rng.Intn(10)+1) * sec
		switch rng.Intn(10) {
		case 0, 1, 2, 3, 4: // write
			var f uint64
			if len(files) > 0 && rng.Intn(2) == 0 {
				f = files[rng.Intn(len(files))]
			} else {
				f = nextFile
				nextFile++
				files = append(files, f)
			}
			off := int64(rng.Intn(64)) * 4 * kb
			fs.Write(now, f, off, int64(rng.Intn(16)+1)*4*kb)
		case 5, 6: // fsync
			if len(files) > 0 {
				fs.Fsync(now, files[rng.Intn(len(files))])
			}
		case 7: // delete
			if len(files) > 0 {
				i := rng.Intn(len(files))
				fs.Delete(now, files[i])
				files = append(files[:i], files[i+1:]...)
			}
		case 8: // checkpoint
			fs.Checkpoint(now)
		case 9: // crash + recover, continue on the recovered instance
			rec, _, err := fs.SimulateCrashAndRecover(now)
			if err != nil {
				t.Fatalf("op %d: %v", i, err)
			}
			stateEqual(t, fs, rec)
			fs = rec
		}
	}
	if err := fs.checkConsistent(); err != nil {
		t.Fatal(err)
	}
}

func TestRecoveredFSIsIndependent(t *testing.T) {
	fs := newFS(t, Config{BufferBytes: 512 * kb})
	per := int64(fs.Config().BlocksPerSegment())
	fs.Write(0, 1, 0, per*4*kb) // one durable full segment
	fs.Write(sec, 2, 0, 8*kb)
	fs.Fsync(2*sec, 2) // parks file 2 in the NVRAM buffer
	fs.Checkpoint(3 * sec)
	rec, _, err := fs.SimulateCrashAndRecover(4 * sec)
	if err != nil {
		t.Fatal(err)
	}

	segs := len(fs.segLog)
	fp := fs.DurableFingerprint()
	cpSeq := fs.checkpoint.seq
	cpBlocks := len(fs.checkpoint.blockSeg)
	dels := len(fs.deleteLog)

	// Drive the recovered instance hard: new segments, a checkpoint, a
	// deletion. None of it may leak into the crashed instance.
	rec.Write(5*sec, 3, 0, per*4*kb)
	rec.Fsync(6*sec, 3)
	rec.Checkpoint(7 * sec)
	rec.Delete(8*sec, 2)

	if len(fs.segLog) != segs {
		t.Fatalf("recovered FS grew the original's segment log: %d -> %d", segs, len(fs.segLog))
	}
	if got := fs.DurableFingerprint(); got != fp {
		t.Fatalf("original fingerprint changed: %#x -> %#x", fp, got)
	}
	if fs.checkpoint.seq != cpSeq || len(fs.checkpoint.blockSeg) != cpBlocks {
		t.Fatal("recovered FS mutated the original's checkpoint")
	}
	if len(fs.deleteLog) != dels {
		t.Fatalf("recovered FS appended to the original's delete log: %d -> %d", dels, len(fs.deleteLog))
	}
	if err := fs.checkConsistent(); err != nil {
		t.Fatalf("original inconsistent after recovered-FS activity: %v", err)
	}

	// And the other direction: the original's activity must not leak into
	// the recovered instance.
	rfp := rec.DurableFingerprint()
	fs.Write(9*sec, 4, 0, 8*kb)
	fs.Fsync(10*sec, 4)
	fs.Delete(11*sec, 1)
	if got := rec.DurableFingerprint(); got != rfp {
		t.Fatalf("recovered fingerprint changed: %#x -> %#x", rfp, got)
	}
	if err := rec.checkConsistent(); err != nil {
		t.Fatalf("recovered inconsistent after original-FS activity: %v", err)
	}
}
