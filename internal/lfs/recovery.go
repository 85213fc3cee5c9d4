package lfs

import (
	"fmt"
	"slices"
	"sort"

	"nvramfs/internal/nvram"
)

// This file implements LFS's crash-recovery machinery: periodic
// checkpoints of the file system's metadata and roll-forward replay of the
// segment summaries written after the last checkpoint. Sprite LFS writes a
// checkpoint to one of two alternating checkpoint regions; on reboot it
// reads the most recent checkpoint and replays the log from there, using
// each segment's summary block to discover what the segment contains.
//
// Recovery interacts with the paper's NVRAM write buffer in an important
// way: data parked in the buffer by fsync survives a crash (it is
// battery-backed), while ordinary dirty data in the volatile server cache
// is lost. SimulateCrashAndRecover reports both.

// segRecord is the durable record of one written segment: its position in
// the log and its summary-block contents (which file blocks it holds).
type segRecord struct {
	seq    int64
	blocks []blockID
}

// checkpointRec is a checkpoint region's contents: a snapshot of the
// file-system metadata as of a log position.
type checkpointRec struct {
	seq      int64
	blockSeg map[blockID]int32
	files    map[uint64]int64
	segLive  []int32
	free     []int32
}

// clone deep-copies a checkpoint record so a recovered file system never
// shares mutable state with the instance it was recovered from.
func (cp *checkpointRec) clone() *checkpointRec {
	c := &checkpointRec{
		seq:      cp.seq,
		blockSeg: make(map[blockID]int32, len(cp.blockSeg)),
		files:    make(map[uint64]int64, len(cp.files)),
		segLive:  append([]int32(nil), cp.segLive...),
		free:     append([]int32(nil), cp.free...),
	}
	for k, v := range cp.blockSeg {
		c.blockSeg[k] = v
	}
	for k, v := range cp.files {
		c.files[k] = v
	}
	return c
}

// snapshot captures the current metadata into a checkpoint record.
func (fs *FS) snapshot() *checkpointRec {
	cp := &checkpointRec{
		seq:      fs.seq,
		blockSeg: make(map[blockID]int32, fs.blockSeg.len()),
		files:    make(map[uint64]int64, len(fs.files)),
		segLive:  append([]int32(nil), fs.segLive...),
		free:     append([]int32(nil), fs.free...),
	}
	fs.blockSeg.each(func(id blockID, seg int32) { cp.blockSeg[id] = seg })
	for k, f := range fs.files {
		cp.files[k] = f.extent
	}
	return cp
}

// Checkpoint writes a checkpoint region: the inode map, segment usage
// table, and log position become durable, bounding future roll-forward
// work. It costs one disk write (the checkpoint region).
func (fs *FS) Checkpoint(now int64) {
	fs.Advance(now)
	fs.checkpoint = fs.snapshot()
	if fs.img != nil {
		fs.img.Put(nvram.NSLFSCheckpoint, checkpointKey, encodeCheckpoint(fs.checkpoint))
	}
	// Roll-forward only replays records logged after the checkpoint
	// (seq > checkpoint.seq), and every record logged so far is at or
	// below it — truncate the delete log and drop checkpointed segment
	// summaries, so both are bounded by the activity between checkpoints
	// instead of growing toward disk capacity for the life of the file
	// system (the crash harness checkpoints periodically through a whole
	// trace).
	fs.deleteLog = fs.deleteLog[:0]
	for seg, r := range fs.segLog {
		if r.seq <= fs.checkpoint.seq {
			delete(fs.segLog, seg)
		}
	}
	fs.stats.Checkpoints++
	// A checkpoint region write: metadata snapshot, sized roughly by the
	// live-block pointer count (8 bytes a pointer, one 4 KB block
	// minimum).
	size := int64(fs.blockSeg.len())*8 + int64(len(fs.segLive))*4
	if size < fs.cfg.BlockSize {
		size = fs.cfg.BlockSize
	}
	fs.disk.Write(size)
}

// RecoveryReport describes the outcome of crash recovery.
type RecoveryReport struct {
	// CheckpointSeq is the log position of the checkpoint recovery
	// started from (0 when the file system had never checkpointed).
	CheckpointSeq int64
	// SegmentsReplayed is how many post-checkpoint segments were read and
	// rolled forward.
	SegmentsReplayed int
	// LostDirtyBlocks is volatile dirty data destroyed by the crash.
	LostDirtyBlocks int
	// RecoveredBufferedBlocks is fsync'd data that survived in the NVRAM
	// write buffer and was re-queued for segment writing.
	RecoveredBufferedBlocks int
}

// SimulateCrashAndRecover models a power failure followed by reboot: the
// volatile server cache is lost, the NVRAM write buffer survives, and the
// file system metadata is rebuilt from the last checkpoint plus a roll-
// forward over the segment log. It returns the recovered file system and a
// report.
//
// The recovered instance shares only the disk with the crashed one (the
// disk's counters keep accumulating: recovery reads the checkpoint and
// every replayed segment). All mutable metadata — the segment log, the
// checkpoint, the free list, the per-segment write times — is deep-copied,
// so the two instances can both keep running (the harness's differential
// crashed-vs-recovered-vs-oracle comparisons depend on this).
func (fs *FS) SimulateCrashAndRecover(now int64) (*FS, RecoveryReport, error) {
	return fs.recoverWith(now, fs.bufferedIDs(), fs.checkpoint)
}

// recoverWith is the recovery algorithm with the NVRAM-resident inputs —
// the surviving buffered-block set and the checkpoint region — passed
// explicitly, so they can come either from this process (a simulated
// crash) or from a reopened durable image (a real one).
func (fs *FS) recoverWith(now int64, buffered []blockID, checkpoint *checkpointRec) (*FS, RecoveryReport, error) {
	report := RecoveryReport{
		LostDirtyBlocks:         fs.dirty.len(),
		RecoveredBufferedBlocks: len(buffered),
	}

	rec := &FS{
		cfg:        fs.cfg,
		disk:       fs.disk,
		now:        now,
		files:      make(map[uint64]*fileState),
		segLive:    make([]int32, fs.cfg.DiskSegments),
		seq:        fs.seq,
		segLog:     make(map[int32]*segRecord, len(fs.segLog)),
		segWritten: append([]int64(nil), fs.segWritten...),
	}
	// Deep-copy the segment log and write times: segRecords are immutable
	// once emitted, but the map and slice must not be shared — the
	// recovered instance's future emitSegment calls would otherwise mutate
	// the crashed instance's log (and vice versa).
	for seg, r := range fs.segLog {
		rec.segLog[seg] = &segRecord{seq: r.seq, blocks: append([]blockID(nil), r.blocks...)}
	}

	// 1. Read the most recent checkpoint region.
	var fromSeq int64
	if checkpoint != nil {
		cp := checkpoint
		fromSeq = cp.seq
		report.CheckpointSeq = cp.seq
		for id, seg := range cp.blockSeg {
			rec.blockSeg.put(id, seg)
		}
		for k, v := range cp.files {
			rec.files[k] = &fileState{extent: v}
		}
		copy(rec.segLive, cp.segLive)
		rec.free = append([]int32(nil), cp.free...)
		rec.checkpoint = cp.clone()
		rec.disk.Read(int64(len(cp.blockSeg))*8 + fs.cfg.BlockSize)
	} else {
		// No checkpoint: replay the whole log from scratch.
		for i := fs.cfg.DiskSegments - 1; i >= 0; i-- {
			rec.free = append(rec.free, int32(i))
		}
	}

	// 2. Roll forward: replay segment summaries and logged directory
	// deletions written after the checkpoint, in log order (a deletion at
	// position s happened after the segment with sequence s).
	type event struct {
		seq    int64
		seg    int32
		blocks []blockID
		del    uint64 // file id when this is a deletion event
		isDel  bool
	}
	var replay []event
	for seg, r := range fs.segLog {
		if r.seq > fromSeq {
			replay = append(replay, event{seq: r.seq, seg: seg, blocks: r.blocks})
		}
	}
	for _, d := range fs.deleteLog {
		if d.seq > fromSeq {
			replay = append(replay, event{seq: d.seq, del: d.file, isDel: true})
		}
	}
	// Log positions are unique across segments and deletions, so the
	// replay order is total.
	sort.Slice(replay, func(i, j int) bool { return replay[i].seq < replay[j].seq })
	for _, ev := range replay {
		if ev.isDel {
			// The dirty and buffered tables are empty until step 3.
			if f := rec.files[ev.del]; f != nil {
				rec.fileIndexes(ev.del, f.extent, func(idx int64) {
					if seg, ok := rec.blockSeg.del(blockID{ev.del, idx}); ok {
						rec.segLive[seg]--
					}
				})
				delete(rec.files, ev.del)
			}
			continue
		}
		rec.disk.Read(fs.cfg.SegmentSize)
		report.SegmentsReplayed++
		for _, id := range ev.blocks {
			p, had := rec.blockSeg.ref(id)
			if had {
				rec.segLive[*p]--
			}
			*p = ev.seg
			rec.segLive[ev.seg]++
			rec.extend(id)
		}
	}
	rec.deleteLog = append([]deleteRecord(nil), fs.deleteLog...)
	// Rebuild the free list from what remains unreferenced.
	rec.free = rec.free[:0]
	used := make(map[int32]bool)
	rec.blockSeg.each(func(_ blockID, seg int32) { used[seg] = true })
	for i := fs.cfg.DiskSegments - 1; i >= 0; i-- {
		if !used[int32(i)] {
			rec.free = append(rec.free, int32(i))
		}
	}

	// 3. The NVRAM buffer's contents survived; re-register them so they
	// reach the disk in due course.
	for _, id := range buffered {
		rec.buffered.put(id, struct{}{})
		rec.extend(id)
	}

	if err := rec.checkConsistent(); err != nil {
		return nil, report, fmt.Errorf("lfs: recovery produced inconsistent state: %w", err)
	}
	return rec, report, nil
}

// extend makes id's file extent cover id, creating the file's entry.
func (fs *FS) extend(id blockID) {
	f := fs.file(id.file)
	f.extent = max(f.extent, id.index+1)
}

// CheckConsistent verifies the segment-accounting invariants: every block
// maps to a segment on the disk, and the per-segment live counts agree
// with a full recount. The crash harness runs it on recovered instances.
func (fs *FS) CheckConsistent() error { return fs.checkConsistent() }

// ForEachPending calls fn for every pending block — one not yet written
// into a segment — in (file, index) order. Volatile dirty blocks pass
// stable=false with their first-dirty time; NVRAM-buffered blocks pass
// stable=true with at = -1 (the buffer keeps no ages: its contents are
// already permanent). The crash harness uses it to apply the loss model.
func (fs *FS) ForEachPending(fn func(file uint64, index int64, at int64, stable bool)) {
	dirty := make([]ageEntry, 0, fs.dirty.len())
	fs.dirty.each(func(id blockID, d dirtyBlock) { dirty = append(dirty, ageEntry{at: d.at, id: id}) })
	slices.SortFunc(dirty, func(a, b ageEntry) int { return compareBlockIDs(a.id, b.id) })
	for _, e := range dirty {
		fn(e.id.file, e.id.index, e.at, false)
	}
	for _, id := range fs.bufferedIDs() {
		fn(id.file, id.index, -1, true)
	}
}

// DurableFingerprint hashes the state a crash cannot destroy: the
// block-to-segment map (which also fixes the durable file extents) and
// the NVRAM-buffered blocks. Two file systems with equal fingerprints
// recover to the same contents; the crash harness compares a recovered
// instance against a from-scratch replay of the same operation prefix.
func (fs *FS) DurableFingerprint() uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	mix := func(v uint64) {
		for i := 0; i < 8; i++ {
			h ^= v & 0xff
			h *= prime64
			v >>= 8
		}
	}
	ids := make([]blockID, 0, fs.blockSeg.len())
	fs.blockSeg.each(func(id blockID, _ int32) { ids = append(ids, id) })
	sortBlockIDs(ids)
	for _, id := range ids {
		seg, _ := fs.blockSeg.get(id)
		mix(1)
		mix(id.file)
		mix(uint64(id.index))
		mix(uint64(seg))
	}
	for _, id := range fs.bufferedIDs() {
		mix(2)
		mix(id.file)
		mix(uint64(id.index))
	}
	return h
}

// checkConsistent verifies the segment-accounting invariants after
// recovery (and in tests).
func (fs *FS) checkConsistent() error {
	counts := make([]int32, len(fs.segLive))
	beyond := int32(-1)
	fs.blockSeg.each(func(_ blockID, seg int32) {
		if int(seg) >= len(counts) {
			beyond = seg
			return
		}
		counts[seg]++
	})
	if beyond >= 0 {
		return fmt.Errorf("block mapped to segment %d beyond disk", beyond)
	}
	for seg, want := range counts {
		if fs.segLive[seg] != want {
			return fmt.Errorf("segment %d live count %d, recounted %d", seg, fs.segLive[seg], want)
		}
	}
	return nil
}
