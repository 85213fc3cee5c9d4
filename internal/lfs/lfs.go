// Package lfs simulates a Sprite-style log-structured file system on a
// file server (Rosenblum & Ousterhout's LFS, the substrate of the paper's
// Section 3).
//
// The file system accumulates dirty file blocks and writes them to disk in
// large contiguous segments (one-half megabyte), each carrying at least one
// four-kilobyte metadata block and a 512-byte summary block, with one disk
// access per segment. Two mechanisms force *partial* segments, the central
// measurement of Tables 3 and 4:
//
//   - application fsync requests, which make LFS immediately write out
//     whatever dirty data is present, and
//   - the 30-second delayed write-back, which flushes dirty data older
//     than 30 seconds (checked every 5 seconds, and only significant when
//     the file system is lightly loaded).
//
// A garbage collector (cleaner) reclaims space from segments whose blocks
// have been overwritten or deleted, compacting live blocks into new
// segments.
//
// An optional non-volatile write buffer (Section 3's proposal) absorbs
// fsyncs: fsync'd data parks in NVRAM — already permanent, so the fsync
// completes with no disk access — and reaches the disk only as part of a
// full segment. The 30-second flush still applies to data that was never
// fsync'd (it sits in volatile server cache), which reproduces the paper's
// arithmetic: the buffer eliminates fsync-forced partial segments
// specifically.
package lfs

import (
	"cmp"
	"fmt"
	"slices"

	"nvramfs/internal/blockmap"
	"nvramfs/internal/disk"
	"nvramfs/internal/nvram"
)

// Config parameterizes the file system.
type Config struct {
	// Name labels the file system (e.g. "/user6").
	Name string
	// SegmentSize is the log segment size; default 512 KB.
	SegmentSize int64
	// BlockSize is the file block size; default 4 KB.
	BlockSize int64
	// SummarySize is the per-segment summary block; default 512 bytes.
	SummarySize int64
	// MetaBlockSize is the metadata appended to each segment; default one
	// 4 KB block ("at least one four-kilobyte block of metadata").
	MetaBlockSize int64
	// DiskSegments is the log capacity in segments; default 2048 (1 GB).
	DiskSegments int
	// AgeFlush is the delayed-write-back age; default 30 s.
	AgeFlush int64
	// CheckInterval is the cleaner/flusher cadence; default 5 s.
	CheckInterval int64
	// CleanLowWater triggers the cleaner when free segments drop below it;
	// default 32.
	CleanLowWater int
	// CleanHighWater is the free-segment target after cleaning; default 64.
	CleanHighWater int
	// BufferBytes enables the NVRAM write buffer with this capacity;
	// 0 disables it. The paper studies a one-half megabyte buffer.
	BufferBytes int64
	// Cleaner selects the garbage-collection victim policy; default
	// CleanGreedy.
	Cleaner CleanPolicy
}

// CleanPolicy selects which segments the garbage collector reclaims.
type CleanPolicy uint8

// Cleaner policies.
const (
	// CleanGreedy reclaims the segments with the least live data.
	CleanGreedy CleanPolicy = iota
	// CleanCostBenefit uses Sprite LFS's cost-benefit policy: it prefers
	// segments maximizing (1-u)*age/(1+u), where u is the live fraction
	// and age the time since the segment was written — cold, moderately
	// fragmented segments get cleaned before hot, just-written ones,
	// which tend to empty themselves.
	CleanCostBenefit
)

func (p CleanPolicy) String() string {
	if p == CleanCostBenefit {
		return "cost-benefit"
	}
	return "greedy"
}

func (c *Config) fillDefaults() {
	if c.SegmentSize <= 0 {
		c.SegmentSize = 512 << 10
	}
	if c.BlockSize <= 0 {
		c.BlockSize = 4 << 10
	}
	if c.SummarySize <= 0 {
		c.SummarySize = 512
	}
	if c.MetaBlockSize <= 0 {
		c.MetaBlockSize = 4 << 10
	}
	if c.DiskSegments <= 0 {
		c.DiskSegments = 2048
	}
	if c.AgeFlush <= 0 {
		c.AgeFlush = 30 * 1e6
	}
	if c.CheckInterval <= 0 {
		c.CheckInterval = 5 * 1e6
	}
	if c.CleanLowWater <= 0 {
		c.CleanLowWater = 32
	}
	if c.CleanHighWater <= c.CleanLowWater {
		c.CleanHighWater = c.CleanLowWater * 2
	}
}

// BlocksPerSegment is the file-data capacity of one segment in blocks.
func (c Config) BlocksPerSegment() int {
	return int((c.SegmentSize - c.MetaBlockSize - c.SummarySize) / c.BlockSize)
}

// SegCause classifies a segment write.
type SegCause uint8

// Segment write causes.
const (
	// SegFull: a full segment's worth of dirty data had accumulated.
	SegFull SegCause = iota
	// SegFsync: an application fsync forced a partial segment.
	SegFsync
	// SegAge: the 30-second delayed write-back flushed a partial segment.
	SegAge
	// SegCleaner: the garbage collector compacted live data.
	SegCleaner
	// SegShutdown: the final flush at the end of a run.
	SegShutdown
)

func (c SegCause) String() string {
	switch c {
	case SegFull:
		return "full"
	case SegFsync:
		return "fsync"
	case SegAge:
		return "age"
	case SegCleaner:
		return "cleaner"
	case SegShutdown:
		return "shutdown"
	}
	return fmt.Sprintf("cause(%d)", uint8(c))
}

// Stats accumulates the measurements behind Tables 3 and 4.
type Stats struct {
	// Segment writes by kind. A segment is partial when it carries fewer
	// file-data blocks than a full segment.
	SegmentsWritten      int64
	FullSegments         int64
	PartialFsyncSegments int64
	PartialAgeSegments   int64
	PartialOtherSegments int64 // shutdown etc.
	CleanerSegments      int64

	// Bytes of file data written per kind (metadata/summary excluded).
	FileDataBytes     int64
	PartialDataBytes  int64
	FsyncPartialBytes int64
	MetaBytes         int64
	SummaryBytes      int64

	// Application-level counters.
	Fsyncs         int64
	BlocksDirtied  int64
	BlocksAbsorbed int64 // dirty blocks overwritten/deleted before disk

	// Cleaner activity.
	CleanerRuns         int64
	SegmentsCleaned     int64
	CleanerBlocksCopied int64

	// Buffer activity.
	BufferedBlocks int64 // blocks parked in NVRAM by fsync

	// Recovery machinery.
	Checkpoints int64
}

// PartialSegments is the number of partial segment writes (excluding
// cleaner traffic, as the paper's tables do).
func (s *Stats) PartialSegments() int64 {
	return s.PartialFsyncSegments + s.PartialAgeSegments + s.PartialOtherSegments
}

// PartialFrac is the fraction of (non-cleaner) segment writes that were
// partial — Table 3's "% total segments that are partial".
func (s *Stats) PartialFrac() float64 {
	total := s.FullSegments + s.PartialSegments()
	if total == 0 {
		return 0
	}
	return float64(s.PartialSegments()) / float64(total)
}

// FsyncPartialFrac is the fraction of segment writes that were partial due
// to fsync — Table 3's "% total segments that are partial due to fsync".
func (s *Stats) FsyncPartialFrac() float64 {
	total := s.FullSegments + s.PartialSegments()
	if total == 0 {
		return 0
	}
	return float64(s.PartialFsyncSegments) / float64(total)
}

// KBPerPartial is the average kilobytes of file data per partial segment —
// Table 4's "Kbytes/partial".
func (s *Stats) KBPerPartial() float64 {
	n := s.PartialSegments()
	if n == 0 {
		return 0
	}
	return float64(s.PartialDataBytes) / 1024 / float64(n)
}

// SpaceOverheadFrac estimates the fraction of written disk space occupied
// by per-segment metadata and summary blocks (the Table 4 discussion: up
// to one third of each partial segment on /user6, reclaimed only when the
// cleaner runs).
func (s *Stats) SpaceOverheadFrac() float64 {
	total := s.FileDataBytes + s.MetaBytes + s.SummaryBytes
	if total == 0 {
		return 0
	}
	return float64(s.MetaBytes+s.SummaryBytes) / float64(total)
}

// blockID identifies one file block on the server.
type blockID = blockmap.Key

// sortBlockIDs orders ids by (file, index), the canonical order for
// batches whose source is an unordered table.
func sortBlockIDs(ids []blockID) { slices.SortFunc(ids, blockmap.Compare) }

// FS is one simulated log-structured file system.
type FS struct {
	cfg  Config
	disk *disk.Disk
	now  int64

	// Every block's segment and dirty state (dirty blocks are unfsynced,
	// in the volatile server cache), with first-dirty times; plus an age
	// queue for the delayed write-back. Every dirty block has a live entry
	// in the queue.
	blocks runTable
	ages   ageQueue

	// Blocks parked in the NVRAM buffer by fsync (permanent, so exempt
	// from the age flush). Empty when no buffer is configured.
	buffered blockmap.Table[struct{}]
	// img, when set via AttachImage, durably mirrors the buffer and the
	// checkpoint region into an on-disk NVRAM image (see durable.go).
	img *nvram.Image

	// Log structure: per-segment live-block counts and the free-segment
	// list (block locations are in blocks).
	segLive  []int32
	free     []int32
	files    map[uint64]*fileState
	cleaning bool // re-entrancy guard for the cleaner

	// Recovery machinery: a monotone log sequence number, the durable
	// per-segment summary records, the logged directory deletions, and
	// the most recent checkpoint region (see recovery.go).
	seq        int64
	segLog     map[int32]*segRecord
	deleteLog  []deleteRecord
	checkpoint *checkpointRec
	// segWritten is each segment's last write time, for the cost-benefit
	// cleaner's age term.
	segWritten []int64

	// Scratch reused across drains and cleaner runs. drain is the batch
	// that Advance, takePending and takeDirty return; it is valid until
	// the next of those calls. writeSegments only reads it, and
	// emitSegment copies each segment's blocks into segLog, so the batch
	// may be passed to writeSegments: nothing reached from there (the
	// cleaner included) takes from the age queue or the buffer. segMark
	// is false for every segment between cleaner runs; hist and the two
	// victim lists are the cleaner's.
	drain    []blockID
	segMark  []bool
	hist     []int32
	victims  []int32
	cbVictim []cbCand

	stats Stats
}

// fileState is what the file system keeps per file.
type fileState struct {
	extent int64 // block count, for deletes
	dirty  int   // dirty blocks, so fsync of a clean file is O(1)
}

// file returns file's state, creating it when absent.
func (fs *FS) file(file uint64) *fileState {
	f := fs.files[file]
	if f == nil {
		f = &fileState{}
		fs.files[file] = f
	}
	return f
}

// deleteRecord is a logged directory deletion, durable as of log position
// seq (deletions are replayed in log order during recovery).
type deleteRecord struct {
	seq  int64
	file uint64
}

// New creates a file system writing through the given disk.
func New(cfg Config, d *disk.Disk) *FS {
	cfg.fillDefaults()
	fs := &FS{
		cfg:        cfg,
		disk:       d,
		files:      make(map[uint64]*fileState),
		segLive:    make([]int32, cfg.DiskSegments),
		segLog:     make(map[int32]*segRecord),
		segWritten: make([]int64, cfg.DiskSegments),
	}
	for i := cfg.DiskSegments - 1; i >= 0; i-- {
		fs.free = append(fs.free, int32(i))
	}
	return fs
}

// Config returns the file system's configuration (defaults filled in).
func (fs *FS) Config() Config { return fs.cfg }

// Stats returns the accumulated statistics.
func (fs *FS) Stats() *Stats { return &fs.stats }

// Disk returns the underlying disk.
func (fs *FS) Disk() *disk.Disk { return fs.disk }

// ageEntry is a dirty block on the age queue, which orders them by
// (first-dirty time, file, index). Entries are lazily invalidated: one is
// stale once its block is no longer dirty since its time.
type ageEntry struct {
	at int64
	id blockID
}

// compareAgeEntries is the age queue's order.
func compareAgeEntries(a, b ageEntry) int {
	if c := cmp.Compare(a.at, b.at); c != 0 {
		return c
	}
	return blockmap.Compare(a.id, b.id)
}

// ageQueue holds the age entries from head on, sorted by
// compareAgeEntries. Writes arrive in time order and a write's blocks in
// index order, so a push nearly always sorts at or after the last entry
// and is an append. Only a backdated write, or a same-instant write to a
// lower file (the server cache's write-back flushes files at one instant
// in its own order), sorts earlier; it is inserted at its place, which
// moves only the entries after it, those of the same instant for a
// same-instant write. Taking entries from the front therefore yields
// exactly a min-heap's pop sequence under the same total order (equal
// entries are identical values, so their order cannot show).
type ageQueue struct {
	q    []ageEntry
	head int
}

// push adds e in order.
func (a *ageQueue) push(e ageEntry) {
	n := len(a.q)
	if n == a.head || compareAgeEntries(e, a.q[n-1]) >= 0 {
		a.q = append(a.q, e)
		return
	}
	i, _ := slices.BinarySearchFunc(a.q[a.head:], e, compareAgeEntries)
	a.q = slices.Insert(a.q, a.head+i, e)
}

// entries returns the queued entries in order. The slice is valid until
// the next push or drop.
func (a *ageQueue) entries() []ageEntry { return a.q[a.head:] }

// drop removes the first n entries. The array is compacted once the head
// passes half of it, so a compaction moves fewer entries than the drops
// since the last one removed.
func (a *ageQueue) drop(n int) {
	a.head += n
	switch {
	case a.head == len(a.q):
		a.q, a.head = a.q[:0], 0
	case a.head > len(a.q)/2:
		a.q, a.head = a.q[:copy(a.q, a.q[a.head:])], 0
	}
}

// Advance moves simulated time forward, running the 5-second flusher.
func (fs *FS) Advance(now int64) {
	if now < fs.now {
		return
	}
	for {
		q := fs.ages.entries()
		if len(q) == 0 {
			break
		}
		due := q[0].at + fs.cfg.AgeFlush
		// Round up to the next flusher tick.
		if rem := due % fs.cfg.CheckInterval; rem != 0 {
			due += fs.cfg.CheckInterval - rem
		}
		if due > now {
			break
		}
		fs.now = due
		// Flush every block old enough at this tick.
		cutoff := due - fs.cfg.AgeFlush
		batch := fs.drain[:0]
		i := 0
		for ; i < len(q) && q[i].at <= cutoff; i++ {
			if fs.takeLive(q[i]) {
				batch = append(batch, q[i].id)
			}
		}
		fs.ages.drop(i)
		fs.drain = batch
		if len(batch) > 0 {
			fs.writeSegments(batch, SegAge)
		}
	}
	fs.now = now
}

// Write marks the blocks covering [off, off+n) dirty at the current time
// and writes a segment whenever a full segment's worth of data is pending.
func (fs *FS) Write(now int64, file uint64, off, n int64) {
	fs.Advance(now)
	if n <= 0 {
		return
	}
	f := fs.file(file)
	bs := fs.cfg.BlockSize
	idx := off / bs
	for ; idx*bs < off+n; idx++ {
		id := blockID{File: file, Index: idx}
		fs.stats.BlocksDirtied++
		if !fs.blocks.markDirty(id, now, f) {
			// Overwritten before reaching disk: absorbed in the cache.
			fs.stats.BlocksAbsorbed++
			continue
		}
		if fs.buffered.Has(id) {
			// Overwritten while parked in the NVRAM buffer.
			fs.stats.BlocksAbsorbed++
			fs.bufferRemove(id)
		}
		fs.ages.push(ageEntry{at: now, id: id})
	}
	f.extent = max(f.extent, idx)
	fs.drainFullSegments()
}

// takeLive clears e's block's dirty bit if e still holds the block's
// first-dirty time. Clearing as taken matters: a same-instant delete and
// rewrite, or a block written out and re-dirtied at one instant, leaves
// two entries with equal (time, block), and the second must then read
// stale.
func (fs *FS) takeLive(e ageEntry) bool {
	if at, ok := fs.blocks.dirtyAt(e.id); !ok || at != e.at {
		return false
	}
	return fs.blocks.undirty(e.id)
}

// pendingBlocks is the total dirty plus buffered block count.
func (fs *FS) pendingBlocks() int { return fs.blocks.dirty + fs.buffered.Len() }

// drainFullSegments writes full segments while enough data is pending.
// A drain that takes nothing while the counts say a segment is pending
// would spin forever, so it panics instead.
func (fs *FS) drainFullSegments() {
	per := fs.cfg.BlocksPerSegment()
	for fs.pendingBlocks() >= per {
		batch := fs.takePending(per)
		if len(batch) == 0 {
			panic(fmt.Sprintf("lfs %s: drain took no block with %d dirty and %d buffered pending (%d age entries queued)",
				fs.cfg.Name, fs.blocks.dirty, fs.buffered.Len(), len(fs.ages.q)-fs.ages.head))
		}
		fs.writeSegments(batch, SegFull)
	}
}

// takePending removes up to n pending blocks, oldest buffered data first.
// The batch is fs.drain.
func (fs *FS) takePending(n int) []blockID {
	batch := fs.drain[:0]
	if fs.buffered.Len() > 0 {
		// Sorted, not slot order: segment membership decides what the
		// cleaner later copies, so replays must be deterministic. The
		// buffer holds at most its capacity plus one write's blocks.
		for _, id := range fs.bufferedIDs() {
			if len(batch) >= n {
				break
			}
			batch = append(batch, id)
			fs.bufferRemove(id)
		}
	}
	if len(batch) < n && fs.blocks.dirty > 0 {
		// Then the oldest dirty blocks, for age fairness. Every dirty block
		// has a live entry in the queue, so its live entries from the
		// front are the oldest dirty blocks in (first-dirty time, file,
		// index) order.
		q := fs.ages.entries()
		i := 0
		for ; i < len(q) && len(batch) < n; i++ {
			if fs.takeLive(q[i]) {
				batch = append(batch, q[i].id)
			}
		}
		fs.ages.drop(i)
	}
	fs.drain = batch
	return batch
}

// takeDirty removes every dirty block, oldest first, and empties the age
// queue. Every dirty block has a live entry there, so the queue
// enumerates them without a walk over the table's slots. The batch is
// fs.drain.
func (fs *FS) takeDirty() []blockID {
	batch := fs.drain[:0]
	q := fs.ages.entries()
	for _, e := range q {
		if fs.blocks.undirty(e.id) {
			batch = append(batch, e.id)
		}
	}
	fs.ages.drop(len(q))
	fs.drain = batch
	return batch
}

// Fsync handles an application fsync at the given time.
//
// An fsync only forces I/O when the target file actually has dirty data
// pending; fsync of an already-durable file completes immediately (real
// LFS finds nothing to write for it). When the file does have dirty
// blocks, LFS writes out the *whole* accumulated partial segment — every
// file's dirty data rides along, since segments batch all pending blocks.
//
// Without a buffer that forced write is the partial segment of Table 3.
// With a buffer, the pending data parks in NVRAM (permanent, so the fsync
// completes with no disk access) and is written later as part of a full
// segment.
func (fs *FS) Fsync(now int64, file uint64) {
	fs.Advance(now)
	fs.stats.Fsyncs++
	if f := fs.files[file]; f == nil || f.dirty == 0 {
		return
	}
	batch := fs.takeDirty()
	if fs.cfg.BufferBytes > 0 {
		capBlocks := int(fs.cfg.BufferBytes / fs.cfg.BlockSize)
		for _, id := range batch {
			fs.bufferAdd(id)
			fs.stats.BufferedBlocks++
		}
		// If the buffer overflows, drain it with segment writes (full if
		// possible; the forced partial only happens when the buffer is
		// smaller than a segment).
		per := fs.cfg.BlocksPerSegment()
		for fs.buffered.Len() > capBlocks {
			fs.writeSegments(fs.takePending(min(per, fs.buffered.Len())), SegFsync)
		}
		fs.drainFullSegments()
		return
	}
	sortBlockIDs(batch)
	fs.writeSegments(batch, SegFsync)
}

// Delete removes a file: its pending blocks die unwritten and its on-disk
// blocks become garbage for the cleaner.
func (fs *FS) Delete(now int64, file uint64) {
	fs.Advance(now)
	if f := fs.files[file]; f != nil {
		absorbed := fs.blocks.dropFile(file, f.extent, fs.unlive) + fs.dropBuffered(file, f.extent)
		fs.stats.BlocksAbsorbed += int64(absorbed)
		delete(fs.files, file)
	}
	// Log the directory deletion so roll-forward recovery replays it
	// (real LFS writes directory-operation records into the log). The
	// deletion takes its own log position so recovery can order it
	// against segment writes and checkpoints unambiguously.
	fs.seq++
	fs.deleteLog = append(fs.deleteLog, deleteRecord{seq: fs.seq, file: file})
}

// unlive drops one live block from seg's count.
func (fs *FS) unlive(seg int32) { fs.segLive[seg]-- }

// dropBuffered removes file's blocks below extent from the NVRAM buffer in
// (file, index) order and returns how many there were. Like dropFile it
// costs min(extent, buffered entries) steps.
func (fs *FS) dropBuffered(file uint64, extent int64) int {
	var ids []blockID
	if extent <= int64(fs.buffered.Len()) {
		for idx := int64(0); idx < extent; idx++ {
			if id := (blockID{File: file, Index: idx}); fs.buffered.Has(id) {
				ids = append(ids, id)
			}
		}
	} else {
		for _, id := range fs.bufferedIDs() {
			if id.File == file {
				ids = append(ids, id)
			}
		}
	}
	for _, id := range ids {
		fs.bufferRemove(id)
	}
	return len(ids)
}

// Shutdown flushes all pending data at the end of a run.
func (fs *FS) Shutdown(now int64) {
	fs.Advance(now)
	batch := fs.takePending(fs.pendingBlocks())
	if len(batch) > 0 {
		fs.writeSegments(batch, SegShutdown)
	}
}

// writeSegments writes the batch as one or more segments: full segments
// while the batch fills them, then a final partial attributed to cause.
func (fs *FS) writeSegments(batch []blockID, cause SegCause) {
	per := fs.cfg.BlocksPerSegment()
	for len(batch) > 0 {
		n := len(batch)
		segCause := cause
		if n >= per {
			n = per
			if cause != SegCleaner {
				segCause = SegFull
			}
		}
		fs.emitSegment(batch[:n], segCause)
		batch = batch[n:]
	}
}

// emitSegment writes one segment of the given blocks with one disk access.
func (fs *FS) emitSegment(blocks []blockID, cause SegCause) {
	seg := fs.allocSegment()
	fs.seq++
	fs.segLog[seg] = &segRecord{seq: fs.seq, blocks: append([]blockID(nil), blocks...)}
	fs.segWritten[seg] = fs.now
	for _, id := range blocks {
		if old, had := fs.blocks.place(id, seg); had {
			fs.segLive[old]--
		}
	}
	fs.segLive[seg] += int32(len(blocks))
	data := int64(len(blocks)) * fs.cfg.BlockSize
	fs.disk.Write(data + fs.cfg.MetaBlockSize + fs.cfg.SummarySize)

	st := &fs.stats
	st.SegmentsWritten++
	st.FileDataBytes += data
	st.MetaBytes += fs.cfg.MetaBlockSize
	st.SummaryBytes += fs.cfg.SummarySize
	if cause == SegCleaner {
		st.CleanerSegments++
		st.CleanerBlocksCopied += int64(len(blocks))
		return
	}
	if len(blocks) >= fs.cfg.BlocksPerSegment() {
		st.FullSegments++
		return
	}
	st.PartialDataBytes += data
	switch cause {
	case SegFsync:
		st.PartialFsyncSegments++
		st.FsyncPartialBytes += data
	case SegAge:
		st.PartialAgeSegments++
	default:
		st.PartialOtherSegments++
	}
}

// allocSegment returns a free segment, running the cleaner when the free
// pool runs low.
func (fs *FS) allocSegment() int32 {
	if len(fs.free) <= fs.cfg.CleanLowWater && !fs.cleaning {
		fs.clean()
	}
	if len(fs.free) == 0 {
		panic(fmt.Sprintf("lfs %s: disk full (%d segments, all live)", fs.cfg.Name, fs.cfg.DiskSegments))
	}
	seg := fs.free[len(fs.free)-1]
	fs.free = fs.free[:len(fs.free)-1]
	return seg
}

// clean reclaims space: segments with the least live data are read, their
// live blocks compacted into new segments, and the sources freed.
func (fs *FS) clean() {
	fs.cleaning = true
	defer func() { fs.cleaning = false }()
	fs.stats.CleanerRuns++
	// Victims are chosen from the incrementally maintained live counts
	// alone; only then are their blocks collected. Membership is found per
	// run rather than kept per segment: retained per-segment lists cost
	// every volume heap for the life of the file system (see Checkpoint).
	victims := fs.pickVictims(fs.cfg.CleanHighWater - len(fs.free))
	mark := fs.segMark
	summaries := true
	for _, seg := range victims {
		fs.disk.Read(fs.cfg.SegmentSize)
		fs.stats.SegmentsCleaned++
		mark[seg] = true
		fs.segLive[seg] = 0
		fs.free = append(fs.free, seg)
		summaries = summaries && fs.segLog[seg] != nil
	}
	// Like Sprite's cleaner, read each victim's summary and keep the
	// blocks that still map to a victim. Checkpoint drops the summaries it
	// covers; if any victim's is gone, one pass over the block table finds
	// them. Each copied block is unplaced here and re-placed by the
	// copy-out.
	var copied []blockID
	if summaries {
		for _, victim := range victims {
			for _, id := range fs.segLog[victim].blocks {
				if seg, ok := fs.blocks.seg(id); ok && mark[seg] {
					copied = append(copied, id)
					fs.blocks.unplace(id)
				}
			}
		}
	} else {
		fs.blocks.each(func(id blockID, seg int32) {
			if mark[seg] {
				copied = append(copied, id)
			}
		})
		for _, id := range copied {
			fs.blocks.unplace(id)
		}
	}
	for _, seg := range victims {
		mark[seg] = false
	}
	sortBlockIDs(copied)
	if len(copied) > 0 {
		fs.writeSegments(copied, SegCleaner)
	}
}

// cbCand is a cost-benefit cleaner candidate.
type cbCand struct {
	seg   int32
	score float64 // higher = clean first
}

// pickVictims returns the first k segments that are not free in the
// cleaner policy's order: greedy by (live, seg), cost-benefit by
// (score descending, seg). Both orders are total, so the victims are
// exactly the first k of a full sort. The slice is fs.victims, valid
// until the next call.
func (fs *FS) pickVictims(k int) []int32 {
	if len(fs.segMark) != len(fs.segLive) {
		fs.segMark = make([]bool, len(fs.segLive))
	}
	if k <= 0 {
		return fs.victims[:0]
	}
	mark := fs.segMark
	for _, seg := range fs.free {
		mark[seg] = true
	}
	var victims []int32
	if fs.cfg.Cleaner == CleanCostBenefit {
		victims = fs.costBenefitVictims(k, mark)
	} else {
		victims = fs.greedyVictims(k, mark)
	}
	for _, seg := range fs.free {
		mark[seg] = false
	}
	fs.victims = victims
	return victims
}

// greedyVictims picks the k emptiest unmarked segments without comparing
// segments: a histogram of live counts gives the count L at which the
// k-th victim sits, a pass in segment order takes every segment below L
// and the first ones at L, and a stable sort by live count of those few
// puts them in (live, seg) order.
func (fs *FS) greedyVictims(k int, free []bool) []int32 {
	victims := fs.victims[:0]
	hist := fs.hist
	if n := fs.cfg.BlocksPerSegment() + 1; len(hist) != n {
		hist = make([]int32, n)
		fs.hist = hist
	}
	clear(hist)
	for seg, live := range fs.segLive {
		if !free[seg] {
			hist[live]++
		}
	}
	// threshold is L; below counts the candidates with fewer live blocks,
	// and atL is how many with exactly L the victims take. Past the last
	// count, atL exceeds the candidates left and every one is taken.
	threshold, below := 0, 0
	for ; threshold < len(hist)-1 && below+int(hist[threshold]) < k; threshold++ {
		below += int(hist[threshold])
	}
	atL := k - below
	for seg, live := range fs.segLive {
		switch {
		case free[seg] || int(live) > threshold:
		case int(live) < threshold:
			victims = append(victims, int32(seg))
		case atL > 0:
			victims = append(victims, int32(seg))
			atL--
		}
	}
	slices.SortStableFunc(victims, func(a, b int32) int { return cmp.Compare(fs.segLive[a], fs.segLive[b]) })
	return victims
}

// costBenefitVictims keeps the k best-scoring unmarked segments in order
// by bounded insertion. Segments arrive in increasing order, so a new
// candidate sorts before a kept one exactly when it scores higher.
func (fs *FS) costBenefitVictims(k int, free []bool) []int32 {
	best := fs.cbVictim[:0]
	perSeg := float64(fs.cfg.BlocksPerSegment())
	for seg, live := range fs.segLive {
		if free[seg] {
			continue
		}
		// benefit/cost = (1-u)*age / (1+u): free space gained times data
		// stability, over the cost of reading and rewriting.
		u := float64(live) / perSeg
		age := float64(fs.now - fs.segWritten[seg])
		c := cbCand{seg: int32(seg), score: (1 - u) * age / (1 + u)}
		if len(best) == k && !(c.score > best[k-1].score) {
			continue
		}
		// The first kept candidate scoring below c.
		lo, hi := 0, len(best)
		for lo < hi {
			if mid := int(uint(lo+hi) >> 1); best[mid].score >= c.score {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		best = slices.Insert(best, lo, c)[:min(len(best)+1, k)]
	}
	fs.cbVictim = best
	victims := fs.victims[:0]
	for _, c := range best {
		victims = append(victims, c.seg)
	}
	return victims
}

// FreeSegments returns the current free-segment count.
func (fs *FS) FreeSegments() int { return len(fs.free) }

// LiveBlocks returns the number of live blocks in the log.
func (fs *FS) LiveBlocks() int { return fs.blocks.live }

// PendingBlocks returns dirty plus buffered blocks not yet on disk.
func (fs *FS) PendingBlocks() int { return fs.pendingBlocks() }
