// Package server models a Sprite file server: a large main-memory block
// cache (128 MB on Sprite's main server) in front of a log-structured file
// system, with an optional battery-backed partition.
//
// The paper's Section 3 opens by noting that "servers can also use NVRAM
// file caches to absorb write traffic, producing reductions in the
// server-disk traffic similar to those in the client-server traffic",
// before focusing on the write-buffer organization. This package lets both
// be measured: dirty blocks held in the volatile region obey the 30-second
// write-back into the LFS (whose fsync and age flushes force partial
// segments), while dirty blocks held in a server NVRAM region are already
// permanent — fsync completes immediately, and the data flows to the LFS
// only when a full segment's worth accumulates or the region fills.
package server

import (
	"container/list"
	"fmt"
	"slices"

	"nvramfs/internal/blockmap"
	"nvramfs/internal/disk"
	"nvramfs/internal/heapq"
	"nvramfs/internal/lfs"
)

// Config parameterizes the server.
type Config struct {
	// CacheBlocks is the volatile cache capacity in blocks.
	CacheBlocks int
	// NVRAMBlocks is the battery-backed region capacity in blocks
	// (0 disables it).
	NVRAMBlocks int
	// BlockSize defaults to 4 KB.
	BlockSize int64
	// WriteBackDelay is the volatile dirty-data age limit; default 30 s.
	WriteBackDelay int64
	// FS configures the underlying log-structured file system.
	FS lfs.Config
}

func (c *Config) fillDefaults() {
	if c.BlockSize <= 0 {
		c.BlockSize = 4 << 10
	}
	if c.WriteBackDelay <= 0 {
		c.WriteBackDelay = 30 * 1e6
	}
	if c.CacheBlocks <= 0 {
		c.CacheBlocks = (128 << 20) / int(c.BlockSize) // Sprite's 128 MB
	}
}

// Stats accumulates server-level counters (the LFS keeps its own).
type Stats struct {
	ReadBytes      int64 // bytes requested by clients
	ReadHitBytes   int64 // served from the cache
	DiskReadBytes  int64 // block fetches from the file system
	WriteBytes     int64 // bytes written by clients
	AbsorbedBlocks int64 // dirty blocks that died in the server cache
	FsyncsAbsorbed int64 // fsyncs satisfied by the NVRAM region
	FsyncsForced   int64 // fsyncs that had to reach the disk
	NVRAMBlocksIn  int64 // dirty blocks placed in the NVRAM region
}

// entry is one cached block.
type entry struct {
	id         blockmap.Key
	dirty      bool
	inNVRAM    bool
	nvAt       int // position in Server.nv while inNVRAM
	firstDirty int64
	file       *fileBlocks   // the file's entries, this one among them
	lru        *list.Element // position in the LRU list (front = MRU)
}

// fileBlocks is one file's cached entries.
type fileBlocks struct {
	blocks   map[int64]*entry
	volDirty int // dirty entries outside the NVRAM region
}

// Server is the simulated file server.
type Server struct {
	cfg Config
	fs  *lfs.FS
	d   *disk.Disk
	now int64

	// files holds the cached entries by file and index, so Fsync and
	// Delete visit only the file's blocks, and Fsync none of them when
	// the file has no volatile dirty block.
	files  map[uint64]*fileBlocks
	lru    *list.List // of every cached *entry; front = most recently used
	nv     []*entry   // the dirty entries in the NVRAM region, unordered
	nDirty int
	ageHp  heapq.Heap[srvAgeEntry, srvAgeOrder]

	stats Stats
}

// New builds a server over a fresh LFS on the given disk.
//
// In Sprite the server cache and the LFS staging buffer are the same
// memory: the 30-second write-back from the server's cache is what hands
// data to LFS segment assembly. The Server owns that 30-second clock, so
// the inner file system's own age flush is set to expire immediately —
// data the server pushes down goes to disk at the file system's next
// 5-second flusher tick, not after a second 30-second wait.
func New(cfg Config, d *disk.Disk) *Server {
	cfg.fillDefaults()
	if cfg.FS.AgeFlush <= 0 {
		cfg.FS.AgeFlush = 1 // microsecond: due at the next flusher tick
	}
	return &Server{
		cfg:   cfg,
		fs:    lfs.New(cfg.FS, d),
		d:     d,
		files: make(map[uint64]*fileBlocks),
		lru:   list.New(),
	}
}

// FS exposes the underlying file system (for its segment statistics).
func (s *Server) FS() *lfs.FS { return s.fs }

// Disk exposes the shared disk.
func (s *Server) Disk() *disk.Disk { return s.d }

// Stats returns the server-level counters.
func (s *Server) Stats() *Stats { return &s.stats }

// srvAgeEntry is a volatile dirty block on the age heap, which orders them
// by first-dirty time.
type srvAgeEntry struct {
	at int64
	id blockmap.Key
}

type srvAgeOrder struct{}

func (srvAgeOrder) Less(a, b srvAgeEntry) bool { return a.at < b.at }
func (srvAgeOrder) Moved(srvAgeEntry, int)     {}

// Advance flushes volatile dirty blocks older than the write-back delay
// into the file system (where they become LFS dirty data subject to its
// own segment assembly).
func (s *Server) Advance(now int64) {
	for len(s.ageHp) > 0 && s.ageHp[0].at+s.cfg.WriteBackDelay <= now {
		e := s.ageHp.Pop()
		b := s.lookup(e.id)
		if b == nil || !b.dirty || b.inNVRAM || b.firstDirty != e.at {
			continue
		}
		s.flushBlock(e.at+s.cfg.WriteBackDelay, b)
	}
	s.now = now
	s.fs.Advance(now)
}

// flushBlock writes one dirty block into the file system and marks it
// clean (it stays cached).
func (s *Server) flushBlock(now int64, b *entry) {
	s.fs.Write(now, b.id.File, b.id.Index*s.cfg.BlockSize, s.cfg.BlockSize)
	s.clean(b)
}

// clean marks the dirty block b clean, taking it out of the NVRAM region
// or out of its file's volatile dirty count.
func (s *Server) clean(b *entry) {
	if b.inNVRAM {
		last := s.nv[len(s.nv)-1]
		s.nv[b.nvAt], last.nvAt = last, b.nvAt
		s.nv = s.nv[:len(s.nv)-1]
		b.inNVRAM = false
	} else {
		b.file.volDirty--
	}
	b.dirty = false
	s.nDirty--
}

// capacity returns the total block capacity.
func (s *Server) capacity() int { return s.cfg.CacheBlocks + s.cfg.NVRAMBlocks }

// evictOne removes the least-recently-used block, flushing it first when
// dirty.
func (s *Server) evictOne(now int64) {
	e := s.lru.Back()
	if e == nil {
		return
	}
	victim := e.Value.(*entry)
	if victim.dirty {
		s.flushBlock(now, victim)
	}
	s.drop(victim)
}

// lookup returns the cached entry for id, or nil.
func (s *Server) lookup(id blockmap.Key) *entry {
	if fb := s.files[id.File]; fb != nil {
		return fb.blocks[id.Index]
	}
	return nil
}

// drop removes the clean block b from the cache.
func (s *Server) drop(b *entry) {
	s.lru.Remove(b.lru)
	delete(b.file.blocks, b.id.Index)
	if len(b.file.blocks) == 0 {
		delete(s.files, b.id.File)
	}
}

// ensure returns the cached entry (promoted to MRU), creating and
// evicting as needed.
func (s *Server) ensure(now int64, id blockmap.Key) *entry {
	if b := s.lookup(id); b != nil {
		s.lru.MoveToFront(b.lru)
		return b
	}
	if s.lru.Len() >= s.capacity() {
		s.evictOne(now)
	}
	fb := s.files[id.File]
	if fb == nil {
		fb = &fileBlocks{blocks: make(map[int64]*entry)}
		s.files[id.File] = fb
	}
	b := &entry{id: id, file: fb}
	b.lru = s.lru.PushFront(b)
	fb.blocks[id.Index] = b
	return b
}

// Write stores client write-back traffic into the server cache. Dirty
// blocks prefer the NVRAM region while it has room.
func (s *Server) Write(now int64, file uint64, off, n int64) {
	s.Advance(now)
	s.stats.WriteBytes += n
	for idx := off / s.cfg.BlockSize; idx*s.cfg.BlockSize < off+n; idx++ {
		id := blockmap.Key{File: file, Index: idx}
		b := s.ensure(now, id)
		if b.dirty {
			// Overwritten before reaching the disk: absorbed. The age
			// clock keeps running from the block's first dirtying, as
			// Sprite's cleaner measures it.
			s.stats.AbsorbedBlocks++
			continue
		}
		b.dirty = true
		s.nDirty++
		if len(s.nv) < s.cfg.NVRAMBlocks {
			// Permanent immediately; exempt from the age flush.
			b.inNVRAM = true
			b.nvAt = len(s.nv)
			s.nv = append(s.nv, b)
			s.stats.NVRAMBlocksIn++
		} else {
			b.file.volDirty++
			b.firstDirty = now
			s.ageHp.Push(srvAgeEntry{at: now, id: id})
		}
	}
	s.drainNVRAMIfSegmentReady(now)
}

// selectBlocks returns the cached entries of the given files matching
// keep, in sortBlocks order.
func selectBlocks(keep func(*entry) bool, files ...*fileBlocks) []*entry {
	var picked []*entry
	for _, fb := range files {
		for _, b := range fb.blocks {
			if keep(b) {
				picked = append(picked, b)
			}
		}
	}
	return sortBlocks(picked)
}

// sortBlocks sorts blocks by (file, index). Map iteration order is
// randomized per range, but the order blocks enter the file system decides
// segment layout and so disk access counts; every bulk walk that hands
// blocks to the file system goes through here so a replay is
// deterministic run to run.
func sortBlocks(blocks []*entry) []*entry {
	slices.SortFunc(blocks, func(a, b *entry) int { return blockmap.Compare(a.id, b.id) })
	return blocks
}

// allFiles returns every file's cached entries.
func (s *Server) allFiles() []*fileBlocks {
	all := make([]*fileBlocks, 0, len(s.files))
	for _, fb := range s.files {
		all = append(all, fb)
	}
	return all
}

// drainNVRAMIfSegmentReady moves NVRAM-resident dirty blocks into the file
// system once a full segment's worth has accumulated, so they reach the
// disk at full-segment efficiency. It sorts only the region's entries.
func (s *Server) drainNVRAMIfSegmentReady(now int64) {
	per := s.fs.Config().BlocksPerSegment()
	for len(s.nv) >= per {
		for _, b := range sortBlocks(slices.Clone(s.nv))[:per] {
			s.flushBlock(now, b)
		}
	}
}

// Read serves a client cache miss: a hit costs nothing, a miss reads the
// block from the file system's disk.
func (s *Server) Read(now int64, file uint64, off, n int64) {
	s.Advance(now)
	s.stats.ReadBytes += n
	for idx := off / s.cfg.BlockSize; idx*s.cfg.BlockSize < off+n; idx++ {
		id := blockmap.Key{File: file, Index: idx}
		if b := s.lookup(id); b != nil {
			s.lru.MoveToFront(b.lru)
			s.stats.ReadHitBytes += s.cfg.BlockSize
			continue
		}
		s.stats.DiskReadBytes += s.cfg.BlockSize
		s.d.Read(s.cfg.BlockSize)
		s.ensure(now, id)
	}
}

// Fsync makes a file durable. With a server NVRAM region holding all of
// the file's dirty blocks, the fsync completes without touching the disk;
// otherwise the volatile dirty blocks are pushed into the file system and
// the file system is fsync'd (forcing a partial segment, as Section 3
// measures).
func (s *Server) Fsync(now int64, file uint64) {
	s.Advance(now)
	fb := s.files[file]
	if fb != nil && fb.volDirty > 0 {
		for _, b := range selectBlocks(func(b *entry) bool {
			// NVRAM-resident blocks are already permanent.
			return b.dirty && !b.inNVRAM
		}, fb) {
			s.flushBlock(now, b)
		}
		s.stats.FsyncsForced++
		s.fs.Fsync(now, file)
	} else {
		s.stats.FsyncsAbsorbed++
	}
}

// Delete removes a file: cached dirty blocks die, and the file system
// reclaims its on-disk blocks. Nothing here reaches the file system block
// by block, so the walk needs no order.
func (s *Server) Delete(now int64, file uint64) {
	s.Advance(now)
	if fb := s.files[file]; fb != nil {
		for _, b := range fb.blocks {
			if b.dirty {
				s.stats.AbsorbedBlocks++
				s.clean(b)
			}
			s.drop(b)
		}
	}
	s.fs.Delete(now, file)
}

// Shutdown flushes everything to disk.
func (s *Server) Shutdown(now int64) {
	s.Advance(now)
	for _, b := range selectBlocks(func(b *entry) bool { return b.dirty }, s.allFiles()...) {
		s.flushBlock(now, b)
	}
	s.fs.Shutdown(now)
}

// DirtyBlocks returns currently dirty cached blocks (for tests).
func (s *Server) DirtyBlocks() int { return s.nDirty }

// NVRAMBlocksHeld returns dirty blocks currently in the NVRAM region.
func (s *Server) NVRAMBlocksHeld() int { return len(s.nv) }

func (s *Server) String() string {
	return fmt.Sprintf("server{cache %d/%d blocks, %d dirty, %d in NVRAM}",
		s.lru.Len(), s.capacity(), s.nDirty, len(s.nv))
}
