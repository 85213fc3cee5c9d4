// Package cache implements the client file-cache models of the paper's
// Section 2: the baseline volatile cache with Sprite's 30-second delayed
// write-back, and the two NVRAM organizations — write-aside (NVRAM shadows
// the dirty data held in the volatile cache) and unified (dirty blocks live
// only in NVRAM, clean blocks in either memory) — together with the LRU,
// random, and omniscient block replacement policies.
//
// Caches are block-structured (4 KB in Sprite) but account for traffic at
// byte granularity: each block tracks which byte ranges are valid and which
// are dirty, and dirty bytes carry their write times so the simulator can
// attribute absorption (bytes overwritten or deleted before reaching the
// server) and write-back traffic precisely.
package cache

import (
	"fmt"

	"nvramfs/internal/interval"
)

// DefaultBlockSize is Sprite's cache block size.
const DefaultBlockSize = 4096

// BlockID identifies a cache block: a file and a block index within it.
type BlockID struct {
	File  uint64
	Index int64
}

func (id BlockID) String() string { return fmt.Sprintf("f%d/b%d", id.File, id.Index) }

// Block is one cached file block. Valid records which byte ranges of the
// block's extent hold data (file-absolute offsets); Dirty records the
// unwritten-back subset, tagged with write times. Dirty is always a subset
// of Valid.
//
// A block is owned by at most one Pool at a time; the intrusive link and
// index fields below belong to that pool's structures (the per-file chain
// and the replacement policy), so steady-state pool operations touch no
// auxiliary heap nodes.
type Block struct {
	ID    BlockID
	Valid interval.Set
	Dirty interval.TagMap
	// LastAccess is the time of the last read or write touching the block.
	LastAccess int64
	// LastModify is the time of the last write touching the block.
	LastModify int64
	// FirstDirty is the tag of the oldest dirty byte since the block last
	// became dirty, or -1 while clean. The volatile model's block cleaner
	// keys on it.
	FirstDirty int64

	// lruPrev/lruNext are the LRU policy's intrusive list links (non-nil
	// exactly while the block is tracked by an lruPolicy).
	lruPrev, lruNext *Block
	// filePrev/fileNext chain the pool's blocks of one file in ascending
	// index order (the incrementally-maintained replacement for the old
	// sorted byFile index).
	filePrev, fileNext *Block
	// polIdx is the block's slot in a slice-backed policy (random's member
	// array, omniscient's heap); -1 while untracked.
	polIdx int
	// nextMod is the omniscient policy's heap key: the block's next modify
	// time as of its last insert/modify.
	nextMod int64
	// schedTimes/schedPos cache the omniscient policy's cursor into this
	// block's modification schedule (a read-only slice owned by the shared
	// Schedule): simulation time only moves forward, so after one lookup
	// and binary search per tenancy the cursor advances linearly instead
	// of re-probing the schedule on every write. schedOK distinguishes
	// "not fetched yet" from "fetched, never modified" (both nil slices).
	schedTimes []int64
	schedPos   int
	schedOK    bool
}

func newBlock(id BlockID, now int64) *Block {
	return &Block{ID: id, LastAccess: now, FirstDirty: -1, polIdx: -1}
}

// BlockArena recycles evicted blocks within a simulation run and across a
// workspace's grid cells, so the steady-state insert/evict churn of a full
// cache performs no heap allocation. An arena is not safe for concurrent
// use; concurrent grid cells each take their own (see the report package's
// arena pool).
type BlockArena struct {
	free []*Block
}

// NewBlockArena returns an empty arena.
func NewBlockArena() *BlockArena { return &BlockArena{} }

// Get returns a reset block, recycling a freed one when available. A nil
// arena degrades to plain allocation.
func (a *BlockArena) Get(id BlockID, now int64) *Block {
	if a == nil || len(a.free) == 0 {
		return newBlock(id, now)
	}
	b := a.free[len(a.free)-1]
	a.free = a.free[:len(a.free)-1]
	b.ID = id
	b.LastAccess = now
	return b
}

// Put recycles a block that has left its pool for good. The block must
// already be unlinked (Pool.Remove does this); its Valid/Dirty buffers keep
// their capacity for the next tenant. A nil arena drops the block.
func (a *BlockArena) Put(b *Block) {
	if a == nil || b == nil {
		return
	}
	b.Valid.Clear()
	b.Dirty.Clear()
	b.LastAccess, b.LastModify = 0, 0
	b.FirstDirty = -1
	b.lruPrev, b.lruNext = nil, nil
	b.filePrev, b.fileNext = nil, nil
	b.polIdx = -1
	b.nextMod = 0
	b.schedTimes, b.schedPos, b.schedOK = nil, 0, false
	a.free = append(a.free, b)
}

// Len reports the number of blocks currently free in the arena.
func (a *BlockArena) Len() int {
	if a == nil {
		return 0
	}
	return len(a.free)
}

// clone returns a copy of b with its own byte sets and no pool links; the
// forking pool and policy link the copy. polIdx is kept: a forked policy
// keeps each block in the same slot.
func (b *Block) clone() *Block {
	c := *b
	c.Valid = *b.Valid.Clone()
	c.Dirty = *b.Dirty.Clone()
	c.lruPrev, c.lruNext = nil, nil
	c.filePrev, c.fileNext = nil, nil
	return &c
}

// IsDirty reports whether the block holds any unwritten-back bytes.
func (b *Block) IsDirty() bool { return b.Dirty.Len() > 0 }

// markClean clears the dirty state after the block's bytes reached the
// server (they stay valid).
func (b *Block) markClean() {
	b.Dirty.Clear()
	b.FirstDirty = -1
}

// blockSpan calls fn for every block overlapped by r, passing the block
// index and the sub-range of r falling inside that block.
func blockSpan(r interval.Range, blockSize int64, fn func(index int64, sub interval.Range)) {
	if r.Empty() {
		return
	}
	for idx := r.Start / blockSize; idx*blockSize < r.End; idx++ {
		sub := r.Intersect(interval.Range{Start: idx * blockSize, End: (idx + 1) * blockSize})
		if !sub.Empty() {
			fn(idx, sub)
		}
	}
}

// blockRange returns the file-absolute extent of block idx, unclipped.
func blockRange(idx, blockSize int64) interval.Range {
	return interval.Range{Start: idx * blockSize, End: (idx + 1) * blockSize}
}

// blockExtent returns the file-absolute extent of block idx clipped to the
// file size (blocks never extend past end of file).
func blockExtent(idx, blockSize, fileSize int64) interval.Range {
	r := interval.Range{Start: idx * blockSize, End: (idx + 1) * blockSize}
	if r.End > fileSize {
		r.End = fileSize
	}
	return r
}

// segsLen sums the lengths of tagged segments.
func segsLen(segs []interval.Seg) int64 {
	var n int64
	for _, g := range segs {
		n += g.Len()
	}
	return n
}
