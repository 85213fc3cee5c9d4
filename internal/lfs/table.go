package lfs

import (
	"math/bits"

	"nvramfs/internal/blockmap"
)

// runBits sizes a run: runLen consecutive blocks of one file share one
// entry of the block table.
const (
	runBits = 6
	runLen  = 1 << runBits
)

// run is the state of one file's blocks runLen*k .. runLen*k+runLen-1:
// which have a segment and which are dirty, with each one's segment and
// first-dirty time. seg is non-nil exactly when segs is non-zero, and at
// exactly when dirty is; both come from the table's free lists.
type run struct {
	file  *fileState // the file's state, for its dirty count
	segs  uint64     // blocks with a segment
	dirty uint64     // dirty blocks
	seg   *[runLen]int32
	at    *[runLen]int64
}

// runTable holds every block's segment and dirty state, one entry per
// (file, run). Nearly every access walks consecutive blocks of one file
// (segment batches sorted by (file, index), a delete's index range, a
// victim's summary, a drain's equal-time entries), so one probe serves
// up to runLen blocks and a one-entry cache of the last run found turns
// most probes into a key compare. The cache points into the table, so
// every insertion or deletion resets it; an FS is driven by one goroutine,
// so the cache needs no lock.
type runTable struct {
	t       blockmap.Table[run]
	lastKey blockmap.Key
	last    *run
	live    int // blocks with a segment
	dirty   int // dirty blocks
	segFree []*[runLen]int32
	atFree  []*[runLen]int64
}

// runKey returns the table key of id's run and id's bit in it.
func runKey(id blockID) (blockmap.Key, uint64) {
	return blockmap.Key{File: id.File, Index: id.Index >> runBits}, 1 << (id.Index & (runLen - 1))
}

// find returns run k, or nil.
func (rt *runTable) find(k blockmap.Key) *run {
	if rt.last != nil && rt.lastKey == k {
		return rt.last
	}
	i := rt.t.Find(k)
	if i < 0 {
		return nil
	}
	rt.lastKey, rt.last = k, rt.t.At(i)
	return rt.last
}

// ref returns run k, inserting an empty one when absent.
func (rt *runTable) ref(k blockmap.Key) *run {
	if rt.last != nil && rt.lastKey == k {
		return rt.last
	}
	r, _ := rt.t.Ref(k)
	rt.lastKey, rt.last = k, r
	return r
}

// release returns r's chunks whose masks are empty to the free lists and
// deletes r, which is run k, once it holds nothing.
func (rt *runTable) release(k blockmap.Key, r *run) {
	if r.segs == 0 && r.seg != nil {
		rt.segFree = append(rt.segFree, r.seg)
		r.seg = nil
	}
	if r.dirty == 0 && r.at != nil {
		rt.atFree = append(rt.atFree, r.at)
		r.at = nil
	}
	if r.segs == 0 && r.dirty == 0 {
		rt.t.Del(k)
		rt.last = nil
	}
}

// seg returns id's segment and whether it has one.
func (rt *runTable) seg(id blockID) (int32, bool) {
	k, bit := runKey(id)
	if r := rt.find(k); r != nil && r.segs&bit != 0 {
		return r.seg[id.Index&(runLen-1)], true
	}
	return 0, false
}

// place maps id to seg, returning its previous segment, if any.
func (rt *runTable) place(id blockID, seg int32) (old int32, had bool) {
	k, bit := runKey(id)
	r := rt.ref(k)
	i := id.Index & (runLen - 1)
	if r.segs&bit != 0 {
		old, had = r.seg[i], true
	} else {
		if r.segs == 0 {
			r.seg = takeChunk(&rt.segFree)
		}
		r.segs |= bit
		rt.live++
	}
	r.seg[i] = seg
	return old, had
}

// unplace removes id's segment, returning it.
func (rt *runTable) unplace(id blockID) (int32, bool) {
	k, bit := runKey(id)
	r := rt.find(k)
	if r == nil || r.segs&bit == 0 {
		return 0, false
	}
	seg := r.seg[id.Index&(runLen-1)]
	r.segs &^= bit
	rt.live--
	rt.release(k, r)
	return seg, true
}

// markDirty makes id dirty since at, counting it in f, and reports false
// when it already was (its first-dirty time stays).
func (rt *runTable) markDirty(id blockID, at int64, f *fileState) bool {
	k, bit := runKey(id)
	r := rt.ref(k)
	if r.dirty&bit != 0 {
		return false
	}
	if r.dirty == 0 {
		r.at = takeChunk(&rt.atFree)
	}
	r.dirty |= bit
	r.at[id.Index&(runLen-1)] = at
	r.file = f
	f.dirty++
	rt.dirty++
	return true
}

// dirtyAt returns id's first-dirty time and whether it is dirty.
func (rt *runTable) dirtyAt(id blockID) (int64, bool) {
	k, bit := runKey(id)
	if r := rt.find(k); r != nil && r.dirty&bit != 0 {
		return r.at[id.Index&(runLen-1)], true
	}
	return 0, false
}

// undirty clears id's dirty bit, reporting whether it was set.
func (rt *runTable) undirty(id blockID) bool {
	k, bit := runKey(id)
	r := rt.find(k)
	if r == nil || r.dirty&bit == 0 {
		return false
	}
	r.dirty &^= bit
	r.file.dirty--
	rt.dirty--
	rt.release(k, r)
	return true
}

// dropFile removes every block of file, all of which lie below extent,
// calling unplaced with each removed block's segment, and returns how many
// were dirty. It probes each run below the extent when there are no more
// of those than runs in the table, else finds the file's runs in one pass
// over it: trace offsets are arbitrary, and one block written at offset
// 1<<42 gives its file an extent of 2^30 blocks.
func (rt *runTable) dropFile(file uint64, extent int64, unplaced func(seg int32)) (dirty int) {
	drop := func(k blockmap.Key) {
		r := rt.find(k)
		if r == nil {
			return
		}
		for m := r.segs; m != 0; m &= m - 1 {
			unplaced(r.seg[bits.TrailingZeros64(m)])
		}
		n := bits.OnesCount64(r.dirty)
		if n > 0 {
			r.file.dirty -= n
		}
		rt.live -= bits.OnesCount64(r.segs)
		rt.dirty -= n
		dirty += n
		r.segs, r.dirty = 0, 0
		rt.release(k, r)
	}
	if runs := (extent + runLen - 1) >> runBits; runs <= int64(rt.t.Len()) {
		for i := int64(0); i < runs; i++ {
			drop(blockmap.Key{File: file, Index: i})
		}
		return dirty
	}
	var keys []blockmap.Key
	rt.t.Each(func(k blockmap.Key, _ run) {
		if k.File == file {
			keys = append(keys, k)
		}
	})
	for _, k := range keys {
		drop(k)
	}
	return dirty
}

// each calls fn for every block with a segment, in slot order. fn must not
// modify the table.
func (rt *runTable) each(fn func(id blockID, seg int32)) {
	rt.t.Each(func(k blockmap.Key, r run) {
		for m := r.segs; m != 0; m &= m - 1 {
			i := bits.TrailingZeros64(m)
			fn(blockID{File: k.File, Index: k.Index<<runBits | int64(i)}, r.seg[i])
		}
	})
}

// eachDirty calls fn for every dirty block, in slot order. fn must not
// modify the table.
func (rt *runTable) eachDirty(fn func(id blockID, at int64)) {
	rt.t.Each(func(k blockmap.Key, r run) {
		for m := r.dirty; m != 0; m &= m - 1 {
			i := bits.TrailingZeros64(m)
			fn(blockID{File: k.File, Index: k.Index<<runBits | int64(i)}, r.at[i])
		}
	})
}

// takeChunk pops a chunk off a free list, or allocates one. Its contents
// are stale: the masks say which entries are set.
func takeChunk[T any](free *[]*T) *T {
	if n := len(*free); n > 0 {
		c := (*free)[n-1]
		*free = (*free)[:n-1]
		return c
	}
	return new(T)
}
