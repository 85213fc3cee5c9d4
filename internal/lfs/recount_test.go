package lfs

import (
	"fmt"
	"math/bits"
	"slices"

	"nvramfs/internal/blockmap"
)

// checkRecount recounts the file system's incrementally kept state and
// checks each invariant the hot paths rely on:
//   - segLive and the live-block count against a recount of the block
//     table (checkConsistent);
//   - the run table's shape and each file's dirty count (checkRuns), and
//     no block both dirty and buffered;
//   - a queued age entry holding every dirty block's (time, block), and
//     the queue sorted from its head;
//   - the free list and the used segments partitioning the disk: free
//     segments are distinct, on the disk, and hold no live block;
//   - every segment logged after log position since listing each block
//     once: a block taken twice by one drain is written twice.
func checkRecount(fs *FS, since int64) error {
	if err := fs.checkConsistent(); err != nil {
		return err
	}
	if err := checkRuns(&fs.blocks, fs.files); err != nil {
		return err
	}
	var bad error
	a := &fs.ages
	if a.head < 0 || a.head > len(a.q) || (a.head > 0 && a.head == len(a.q)) {
		return fmt.Errorf("age queue head %d of %d entries", a.head, len(a.q))
	}
	queued := make(map[ageEntry]bool, len(a.q)-a.head)
	for i := a.head; i < len(a.q); i++ {
		if i > a.head && compareAgeEntries(a.q[i], a.q[i-1]) < 0 {
			return fmt.Errorf("age queue entry %d %+v sorts before its predecessor %+v", i, a.q[i], a.q[i-1])
		}
		queued[a.q[i]] = true
	}
	fs.blocks.eachDirty(func(id blockID, at int64) {
		if bad == nil && !queued[ageEntry{at: at, id: id}] {
			bad = fmt.Errorf("dirty block %v (first dirty at %d) has no queued age entry", id, at)
		}
		if bad == nil && fs.buffered.Has(id) {
			bad = fmt.Errorf("block %v is both dirty and buffered", id)
		}
	})
	if bad != nil {
		return bad
	}

	isFree := make([]bool, fs.cfg.DiskSegments)
	for _, seg := range fs.free {
		switch {
		case seg < 0 || int(seg) >= len(isFree):
			return fmt.Errorf("free segment %d is off the disk", seg)
		case isFree[seg]:
			return fmt.Errorf("segment %d is on the free list twice", seg)
		case fs.segLive[seg] != 0:
			return fmt.Errorf("free segment %d holds %d live blocks", seg, fs.segLive[seg])
		}
		isFree[seg] = true
	}
	for seg, r := range fs.segLog {
		if r.seq <= since {
			continue
		}
		ids := slices.Clone(r.blocks)
		sortBlockIDs(ids)
		for i := 1; i < len(ids); i++ {
			if ids[i] == ids[i-1] {
				return fmt.Errorf("segment %d (log position %d) holds block %v twice", seg, r.seq, ids[i])
			}
		}
	}
	return nil
}

// checkRuns checks the run table's shape against its counts: no empty
// run, a segment chunk exactly when a run has segments, a time chunk
// exactly when it has dirty blocks, a dirty run pointing at its file's
// state in files, a last-run cache that points at its key's slot, and the
// live, dirty and per-file dirty counts against a recount of the masks.
func checkRuns(rt *runTable, files map[uint64]*fileState) error {
	if rt.last != nil {
		if i := rt.t.Find(rt.lastKey); i < 0 || rt.t.At(i) != rt.last {
			return fmt.Errorf("last-run cache for %v points at no slot of it", rt.lastKey)
		}
	}
	var bad error
	dirtyPerFile := make(map[uint64]int)
	live, dirty := 0, 0
	rt.t.Each(func(k blockmap.Key, r run) {
		switch {
		case bad != nil:
		case r.segs == 0 && r.dirty == 0:
			bad = fmt.Errorf("run %v is empty", k)
		case (r.segs != 0) != (r.seg != nil):
			bad = fmt.Errorf("run %v: segment mask %#x with chunk %p", k, r.segs, r.seg)
		case (r.dirty != 0) != (r.at != nil):
			bad = fmt.Errorf("run %v: dirty mask %#x with chunk %p", k, r.dirty, r.at)
		case r.dirty != 0 && r.file != files[k.File]:
			bad = fmt.Errorf("run %v: dirty blocks point at a state that is not file %d's", k, k.File)
		}
		n := bits.OnesCount64(r.dirty)
		dirtyPerFile[k.File] += n
		dirty += n
		live += bits.OnesCount64(r.segs)
	})
	switch {
	case bad != nil:
		return bad
	case live != rt.live:
		return fmt.Errorf("live count %d, recounted %d", rt.live, live)
	case dirty != rt.dirty:
		return fmt.Errorf("dirty count %d, recounted %d", rt.dirty, dirty)
	}
	for file, f := range files {
		if f.dirty != dirtyPerFile[file] {
			return fmt.Errorf("file %d dirty count %d, recounted %d", file, f.dirty, dirtyPerFile[file])
		}
	}
	return nil
}
