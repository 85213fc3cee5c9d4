package lfs

import (
	"maps"
	"slices"
	"testing"
)

// FuzzRunsMatchMap decodes its input into run-table operations (segment
// place, lookup and removal; marking dirty; clearing dirty with and
// without a first-dirty time match; dropping a file; and
// both enumerations) over keys that straddle a run boundary, indexes
// 60-70 of two files, plus one far index, 1<<40. After every operation
// the table must match two Go maps (block to segment, block to
// first-dirty time) in every lookup, in its live, dirty and per-file
// dirty counts, and in both enumerations, and keep its shape (checkRuns).
func FuzzRunsMatchMap(f *testing.F) {
	f.Add([]byte{0, 0, 1, 0, 3, 2, 3, 4, 5, 1, 0, 9, 2, 3, 0, 6, 0, 66})
	f.Add([]byte{3, 1, 7, 3, 2, 7, 4, 1, 7, 4, 2, 8, 5, 2, 0, 7, 0, 0})
	f.Add([]byte{0, 11, 4, 0, 23, 5, 3, 11, 1, 6, 0, 200, 7, 0, 0, 0, 12, 4, 6, 1, 64})
	f.Fuzz(func(t *testing.T, ops []byte) {
		var rt runTable
		files := map[uint64]*fileState{1: {}, 2: {}}
		segs := make(map[blockID]int32)
		dirty := make(map[blockID]int64)
		key := func(b byte) blockID {
			b %= 24
			id := blockID{File: 1 + uint64(b/12), Index: 60 + int64(b%12)}
			if b%12 == 11 {
				id.Index = 1 << 40
			}
			return id
		}
		for step := 0; step+2 < len(ops); step += 3 {
			id, v := key(ops[step+1]), ops[step+2]
			wantSeg, placed := segs[id]
			wantAt, isDirty := dirty[id]
			switch ops[step] % 8 {
			case 0: // place
				if old, had := rt.place(id, int32(v)); had != placed || old != wantSeg {
					t.Fatalf("step %d: place(%v) = %d, %v; want %d, %v", step, id, old, had, wantSeg, placed)
				}
				segs[id] = int32(v)
			case 1: // seg
				if seg, ok := rt.seg(id); ok != placed || seg != wantSeg {
					t.Fatalf("step %d: seg(%v) = %d, %v; want %d, %v", step, id, seg, ok, wantSeg, placed)
				}
			case 2: // unplace
				if seg, ok := rt.unplace(id); ok != placed || seg != wantSeg {
					t.Fatalf("step %d: unplace(%v) = %d, %v; want %d, %v", step, id, seg, ok, wantSeg, placed)
				}
				delete(segs, id)
			case 3: // markDirty
				if rt.markDirty(id, int64(v), files[id.File]) == isDirty {
					t.Fatalf("step %d: markDirty(%v) on a block dirty=%v", step, id, isDirty)
				}
				if !isDirty {
					dirty[id] = int64(v)
				}
			case 4: // undirty on a first-dirty time match, as the drain does
				fs := &FS{blocks: rt}
				live := fs.takeLive(ageEntry{at: int64(v), id: id})
				rt = fs.blocks
				if want := isDirty && wantAt == int64(v); live != want {
					t.Fatalf("step %d: takeLive(%v at %d) = %v; dirty %v at %d", step, id, v, live, isDirty, wantAt)
				}
				if live {
					delete(dirty, id)
				}
			case 5: // undirty regardless of time
				if at, ok := rt.dirtyAt(id); ok != isDirty || at != wantAt {
					t.Fatalf("step %d: dirtyAt(%v) = %d, %v; want %d, %v", step, id, at, ok, wantAt, isDirty)
				}
				if rt.undirty(id) != isDirty {
					t.Fatalf("step %d: undirty(%v) on a block dirty=%v", step, id, isDirty)
				}
				delete(dirty, id)
			case 6: // dropFile, with an extent past the file's last block
				file := id.File
				extent := int64(v)
				if v >= 128 {
					extent = 1 << 41
				}
				for b := range segs {
					if b.File == file {
						extent = max(extent, b.Index+1)
					}
				}
				for b := range dirty {
					if b.File == file {
						extent = max(extent, b.Index+1)
					}
				}
				var gotSegs, wantSegs []int32
				n := rt.dropFile(file, extent, func(seg int32) { gotSegs = append(gotSegs, seg) })
				wantN := 0
				for b, seg := range segs {
					if b.File == file {
						wantSegs = append(wantSegs, seg)
						delete(segs, b)
					}
				}
				for b := range dirty {
					if b.File == file {
						wantN++
						delete(dirty, b)
					}
				}
				slices.Sort(gotSegs)
				slices.Sort(wantSegs)
				if n != wantN || !slices.Equal(gotSegs, wantSegs) {
					t.Fatalf("step %d: dropFile(%d, %d) = %d dirty, segments %v; want %d, %v",
						step, file, extent, n, gotSegs, wantN, wantSegs)
				}
			case 7: // lookups only; the enumerations below run after every op
			}
			gotSegs := make(map[blockID]int32)
			rt.each(func(id blockID, seg int32) {
				if _, dup := gotSegs[id]; dup {
					t.Fatalf("step %d: each visited %v twice", step, id)
				}
				gotSegs[id] = seg
			})
			gotDirty := make(map[blockID]int64)
			rt.eachDirty(func(id blockID, at int64) {
				if _, dup := gotDirty[id]; dup {
					t.Fatalf("step %d: eachDirty visited %v twice", step, id)
				}
				gotDirty[id] = at
			})
			if !maps.Equal(gotSegs, segs) || !maps.Equal(gotDirty, dirty) {
				t.Fatalf("step %d: table holds segments %v, dirty %v; want %v, %v", step, gotSegs, gotDirty, segs, dirty)
			}
			for b, seg := range segs {
				if got, ok := rt.seg(b); !ok || got != seg {
					t.Fatalf("step %d: seg(%v) = %d, %v; want %d", step, b, got, ok, seg)
				}
			}
			for b, at := range dirty {
				if got, ok := rt.dirtyAt(b); !ok || got != at {
					t.Fatalf("step %d: dirtyAt(%v) = %d, %v; want %d", step, b, got, ok, at)
				}
			}
			if err := checkRuns(&rt, files); err != nil {
				t.Fatalf("step %d: %v", step, err)
			}
		}
	})
}
