package server

import (
	"math/rand"
	"testing"
	"time"

	"nvramfs/internal/disk"
	"nvramfs/internal/lfs"
	"nvramfs/internal/serverload"
)

const (
	sec = int64(1e6)
	kb  = int64(1 << 10)
)

func newServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	return New(cfg, disk.New(disk.DefaultParams()))
}

func TestWriteAbsorbedByOverwrite(t *testing.T) {
	s := newServer(t, Config{CacheBlocks: 64})
	s.Write(0, 1, 0, 4*kb)
	s.Write(5*sec, 1, 0, 4*kb)
	if s.Stats().AbsorbedBlocks != 1 {
		t.Fatalf("absorbed = %d", s.Stats().AbsorbedBlocks)
	}
	// The block's age clock runs from the first write: the server flushes
	// ~30s after t=0 (not after the overwrite), and the file system
	// writes the partial segment at its next 5-second flusher tick.
	s.Advance(36 * sec)
	if s.DirtyBlocks() != 0 {
		t.Fatal("dirty after age flush")
	}
	if s.FS().Stats().SegmentsWritten == 0 {
		t.Fatal("nothing reached the disk")
	}
}

func TestReadHitsAndMisses(t *testing.T) {
	s := newServer(t, Config{CacheBlocks: 64})
	s.Write(0, 1, 0, 8*kb)
	s.Read(1, 1, 0, 8*kb) // hits: just written
	st := s.Stats()
	if st.ReadHitBytes != 8*kb || st.DiskReadBytes != 0 {
		t.Fatalf("hit=%d disk=%d", st.ReadHitBytes, st.DiskReadBytes)
	}
	s.Read(2, 2, 0, 4*kb) // cold miss
	if st.DiskReadBytes != 4*kb {
		t.Fatalf("disk read = %d", st.DiskReadBytes)
	}
	if s.Disk().Reads != 1 {
		t.Fatalf("disk read accesses = %d", s.Disk().Reads)
	}
}

func TestFsyncForcedWithoutNVRAM(t *testing.T) {
	s := newServer(t, Config{CacheBlocks: 64})
	s.Write(0, 1, 0, 4*kb)
	s.Fsync(1, 1)
	st := s.Stats()
	if st.FsyncsForced != 1 || st.FsyncsAbsorbed != 0 {
		t.Fatalf("stats: %+v", st)
	}
	// The forced fsync produced a partial segment in the LFS.
	if s.FS().Stats().PartialFsyncSegments != 1 {
		t.Fatalf("lfs: %+v", s.FS().Stats())
	}
}

func TestFsyncAbsorbedByServerNVRAM(t *testing.T) {
	s := newServer(t, Config{CacheBlocks: 64, NVRAMBlocks: 64})
	s.Write(0, 1, 0, 4*kb)
	s.Fsync(1, 1)
	st := s.Stats()
	if st.FsyncsAbsorbed != 1 || st.FsyncsForced != 0 {
		t.Fatalf("stats: %+v", st)
	}
	if s.FS().Stats().SegmentsWritten != 0 {
		t.Fatal("NVRAM-held fsync still wrote a segment")
	}
	if s.NVRAMBlocksHeld() != 1 {
		t.Fatalf("nvram held = %d", s.NVRAMBlocksHeld())
	}
	// NVRAM-resident data is exempt from the 30-second flush.
	s.Advance(120 * sec)
	if s.FS().Stats().SegmentsWritten != 0 {
		t.Fatal("NVRAM data age-flushed")
	}
}

func TestNVRAMDrainsAtFullSegment(t *testing.T) {
	s := newServer(t, Config{CacheBlocks: 1024, NVRAMBlocks: 256})
	per := int64(s.FS().Config().BlocksPerSegment())
	s.Write(0, 1, 0, per*4*kb) // fills a segment's worth of NVRAM blocks
	fsStats := s.FS().Stats()
	if fsStats.FullSegments == 0 {
		t.Fatalf("no full segment after drain: %+v", fsStats)
	}
	if fsStats.PartialSegments() != 0 {
		t.Fatalf("partials from NVRAM drain: %+v", fsStats)
	}
}

func TestDeleteAbsorbsDirty(t *testing.T) {
	s := newServer(t, Config{CacheBlocks: 64})
	s.Write(0, 1, 0, 8*kb)
	s.Delete(1, 1)
	if s.Stats().AbsorbedBlocks != 2 {
		t.Fatalf("absorbed = %d", s.Stats().AbsorbedBlocks)
	}
	s.Advance(60 * sec)
	if s.FS().Stats().SegmentsWritten != 0 {
		t.Fatal("deleted data written")
	}
}

func TestEvictionFlushesDirty(t *testing.T) {
	s := newServer(t, Config{CacheBlocks: 2})
	s.Write(0, 1, 0, 4*kb)
	s.Write(1, 2, 0, 4*kb)
	s.Write(2, 3, 0, 4*kb) // evicts the oldest (dirty) block
	if s.DirtyBlocks() != 2 {
		t.Fatalf("dirty = %d", s.DirtyBlocks())
	}
	if s.FS().PendingBlocks()+s.FS().LiveBlocks() == 0 {
		t.Fatal("evicted dirty block vanished")
	}
}

func TestShutdownDrainsEverything(t *testing.T) {
	s := newServer(t, Config{CacheBlocks: 64, NVRAMBlocks: 16})
	s.Write(0, 1, 0, 16*kb)
	s.Write(1, 2, 0, 16*kb)
	s.Shutdown(10 * sec)
	if s.DirtyBlocks() != 0 || s.FS().PendingBlocks() != 0 {
		t.Fatal("data pending after shutdown")
	}
	if s.FS().LiveBlocks() != 8 {
		t.Fatalf("live = %d", s.FS().LiveBlocks())
	}
}

// TestServerNVRAMReducesDiskWrites reproduces the Section 3 remark:
// a server NVRAM cache absorbs write traffic, cutting server-disk writes,
// here on the fsync-heavy /user6 workload.
func TestServerNVRAMReducesDiskWrites(t *testing.T) {
	run := func(nvBlocks int) int64 {
		p, _ := serverload.ProfileByName("/user6")
		s := New(Config{CacheBlocks: 4096, NVRAMBlocks: nvBlocks}, disk.New(disk.DefaultParams()))
		driveProfile(p, s, 6*time.Hour)
		return s.Disk().Writes
	}
	plain := run(0)
	nv := run(256) // one megabyte of server NVRAM
	if nv >= plain {
		t.Fatalf("server NVRAM did not reduce disk writes: %d -> %d", plain, nv)
	}
	if reduction := 1 - float64(nv)/float64(plain); reduction < 0.5 {
		t.Errorf("reduction = %.2f on the fsync-heavy volume, expected large", reduction)
	}
}

// driveProfile adapts a serverload profile to the Server API (serverload
// drives a bare lfs.FS; here the server cache sits in front).
func driveProfile(p serverload.Profile, s *Server, d time.Duration) {
	serverload.RunAgainst(p, serverload.Target{
		Write:  s.Write,
		Fsync:  s.Fsync,
		Delete: s.Delete,
		Shutdown: func(now int64) {
			s.Shutdown(now)
		},
	}, d)
}

// TestCacheIndexConsistent checks after every op of a seeded mix that
// evicts, fsyncs, deletes and drains the NVRAM region that each cached
// entry sits under its own file and index, that the LRU list holds
// exactly the cached entries, and that the NVRAM set and each file's
// volatile dirty count match a recount of the entries.
func TestCacheIndexConsistent(t *testing.T) {
	s := newServer(t, Config{CacheBlocks: 16, NVRAMBlocks: 4, FS: lfs.Config{SegmentSize: 24 * kb}})
	if per := s.FS().Config().BlocksPerSegment(); per < 1 || per > 4 {
		t.Fatalf("%d blocks per segment: the NVRAM region never drains", per)
	}
	rng := rand.New(rand.NewSource(1))
	var drains int64
	for op := range 3000 {
		now := int64(op) * sec / 10
		file, off := uint64(1+rng.Intn(4)), rng.Int63n(32)*4*kb
		switch rng.Intn(6) {
		case 0, 1, 2:
			before := s.FS().Stats().FullSegments
			s.Write(now, file, off, 1+rng.Int63n(12*kb))
			drains += s.FS().Stats().FullSegments - before
		case 3:
			s.Read(now, file, off, 1+rng.Int63n(12*kb))
		case 4:
			s.Fsync(now, file)
		case 5:
			s.Delete(now, file)
		}
		n, nv := 0, 0
		for f, fb := range s.files {
			if len(fb.blocks) == 0 {
				t.Fatalf("op %d: file %d kept with no cached blocks", op, f)
			}
			volDirty := 0
			for idx, b := range fb.blocks {
				if b.id != (blockID{f, idx}) || b.file != fb {
					t.Fatalf("op %d: entry %v cached as %d/%d", op, b.id, f, idx)
				}
				switch {
				case b.dirty && b.inNVRAM:
					if b.nvAt >= len(s.nv) || s.nv[b.nvAt] != b {
						t.Fatalf("op %d: NVRAM entry %v not at its place %d in the set", op, b.id, b.nvAt)
					}
					nv++
				case b.dirty:
					volDirty++
				case b.inNVRAM:
					t.Fatalf("op %d: clean entry %v marked as in the NVRAM region", op, b.id)
				}
				n++
			}
			if volDirty != fb.volDirty {
				t.Fatalf("op %d: file %d counts %d volatile dirty blocks, recount %d", op, f, fb.volDirty, volDirty)
			}
		}
		if nv != len(s.nv) || nv > s.cfg.NVRAMBlocks {
			t.Fatalf("op %d: NVRAM set holds %d, recount %d, region %d", op, len(s.nv), nv, s.cfg.NVRAMBlocks)
		}
		for e := s.lru.Front(); e != nil; e = e.Next() {
			if b := e.Value.(*entry); s.lookup(b.id) != b || b.lru != e {
				t.Fatalf("op %d: LRU element %v is not the cached entry", op, b.id)
			}
		}
		if n != s.lru.Len() || n > s.capacity() {
			t.Fatalf("op %d: %d cached blocks, LRU list %d, capacity %d", op, n, s.lru.Len(), s.capacity())
		}
	}
	if drains == 0 {
		t.Fatal("the NVRAM region never drained a segment")
	}
}
