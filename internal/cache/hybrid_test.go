package cache

import "testing"

func TestHybridWritePrefersNVRAM(t *testing.T) {
	m := mustModel(t, ModelHybrid, Config{VolatileBlocks: 8, NVRAMBlocks: 2})
	m.Write(0, 1, rr(0, 4096))
	h := m.(*hybridModel)
	if h.nv.Len() != 1 || h.vol.Len() != 0 {
		t.Fatalf("nv=%d vol=%d", h.nv.Len(), h.vol.Len())
	}
	// Data in NVRAM is permanent: no vulnerable bytes, no cleaner traffic.
	if m.Traffic().VulnerableWriteBytes != 0 {
		t.Fatal("NVRAM-resident write counted vulnerable")
	}
	m.Advance(120 * sec)
	if m.Traffic().ServerWriteBytes() != 0 {
		t.Fatal("NVRAM-resident data flushed by cleaner")
	}
}

func TestHybridSpillsToVolatileWithCleaner(t *testing.T) {
	// NVRAM of 1 block: the second dirty block must land in volatile
	// memory, where it is vulnerable and cleaner-flushed after 30s.
	m := mustModel(t, ModelHybrid, Config{VolatileBlocks: 8, NVRAMBlocks: 1})
	m.Write(0, 1, rr(0, 4096))
	m.Write(1, 1, rr(4096, 8192))
	tr := m.Traffic()
	if tr.VulnerableWriteBytes != 4096 {
		t.Fatalf("vulnerable = %d", tr.VulnerableWriteBytes)
	}
	m.Advance(31 * sec)
	if tr.WriteBack[CauseCleaner] != 4096 {
		t.Fatalf("cleaner flushed %d", tr.WriteBack[CauseCleaner])
	}
	// The NVRAM-resident block is still dirty and safe.
	if m.DirtyBytes() != 4096 {
		t.Fatalf("dirty = %d", m.DirtyBytes())
	}
}

func TestHybridFsyncFlushesOnlyVolatileDirty(t *testing.T) {
	m := mustModel(t, ModelHybrid, Config{VolatileBlocks: 8, NVRAMBlocks: 1})
	m.Write(0, 1, rr(0, 4096))    // NVRAM
	m.Write(1, 1, rr(4096, 8192)) // volatile
	m.Fsync(2, 1)
	tr := m.Traffic()
	if tr.WriteBack[CauseFsync] != 4096 {
		t.Fatalf("fsync flushed %d, want only the volatile-resident block", tr.WriteBack[CauseFsync])
	}
	if m.DirtyBytes() != 4096 {
		t.Fatalf("dirty = %d", m.DirtyBytes())
	}
}

func TestHybridDeleteAbsorbsBothPools(t *testing.T) {
	m := mustModel(t, ModelHybrid, Config{VolatileBlocks: 8, NVRAMBlocks: 1})
	m.Write(0, 1, rr(0, 4096))
	m.Write(1, 1, rr(4096, 8192))
	m.DeleteRange(2, 1, rr(0, 8192))
	tr := m.Traffic()
	if tr.AbsorbedDeleteBytes != 8192 {
		t.Fatalf("absorbed = %d", tr.AbsorbedDeleteBytes)
	}
	if m.CachedBlocks() != 0 || m.DirtyBytes() != 0 {
		t.Fatal("blocks survive full deletion")
	}
}

func TestHybridReadFromEitherMemory(t *testing.T) {
	m := mustModel(t, ModelHybrid, Config{VolatileBlocks: 8, NVRAMBlocks: 1})
	m.Write(0, 1, rr(0, 4096))    // NVRAM
	m.Write(1, 1, rr(4096, 8192)) // volatile
	m.Read(2, 1, rr(0, 8192), 8192)
	tr := m.Traffic()
	if tr.ServerReadBytes != 0 || tr.ReadHitBytes != 8192 {
		t.Fatalf("read: fetch=%d hit=%d", tr.ServerReadBytes, tr.ReadHitBytes)
	}
	if tr.NVRAMReadBytes != 4096 {
		t.Fatalf("nvram read = %d", tr.NVRAMReadBytes)
	}
}

func TestHybridFlushAndInvalidate(t *testing.T) {
	m := mustModel(t, ModelHybrid, Config{VolatileBlocks: 8, NVRAMBlocks: 1})
	m.Write(0, 1, rr(0, 4096))
	m.Write(1, 1, rr(4096, 8192))
	if n := m.FlushFile(2, 1, CauseCallback); n != 8192 {
		t.Fatalf("flushed %d", n)
	}
	m.Invalidate(3, 1)
	if m.CachedBlocks() != 0 {
		t.Fatal("blocks survive invalidation")
	}
}

func TestDirtyPreferenceSparesDirtyBlocks(t *testing.T) {
	// Three blocks in a 2-block cache: block 0 dirty, block 1 clean. With
	// preference the clean block is replaced even though the dirty one is
	// least-recently used.
	m := mustModel(t, ModelVolatile, Config{VolatileBlocks: 2, DirtyPreference: true})
	m.Write(0, 1, rr(0, 4096))           // dirty, oldest
	m.Read(1, 1, rr(4096, 8192), 1<<20)  // clean
	m.Read(2, 1, rr(8192, 12288), 1<<20) // evicts the clean block 1
	tr := m.Traffic()
	if tr.WriteBack[CauseReplacement] != 0 {
		t.Fatalf("dirty block replaced despite preference: %d", tr.WriteBack[CauseReplacement])
	}
	if m.DirtyBytes() != 4096 {
		t.Fatalf("dirty = %d", m.DirtyBytes())
	}
	// When everything is dirty the LRU dirty block goes after all.
	m2 := mustModel(t, ModelVolatile, Config{VolatileBlocks: 2, DirtyPreference: true})
	m2.Write(0, 1, rr(0, 4096))
	m2.Write(1, 1, rr(4096, 8192))
	m2.Write(2, 1, rr(8192, 12288))
	if m2.Traffic().WriteBack[CauseReplacement] != 4096 {
		t.Fatalf("all-dirty replacement = %d", m2.Traffic().WriteBack[CauseReplacement])
	}
}

func TestHybridWriteBackReadsNVRAM(t *testing.T) {
	// A write-back of NVRAM-resident bytes reads them out of the NVRAM,
	// as in the unified and write-aside models.
	m := mustModel(t, ModelHybrid, Config{VolatileBlocks: 8, NVRAMBlocks: 1})
	m.Write(0, 1, rr(0, 4096))    // NVRAM
	m.Write(1, 1, rr(4096, 8192)) // volatile
	if n := m.FlushFile(2, 1, CauseCallback); n != 8192 {
		t.Fatalf("flushed %d", n)
	}
	tr := m.Traffic()
	if tr.NVRAMReadBytes != 4096 || tr.NVRAMAccesses != 2 {
		t.Fatalf("NVRAM read %d bytes in %d accesses, want 4096 in 2", tr.NVRAMReadBytes, tr.NVRAMAccesses)
	}
	// Replacement out of the NVRAM reads the victim too.
	m = mustModel(t, ModelHybrid, Config{VolatileBlocks: 0, NVRAMBlocks: 1})
	m.Write(0, 1, rr(0, 100))
	m.Write(1, 2, rr(0, 100)) // evicts the first block
	if tr := m.Traffic(); tr.WriteBack[CauseReplacement] != 100 || tr.NVRAMReadBytes != 100 {
		t.Fatalf("replacement wrote back %d bytes and read %d from NVRAM, want 100 and 100",
			tr.WriteBack[CauseReplacement], tr.NVRAMReadBytes)
	}
}
