package cache

import (
	"math/rand"
	"testing"

	"nvramfs/internal/interval"
)

func rng() *rand.Rand { return rand.New(rand.NewSource(42)) }

func mustModel(t *testing.T, kind ModelKind, cfg Config) Model {
	t.Helper()
	if cfg.Rand == nil {
		cfg.Rand = rng()
	}
	m, err := NewModel(kind, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func rr(a, b int64) interval.Range { return interval.Range{Start: a, End: b} }

const sec = int64(1e6)

func TestBlockSpan(t *testing.T) {
	var got []interval.Range
	blockSpan(rr(1000, 9000), 4096, func(idx int64, sub interval.Range) {
		got = append(got, sub)
	})
	want := []interval.Range{
		{Start: 1000, End: 4096},
		{Start: 4096, End: 8192},
		{Start: 8192, End: 9000},
	}
	if len(got) != len(want) {
		t.Fatalf("got %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
}

func TestVolatileWriteAbsorbsOverwrite(t *testing.T) {
	m := mustModel(t, ModelVolatile, Config{VolatileBlocks: 16})
	m.Write(0, 1, rr(0, 4096))
	m.Write(10*sec, 1, rr(0, 4096)) // overwrite within 30s: absorbed
	tr := m.Traffic()
	if tr.AbsorbedOverwriteBytes != 4096 {
		t.Fatalf("absorbed = %d", tr.AbsorbedOverwriteBytes)
	}
	if tr.AppWriteBytes != 8192 {
		t.Fatalf("app writes = %d", tr.AppWriteBytes)
	}
	if got := tr.ServerWriteBytes(); got != 0 {
		t.Fatalf("server writes = %d", got)
	}
}

func TestVolatileCleanerFlushesAfterDelay(t *testing.T) {
	m := mustModel(t, ModelVolatile, Config{VolatileBlocks: 16})
	m.Write(0, 1, rr(0, 4096))
	m.Advance(29 * sec)
	if m.Traffic().WriteBack[CauseCleaner] != 0 {
		t.Fatal("cleaner ran early")
	}
	m.Advance(31 * sec)
	if m.Traffic().WriteBack[CauseCleaner] != 4096 {
		t.Fatalf("cleaner flushed %d", m.Traffic().WriteBack[CauseCleaner])
	}
	if m.DirtyBytes() != 0 {
		t.Fatal("dirty bytes remain after cleaner")
	}
	// Block stays cached clean: a read is a hit.
	m.Read(32*sec, 1, rr(0, 4096), 4096)
	if m.Traffic().ServerReadBytes != 0 {
		t.Fatal("read missed after cleaner flush")
	}
}

func TestVolatileCleanerFlushesYoungBytesWithBlock(t *testing.T) {
	// Sprite's cleaner writes the whole block's dirty data once its oldest
	// byte exceeds the delay, even if some bytes are younger.
	m := mustModel(t, ModelVolatile, Config{VolatileBlocks: 16})
	m.Write(0, 1, rr(0, 1000))
	m.Write(20*sec, 1, rr(2000, 3000))
	m.Advance(31 * sec)
	if got := m.Traffic().WriteBack[CauseCleaner]; got != 2000 {
		t.Fatalf("cleaner flushed %d, want 2000", got)
	}
}

func TestVolatileFsyncFlushes(t *testing.T) {
	m := mustModel(t, ModelVolatile, Config{VolatileBlocks: 16})
	m.Write(0, 1, rr(0, 4096))
	m.Fsync(sec, 1)
	if m.Traffic().WriteBack[CauseFsync] != 4096 {
		t.Fatalf("fsync flushed %d", m.Traffic().WriteBack[CauseFsync])
	}
}

func TestVolatileEvictionWritesDirty(t *testing.T) {
	m := mustModel(t, ModelVolatile, Config{VolatileBlocks: 2})
	m.Write(0, 1, rr(0, 4096))
	m.Write(1, 1, rr(4096, 8192))
	m.Write(2, 1, rr(8192, 12288)) // evicts block 0 (dirty)
	if m.Traffic().WriteBack[CauseReplacement] != 4096 {
		t.Fatalf("replacement traffic = %d", m.Traffic().WriteBack[CauseReplacement])
	}
	if m.CachedBlocks() != 2 {
		t.Fatalf("cached blocks = %d", m.CachedBlocks())
	}
}

func TestVolatileDeleteAbsorbs(t *testing.T) {
	m := mustModel(t, ModelVolatile, Config{VolatileBlocks: 16})
	m.Write(0, 1, rr(0, 8192))
	m.DeleteRange(sec, 1, rr(0, 8192))
	tr := m.Traffic()
	if tr.AbsorbedDeleteBytes != 8192 {
		t.Fatalf("absorbed delete = %d", tr.AbsorbedDeleteBytes)
	}
	if tr.ServerWriteBytes() != 0 {
		t.Fatal("deletion generated server traffic")
	}
	if m.CachedBlocks() != 0 {
		t.Fatal("fully deleted blocks still cached")
	}
}

func TestVolatileReadMissFetchesBlock(t *testing.T) {
	m := mustModel(t, ModelVolatile, Config{VolatileBlocks: 16})
	m.Read(0, 1, rr(0, 100), 10000)
	tr := m.Traffic()
	// Whole first block fetched (4096), clipped to nothing since file is
	// larger than one block.
	if tr.ServerReadBytes != 4096 {
		t.Fatalf("fetched %d", tr.ServerReadBytes)
	}
	// Second read of the same block hits.
	m.Read(1, 1, rr(200, 300), 10000)
	if tr.ServerReadBytes != 4096 || tr.ReadHitBytes != 100 {
		t.Fatalf("second read: fetch %d, hits %d", tr.ServerReadBytes, tr.ReadHitBytes)
	}
}

func TestVolatileReadClippedToFileSize(t *testing.T) {
	m := mustModel(t, ModelVolatile, Config{VolatileBlocks: 16})
	m.Read(0, 1, rr(0, 100), 100) // file is only 100 bytes
	if m.Traffic().ServerReadBytes != 100 {
		t.Fatalf("fetched %d, want 100", m.Traffic().ServerReadBytes)
	}
}

func TestWriteAsideBasics(t *testing.T) {
	m := mustModel(t, ModelWriteAside, Config{VolatileBlocks: 16, NVRAMBlocks: 4})
	m.Write(0, 1, rr(0, 4096))
	tr := m.Traffic()
	// Data written into both memories.
	if tr.BusWriteBytes != 8192 {
		t.Fatalf("bus write = %d, want 2x", tr.BusWriteBytes)
	}
	if tr.NVRAMWriteBytes != 4096 {
		t.Fatalf("nvram write = %d", tr.NVRAMWriteBytes)
	}
	// No delayed write-back.
	m.Advance(120 * sec)
	if tr.ServerWriteBytes() != 0 {
		t.Fatal("write-aside flushed without pressure")
	}
	// Fsync keeps data in NVRAM.
	m.Fsync(sec, 1)
	if tr.WriteBack[CauseFsync] != 0 {
		t.Fatal("fsync generated traffic in write-aside model")
	}
	if m.DirtyBytes() != 4096 {
		t.Fatalf("dirty = %d", m.DirtyBytes())
	}
}

func TestWriteAsideNVRAMReplacement(t *testing.T) {
	m := mustModel(t, ModelWriteAside, Config{VolatileBlocks: 16, NVRAMBlocks: 2})
	m.Write(0, 1, rr(0, 4096))
	m.Write(1, 1, rr(4096, 8192))
	m.Write(2, 1, rr(8192, 12288)) // NVRAM full: LRU shadow flushed
	tr := m.Traffic()
	if tr.WriteBack[CauseReplacement] != 4096 {
		t.Fatalf("replacement = %d", tr.WriteBack[CauseReplacement])
	}
	// The flushed block remains clean in the volatile cache: reading it
	// hits.
	m.Read(3, 1, rr(0, 4096), 12288)
	if tr.ServerReadBytes != 0 {
		t.Fatal("flushed block not retained in volatile cache")
	}
	if m.DirtyBytes() != 8192 {
		t.Fatalf("dirty = %d", m.DirtyBytes())
	}
}

func TestWriteAsideVolatileEvictionInvalidatesBoth(t *testing.T) {
	// Volatile cache of 2 blocks, larger NVRAM: writing 3 blocks evicts
	// the volatile copy of block 0, which must flush and drop the shadow.
	m := mustModel(t, ModelWriteAside, Config{VolatileBlocks: 2, NVRAMBlocks: 8})
	m.Write(0, 1, rr(0, 4096))
	m.Write(1, 1, rr(4096, 8192))
	m.Write(2, 1, rr(8192, 12288))
	tr := m.Traffic()
	if tr.WriteBack[CauseReplacement] != 4096 {
		t.Fatalf("replacement = %d", tr.WriteBack[CauseReplacement])
	}
	if m.DirtyBytes() != 8192 {
		t.Fatalf("dirty = %d (shadow not invalidated)", m.DirtyBytes())
	}
}

func TestWriteAsideDeleteAbsorbs(t *testing.T) {
	m := mustModel(t, ModelWriteAside, Config{VolatileBlocks: 16, NVRAMBlocks: 8})
	m.Write(0, 1, rr(0, 4096))
	m.DeleteRange(sec, 1, rr(0, 4096))
	if m.Traffic().AbsorbedDeleteBytes != 4096 {
		t.Fatalf("absorbed = %d", m.Traffic().AbsorbedDeleteBytes)
	}
	if m.DirtyBytes() != 0 || m.Traffic().ServerWriteBytes() != 0 {
		t.Fatal("delete left traffic or dirt")
	}
}

func TestUnifiedDirtyOnlyInNVRAM(t *testing.T) {
	m := mustModel(t, ModelUnified, Config{VolatileBlocks: 16, NVRAMBlocks: 4})
	m.Write(0, 1, rr(0, 4096))
	u := m.(*unifiedModel)
	if u.nv.Len() != 1 || u.vol.Len() != 0 {
		t.Fatalf("nv=%d vol=%d", u.nv.Len(), u.vol.Len())
	}
	// Reads hit from the NVRAM.
	m.Read(1, 1, rr(0, 4096), 4096)
	tr := m.Traffic()
	if tr.ServerReadBytes != 0 || tr.ReadHitBytes != 4096 {
		t.Fatalf("read: fetch=%d hit=%d", tr.ServerReadBytes, tr.ReadHitBytes)
	}
}

func TestUnifiedWriteMovesCleanBlockToNVRAM(t *testing.T) {
	m := mustModel(t, ModelUnified, Config{VolatileBlocks: 16, NVRAMBlocks: 4})
	// Read miss places the clean block in the volatile cache (it has room).
	m.Read(0, 1, rr(0, 4096), 4096)
	u := m.(*unifiedModel)
	if u.vol.Len() != 1 {
		t.Fatalf("vol=%d after read", u.vol.Len())
	}
	// A partial write transfers the block to NVRAM and updates it there.
	m.Write(1, 1, rr(100, 200))
	if u.vol.Len() != 0 || u.nv.Len() != 1 {
		t.Fatalf("vol=%d nv=%d after write", u.vol.Len(), u.nv.Len())
	}
	b := u.nv.Get(BlockID{1, 0})
	if b == nil || b.Dirty.Len() != 100 || b.Valid.Len() != 4096 {
		t.Fatalf("block state wrong: %+v", b)
	}
}

func TestUnifiedEvictionTransfersToVolatile(t *testing.T) {
	m := mustModel(t, ModelUnified, Config{VolatileBlocks: 8, NVRAMBlocks: 2})
	m.Write(0, 1, rr(0, 4096))
	m.Write(1*sec, 1, rr(4096, 8192))
	m.Write(2*sec, 1, rr(8192, 12288)) // evicts LRU dirty block 0
	tr := m.Traffic()
	if tr.WriteBack[CauseReplacement] != 4096 {
		t.Fatalf("replacement = %d", tr.WriteBack[CauseReplacement])
	}
	// The evicted block moved to the (empty) volatile cache as clean.
	u := m.(*unifiedModel)
	if u.vol.Len() != 1 {
		t.Fatalf("vol=%d, want transferred block", u.vol.Len())
	}
	m.Read(3*sec, 1, rr(0, 4096), 12288)
	if tr.ServerReadBytes != 0 {
		t.Fatal("transferred block not readable")
	}
}

func TestUnifiedFsyncNoTraffic(t *testing.T) {
	m := mustModel(t, ModelUnified, Config{VolatileBlocks: 8, NVRAMBlocks: 8})
	m.Write(0, 1, rr(0, 4096))
	m.Fsync(sec, 1)
	if m.Traffic().ServerWriteBytes() != 0 {
		t.Fatal("unified fsync generated traffic")
	}
}

func TestUnifiedFlushFileRemovesFromNVRAM(t *testing.T) {
	m := mustModel(t, ModelUnified, Config{VolatileBlocks: 8, NVRAMBlocks: 8})
	m.Write(0, 1, rr(0, 4096))
	n := m.FlushFile(sec, 1, CauseCallback)
	if n != 4096 {
		t.Fatalf("flushed %d", n)
	}
	u := m.(*unifiedModel)
	if u.nv.Len() != 0 {
		t.Fatal("flushed block stayed in NVRAM")
	}
	if u.vol.Len() != 1 {
		t.Fatal("flushed block not transferred to volatile cache")
	}
	if m.Traffic().WriteBack[CauseCallback] != 4096 {
		t.Fatalf("callback traffic = %d", m.Traffic().WriteBack[CauseCallback])
	}
}

func TestUnifiedReadPlacementPrefersVolatile(t *testing.T) {
	m := mustModel(t, ModelUnified, Config{VolatileBlocks: 2, NVRAMBlocks: 2})
	u := m.(*unifiedModel)
	m.Read(0, 1, rr(0, 4096), 1<<20)
	m.Read(1, 1, rr(4096, 8192), 1<<20)
	if u.vol.Len() != 2 || u.nv.Len() != 0 {
		t.Fatalf("vol=%d nv=%d", u.vol.Len(), u.nv.Len())
	}
	// Volatile full: next fetched block goes to the free NVRAM.
	m.Read(2, 1, rr(8192, 12288), 1<<20)
	if u.nv.Len() != 1 {
		t.Fatalf("nv=%d after spill", u.nv.Len())
	}
}

func TestModelValidation(t *testing.T) {
	if _, err := NewModel(ModelVolatile, Config{}); err == nil {
		t.Fatal("volatile with no capacity accepted")
	}
	if _, err := NewModel(ModelUnified, Config{VolatileBlocks: 4}); err == nil {
		t.Fatal("unified without NVRAM accepted")
	}
	if _, err := NewModel(ModelWriteAside, Config{NVRAMBlocks: 4}); err == nil {
		t.Fatal("write-aside without volatile accepted")
	}
	for _, k := range []ModelKind{ModelUnified, ModelHybrid} {
		if _, err := NewModel(k, Config{VolatileBlocks: -1, NVRAMBlocks: 4}); err == nil {
			t.Fatalf("%v with negative volatile capacity accepted", k)
		}
	}
	if _, err := NewModel(ModelKind(9), Config{}); err == nil {
		t.Fatal("unknown model accepted")
	}
}

func TestModelKindString(t *testing.T) {
	if ModelVolatile.String() != "volatile" || ModelUnified.String() != "unified" || ModelWriteAside.String() != "write-aside" {
		t.Fatal("model names wrong")
	}
}

func TestNoteConcurrent(t *testing.T) {
	m := mustModel(t, ModelVolatile, Config{VolatileBlocks: 4})
	m.NoteConcurrent(false, 100)
	m.NoteConcurrent(true, 50)
	tr := m.Traffic()
	if tr.WriteBack[CauseConcurrent] != 100 || tr.ServerReadBytes != 50 {
		t.Fatalf("traffic = %+v", tr)
	}
}

func TestTrafficAggregation(t *testing.T) {
	var a, b Traffic
	a.AppWriteBytes = 100
	a.WriteBack[CauseFsync] = 30
	b.AppWriteBytes = 50
	b.WriteBack[CauseCleaner] = 20
	a.Add(&b)
	if a.AppWriteBytes != 150 || a.ServerWriteBytes() != 50 {
		t.Fatalf("aggregate = %+v", a)
	}
	if f := a.NetWriteFrac(); f < 0.33 || f > 0.34 {
		t.Fatalf("NetWriteFrac = %f", f)
	}
}
