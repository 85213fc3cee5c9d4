package sim

import (
	"testing"

	"nvramfs/internal/cache"
	"nvramfs/internal/interval"
	"nvramfs/internal/lifetime"
	"nvramfs/internal/prep"
	"nvramfs/internal/workload"
)

func wop(t int64, c uint32, k prep.Kind, f uint64, a, b int64) prep.Op {
	return prep.Op{Time: t, Client: c, Kind: k, File: f, Range: interval.Range{Start: a, End: b}}
}

func openOp(t int64, c uint32, f uint64, w bool) prep.Op {
	return prep.Op{Time: t, Client: c, Kind: prep.Open, File: f, WriteMode: w}
}

func traceOps(t *testing.T, idx int, scale float64) []prep.Op {
	t.Helper()
	ops, err := prep.Collect(prep.NewSource(workload.NewCursor(workload.StandardProfile(idx, scale)), prep.Options{}))
	if err != nil {
		t.Fatal(err)
	}
	return ops
}

func TestRunVolatileBasics(t *testing.T) {
	ops := []prep.Op{
		openOp(0, 1, 5, true),
		wop(1, 1, prep.Write, 5, 0, 4096),
		prep.Op{Time: 2, Client: 1, Kind: prep.Fsync, File: 5},
		prep.Op{Time: 3, Client: 1, Kind: prep.Close, File: 5},
	}
	res, err := Run(prep.NewSliceSource(ops), Config{
		Model: cache.ModelVolatile,
		Cache: cache.Config{VolatileBlocks: 64},
	})
	if err != nil {
		t.Fatal(err)
	}
	tr := res.Traffic
	if tr.AppWriteBytes != 4096 {
		t.Fatalf("app writes = %d", tr.AppWriteBytes)
	}
	if tr.WriteBack[cache.CauseFsync] != 4096 {
		t.Fatalf("fsync traffic = %d", tr.WriteBack[cache.CauseFsync])
	}
}

func TestRunCallbackBetweenClients(t *testing.T) {
	ops := []prep.Op{
		openOp(0, 1, 5, true),
		wop(1, 1, prep.Write, 5, 0, 4096),
		prep.Op{Time: 2, Client: 1, Kind: prep.Close, File: 5},
		openOp(10, 2, 5, false),
		wop(11, 2, prep.Read, 5, 0, 4096),
	}
	res, err := Run(prep.NewSliceSource(ops), Config{
		Model: cache.ModelUnified,
		Cache: cache.Config{VolatileBlocks: 64, NVRAMBlocks: 64},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Traffic.WriteBack[cache.CauseCallback] != 4096 {
		t.Fatalf("callback traffic = %d", res.Traffic.WriteBack[cache.CauseCallback])
	}
	if res.Recalls != 1 {
		t.Fatalf("recalls = %d", res.Recalls)
	}
}

func TestRunConcurrentSharing(t *testing.T) {
	ops := []prep.Op{
		openOp(0, 1, 5, true),
		openOp(1, 2, 5, true),
		wop(2, 1, prep.Write, 5, 0, 1000),
		wop(3, 2, prep.Write, 5, 0, 1000),
		wop(4, 1, prep.Read, 5, 0, 1000),
	}
	res, err := Run(prep.NewSliceSource(ops), Config{
		Model: cache.ModelVolatile,
		Cache: cache.Config{VolatileBlocks: 64},
	})
	if err != nil {
		t.Fatal(err)
	}
	tr := res.Traffic
	if tr.WriteBack[cache.CauseConcurrent] != 2000 {
		t.Fatalf("concurrent writes = %d", tr.WriteBack[cache.CauseConcurrent])
	}
	if tr.ServerReadBytes != 1000 {
		t.Fatalf("concurrent reads = %d", tr.ServerReadBytes)
	}
	if res.DisableEvents != 1 {
		t.Fatalf("disables = %d", res.DisableEvents)
	}
}

func TestRunEndOfTraceFlush(t *testing.T) {
	ops := []prep.Op{
		openOp(0, 1, 5, true),
		wop(1, 1, prep.Write, 5, 0, 4096),
	}
	res, err := Run(prep.NewSliceSource(ops), Config{
		Model: cache.ModelUnified,
		Cache: cache.Config{VolatileBlocks: 64, NVRAMBlocks: 64},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Traffic.WriteBack[cache.CauseEnd] != 4096 {
		t.Fatalf("remaining traffic = %d", res.Traffic.WriteBack[cache.CauseEnd])
	}
}

// TestInfiniteNVRAMMatchesLifetime cross-validates the block-level unified
// simulator against the byte-level infinite-cache analysis: with an
// effectively infinite NVRAM there are no replacements, so server write
// traffic must equal called-back + concurrent + remaining bytes.
func TestInfiniteNVRAMMatchesLifetime(t *testing.T) {
	ops := traceOps(t, 1, 0.02)
	an, err := lifetime.Analyze(prep.NewSliceSource(ops))
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(prep.NewSliceSource(ops), Config{
		Model: cache.ModelUnified,
		Cache: cache.Config{VolatileBlocks: 1 << 20, NVRAMBlocks: 1 << 20},
	})
	if err != nil {
		t.Fatal(err)
	}
	tr := res.Traffic
	if tr.WriteBack[cache.CauseReplacement] != 0 {
		t.Fatalf("infinite cache produced replacement traffic: %d", tr.WriteBack[cache.CauseReplacement])
	}
	if tr.AppWriteBytes != an.Fate.Total {
		t.Fatalf("app writes %d != lifetime total %d", tr.AppWriteBytes, an.Fate.Total)
	}
	if got, want := tr.ServerWriteBytes(), an.Fate.ServerBytes()+an.Fate.Remaining; got != want {
		t.Fatalf("server writes %d, lifetime predicts %d", got, want)
	}
	if got, want := tr.AbsorbedBytes(), an.Fate.Absorbed(); got != want {
		t.Fatalf("absorbed %d, lifetime predicts %d", got, want)
	}
}

// TestSmallerNVRAMMoreTraffic checks monotonicity: shrinking the NVRAM can
// only increase net write traffic.
func TestSmallerNVRAMMoreTraffic(t *testing.T) {
	ops := traceOps(t, 2, 0.02)
	frac := func(nvBlocks int) float64 {
		res, err := Run(prep.NewSliceSource(ops), Config{
			Model: cache.ModelUnified,
			Cache: cache.Config{VolatileBlocks: 2048, NVRAMBlocks: nvBlocks},
		})
		if err != nil {
			t.Fatal(err)
		}
		return res.Traffic.NetWriteFrac()
	}
	small, large := frac(8), frac(4096)
	if small < large {
		t.Fatalf("smaller NVRAM produced less traffic: %f < %f", small, large)
	}
}

// TestOmniscientBeatsLRUAndRandom: with future knowledge the omniscient
// policy should never do meaningfully worse than the realistic policies.
func TestOmniscientBeatsLRUAndRandom(t *testing.T) {
	ops := traceOps(t, 5, 0.02)
	sched, err := lifetime.BuildSchedule(prep.NewSliceSource(ops), cache.DefaultBlockSize)
	if err != nil {
		t.Fatal(err)
	}
	run := func(pol cache.PolicyKind, sc cache.Schedule) float64 {
		res, err := Run(prep.NewSliceSource(ops), Config{
			Model:      cache.ModelUnified,
			Cache:      cache.Config{VolatileBlocks: 2048, NVRAMBlocks: 32, Policy: pol, Schedule: sc},
			Seed:       1,
			WritesOnly: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res.Traffic.NetWriteFrac()
	}
	omni := run(cache.Omniscient, sched)
	lru := run(cache.LRU, nil)
	rnd := run(cache.Random, nil)
	if omni > lru+0.02 || omni > rnd+0.02 {
		t.Fatalf("omniscient %.3f worse than lru %.3f / random %.3f", omni, lru, rnd)
	}
}

func TestWritesOnlySkipsReads(t *testing.T) {
	ops := []prep.Op{
		openOp(0, 1, 5, true),
		wop(1, 1, prep.Write, 5, 0, 4096),
		wop(2, 1, prep.Read, 5, 0, 4096),
	}
	res, err := Run(prep.NewSliceSource(ops), Config{
		Model:      cache.ModelVolatile,
		Cache:      cache.Config{VolatileBlocks: 4},
		WritesOnly: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Traffic.AppReadBytes != 0 {
		t.Fatalf("reads processed in writes-only mode: %d", res.Traffic.AppReadBytes)
	}
}

func TestBlocksForBytes(t *testing.T) {
	if got := BlocksForBytes(MB, 4096); got != 256 {
		t.Fatalf("BlocksForBytes(1MB) = %d", got)
	}
	if got := BlocksForBytes(100, 4096); got != 1 {
		t.Fatalf("BlocksForBytes(100) = %d", got)
	}
	if got := BlocksForBytes(MB/8, 0); got != 32 {
		t.Fatalf("BlocksForBytes(1/8MB, default) = %d", got)
	}
}

func TestPerClientTrafficSumsToTotal(t *testing.T) {
	ops := traceOps(t, 6, 0.02)
	res, err := Run(prep.NewSliceSource(ops), Config{
		Model: cache.ModelVolatile,
		Cache: cache.Config{VolatileBlocks: 1024},
	})
	if err != nil {
		t.Fatal(err)
	}
	var sum cache.Traffic
	for _, tr := range res.PerClient {
		sum.Add(tr)
	}
	if sum != res.Traffic {
		t.Fatal("per-client traffic does not sum to total")
	}
}
