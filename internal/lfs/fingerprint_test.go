package lfs

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"testing"
)

// Workload variants beyond the plain mix.
const (
	plainMix = iota
	// sameInstant sometimes writes pending blocks of a file, deletes the
	// file and rewrites the same blocks at one instant, then fills a
	// segment at that instant too: the age heap holds two entries with
	// equal (time, block) when the drain runs.
	sameInstant
	// backdated issues five fsyncs 1-5 ms after a write, as serverload's
	// transactions do, and often stamps the next operation inside that
	// window, so writes carry times earlier than the FS clock.
	backdated
)

// cleanerWorkload drives a small disk with a seeded random mix of writes,
// overwrites, deletes, fsyncs and checkpoints — hard enough that the
// cleaner runs many times — crashing and recovering once halfway so the
// recovered instance's cleaner state is exercised too. In the plain mix
// simulated time strictly increases between operations. checkRecount runs
// after every operation.
func cleanerWorkload(t *testing.T, seed int64, cfg Config, variant int) *FS {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	fs := newFS(t, cfg)
	const (
		files     = 24
		maxBlocks = 160 // per file: 24*160 blocks stay under half of 64 segments
		ops       = 12000
	)
	per := int64(fs.Config().BlocksPerSegment())
	var now int64
	var i int
	var logged int64 // the log position the last check covered
	check := func() {
		if err := checkRecount(fs, logged); err != nil {
			t.Fatalf("op %d at %d: %v", i, now, err)
		}
		logged = fs.seq
	}
	for i = 0; i < ops; i++ {
		if variant == backdated && rng.Intn(2) == 0 {
			now += 1 + rng.Int63n(5000) // inside the last fsync window
		} else {
			now += 1 + rng.Int63n(2*sec)
		}
		if rng.Intn(200) == 0 {
			now += 40 * sec // idle long enough for the age flush
		}
		file := uint64(1 + rng.Intn(files))
		switch r := rng.Intn(100); {
		case variant == sameInstant && r < 4:
			start := rng.Int63n(maxBlocks)
			n := 1 + rng.Int63n(min(maxBlocks-start, 48))
			fs.Write(now, file, start*4*kb, n*4*kb)
			check()
			fs.Delete(now, file)
			check()
			fs.Write(now, file, start*4*kb, n*4*kb)
			check()
			other := uint64(1 + (int(file)+rng.Intn(files-1))%files)
			fs.Write(now, other, 0, per*4*kb)
		case r < 70:
			start := rng.Int63n(maxBlocks)
			n := 1 + rng.Int63n(min(maxBlocks-start, 48))
			fs.Write(now, file, start*4*kb, n*4*kb)
		case r < 75:
			fs.Delete(now, file)
		case r < 98 && variant == backdated:
			for k := int64(1); k <= 5; k++ {
				fs.Fsync(now+k*1000, file)
				check()
			}
		case r < 98:
			fs.Fsync(now, file)
		default:
			fs.Checkpoint(now)
		}
		if i == ops/2 {
			rec, _, err := fs.SimulateCrashAndRecover(now)
			if err != nil {
				t.Fatal(err)
			}
			fs = rec
		}
		check()
	}
	fs.Shutdown(now + sec)
	check()
	return fs
}

// TestCleanerFingerprints pins the complete outcome — every Stats counter
// and the DurableFingerprint — of seeded random workloads on small disks,
// with and without the write buffer and under both cleaner policies. A
// change to how the cleaner finds its victims or collects their blocks, or
// to how pending blocks are drained, must leave every value in place:
// victim order, drain order and copy-out order decide where each block
// lands.
func TestCleanerFingerprints(t *testing.T) {
	cases := []struct {
		seed     int64
		segments int
		buffer   int64
		policy   CleanPolicy
		variant  int
		stats    uint64 // FNV-1a of the %+v-formatted Stats
		durable  uint64 // DurableFingerprint
	}{
		{1, 64, 0, CleanGreedy, plainMix, 0xf26120f3a993e238, 0x1903ce2e51ac104e},
		{1, 64, 512 * kb, CleanGreedy, plainMix, 0xac6393f377db712a, 0x3696f5133be92b3f},
		{1, 64, 0, CleanCostBenefit, plainMix, 0x762a8fcf553744a9, 0x9fc6a5d99ab26c87},
		{1, 64, 512 * kb, CleanCostBenefit, plainMix, 0xa75cec14bb389383, 0x2e07b5a2147a708a},
		{2, 96, 0, CleanGreedy, plainMix, 0x8c34691ce5c31295, 0x945e190eba5ca870},
		{2, 96, 512 * kb, CleanGreedy, plainMix, 0xe12b69f35c9e1386, 0x2abf7254ddb2536d},
		{2, 96, 0, CleanCostBenefit, plainMix, 0x17750b08561f9ca7, 0x2078e5539be894c5},
		{2, 96, 512 * kb, CleanCostBenefit, plainMix, 0x9a8caaa5ccd6667d, 0x58e4fe50224faa84},
		{3, 64, 0, CleanGreedy, sameInstant, 0x186feb9b2c938950, 0xfe983aac71edd95e},
		{3, 64, 512 * kb, CleanCostBenefit, sameInstant, 0x2dd51a6232c884d8, 0x80bb6566a5c2ebec},
		{4, 64, 0, CleanGreedy, backdated, 0x70741a6ae0a2bfc5, 0xc248266acabaee48},
		{4, 64, 512 * kb, CleanGreedy, backdated, 0xdf24fbf70d0edb77, 0x37d1730174e643eb},
	}
	for _, c := range cases {
		name := fmt.Sprintf("seed%d/%dsegs/buf%d/%v", c.seed, c.segments, c.buffer, c.policy)
		switch c.variant {
		case sameInstant:
			name += "/same-instant"
		case backdated:
			name += "/backdated"
		}
		t.Run(name, func(t *testing.T) {
			fs := cleanerWorkload(t, c.seed, Config{
				DiskSegments: c.segments, CleanLowWater: 8, CleanHighWater: 16,
				BufferBytes: c.buffer, Cleaner: c.policy,
			}, c.variant)
			st := fs.Stats()
			if st.CleanerRuns == 0 || st.CleanerBlocksCopied == 0 {
				t.Fatalf("cleaner idle: %+v", *st)
			}
			h := fnv.New64a()
			fmt.Fprintf(h, "%+v", *st)
			if got, fp := h.Sum64(), fs.DurableFingerprint(); got != c.stats || fp != c.durable {
				t.Errorf("stats digest %#x, fingerprint %#x; pinned %#x, %#x\nstats: %+v",
					got, fp, c.stats, c.durable, *st)
			}
		})
	}
}
