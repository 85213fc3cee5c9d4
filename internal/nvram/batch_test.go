package nvram

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"syscall"
	"testing"
)

// hookMapping interposes on sync: before runs first and its error, if
// any, is returned in place of the platform sync's.
type hookMapping struct {
	mapping
	before func(off, end int64) error
}

func (h *hookMapping) sync(off, end int64) error {
	if err := h.before(off, end); err != nil {
		return err
	}
	return h.mapping.sync(off, end)
}

func reopenBytes(t *testing.T, dir, name string, raw []byte) (*Image, *ImageRecovery) {
	t.Helper()
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	return openTestImage(t, path, ImageOptions{})
}

func TestImageBatchSharesOneBarrier(t *testing.T) {
	im, _ := openTestImage(t, filepath.Join(t.TempDir(), "img"), ImageOptions{})
	defer im.Close()
	msyncs := func() int64 { return im.Stats().Msyncs }

	base := msyncs()
	if err := im.Put(NSStore, "lone", []byte("v")); err != nil {
		t.Fatal(err)
	}
	if got := msyncs() - base; got != 2 {
		t.Fatalf("a Put outside a batch cost %d msyncs, want 2", got)
	}

	base = msyncs()
	im.Begin()
	for i := 0; i < 8; i++ {
		im.Begin() // a nested batch is absorbed by the outer one
		if err := im.Put(NSStore, fmt.Sprintf("k%d", i), []byte("v")); err != nil {
			t.Fatal(err)
		}
		if err := im.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	if err := im.Delete(NSStore, "k3"); err != nil {
		t.Fatal(err)
	}
	if got := msyncs() - base; got != 0 {
		t.Fatalf("%d msyncs before the outer Commit, want 0", got)
	}
	if _, ok := im.Get(NSStore, "k3"); ok {
		t.Fatal("a batch's Delete is not visible to Get before Commit")
	}
	if err := im.Commit(); err != nil {
		t.Fatal(err)
	}
	if got := msyncs() - base; got != 2 {
		t.Fatalf("a batch of nine records cost %d msyncs, want 2", got)
	}
	if err := im.Commit(); err != nil || msyncs()-base != 2 {
		t.Fatalf("an empty commit synced or failed: %v", err)
	}
}

// TestImageBatchPowerLossYieldsPrefix cuts the power inside one batch's
// commit barrier: after phase 1, and in phase 2 with an arbitrary subset
// of the pages holding commit marks written back. Every such file must
// reopen to everything committed earlier plus a prefix of the batch, say
// so in DiscardedTailBytes, reopen the same way a second time, and keep
// the discarded records dead when later appends fill the gap they left.
func TestImageBatchPowerLossYieldsPrefix(t *testing.T) {
	const earlier, batch = 3, 80
	dir := t.TempDir()
	im, _ := openTestImage(t, filepath.Join(dir, "img"), ImageOptions{TrackShadow: true})
	defer im.Close()
	for i := 0; i < earlier; i++ {
		if err := im.Put(NSParked, fmt.Sprintf("old%d", i), []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	before, err := im.DurableSnapshot()
	if err != nil {
		t.Fatal(err)
	}

	// Record each sync of the batch's barrier: its range, and the bytes
	// the mapping held in that range at that moment.
	type synced struct {
		off, end int64
		data     []byte
	}
	var syncs []synced
	inner := im.m
	im.m = &hookMapping{mapping: inner, before: func(off, end int64) error {
		syncs = append(syncs, synced{off, end, append([]byte(nil), inner.bytes()[off:end]...)})
		return nil
	}}

	payload := bytes.Repeat([]byte{0xA5}, 200)
	recOff := make([]int64, batch+1) // record i occupies [recOff[i], recOff[i+1])
	im.Begin()
	for i := 0; i < batch; i++ {
		recOff[i] = im.AppendOffset()
		if err := im.Put(NSParked, fmt.Sprintf("new%02d", i), payload); err != nil {
			t.Fatal(err)
		}
	}
	recOff[batch] = im.AppendOffset()
	if err := im.Commit(); err != nil {
		t.Fatal(err)
	}
	im.m = inner
	if len(syncs) != 2 {
		t.Fatalf("the barrier issued %d syncs, want 2", len(syncs))
	}
	page := im.page
	if pages := (recOff[batch]-1)/page - recOff[0]/page + 1; pages < 3 {
		t.Fatalf("the batch spans %d pages, the test wants at least 3", pages)
	}

	overlay := func(base []byte, s synced, keep func(page int64) bool) []byte {
		out := append([]byte(nil), base...)
		for o := s.off; o < s.end; o++ {
			if keep(o / page) {
				out[o] = s.data[o-s.off]
			}
		}
		return out
	}
	all := func(int64) bool { return true }
	phase1 := overlay(before, syncs[0], all)

	// The shadow must agree with the reconstruction once both phases ran.
	after, err := im.DurableSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(after, overlay(phase1, syncs[1], all)) {
		t.Fatal("DurableSnapshot after Commit differs from the two recorded syncs applied in order")
	}

	// markPage is the page holding batch record i's commit byte.
	markPage := func(i int) int64 {
		body := int64(recFixed + len("new00") + len(payload))
		return (recOff[i] + 4 + body + 4) / page
	}

	// check reopens raw, which holds the batch's bodies unless bare.
	check := func(name string, raw []byte, wantPrefix int, bare bool) {
		t.Helper()
		img, info := reopenBytes(t, dir, name, raw)
		if info.Records != earlier+wantPrefix {
			t.Fatalf("%s: replayed %d records, want %d earlier + a prefix of %d", name, info.Records, earlier, wantPrefix)
		}
		for i := 0; i < batch; i++ {
			_, ok := img.Get(NSParked, fmt.Sprintf("new%02d", i))
			if ok != (i < wantPrefix) {
				t.Fatalf("%s: batch record %d present=%v with a prefix of %d", name, i, ok, wantPrefix)
			}
		}
		if wantPrefix < batch && !bare {
			// The tail runs from the first dropped record to the end of
			// the batch, less the last record's zero padding.
			end := recOff[wantPrefix] + info.DiscardedTailBytes
			if end <= recOff[batch]-8 || end > recOff[batch] {
				t.Fatalf("%s: discarded tail ends at %d, the batch at %d", name, end, recOff[batch])
			}
		} else if info.DiscardedTailBytes != 0 {
			t.Fatalf("%s: nothing to discard yet %d tail bytes discarded", name, info.DiscardedTailBytes)
		}
		// Fill the gap with a record the size of the one dropped: nothing
		// stranded behind it may come back.
		if err := img.Put(NSParked, "fill0", payload); err != nil {
			t.Fatal(err)
		}
		if err := img.Close(); err != nil {
			t.Fatal(err)
		}
		img2, info2 := openTestImage(t, filepath.Join(dir, name), ImageOptions{})
		defer img2.Close()
		if info2.Records != earlier+wantPrefix+1 || info2.DiscardedTailBytes != 0 {
			t.Fatalf("%s: second reopen replayed %d records and discarded %d bytes, want %d and 0",
				name, info2.Records, info2.DiscardedTailBytes, earlier+wantPrefix+1)
		}
		if info2.LiveKeys != earlier+wantPrefix+1 {
			t.Fatalf("%s: second reopen has %d live keys, want %d", name, info2.LiveKeys, earlier+wantPrefix+1)
		}
	}

	check("before", before, 0, true)
	check("phase1", phase1, 0, false)
	first, last := syncs[1].off/page, (syncs[1].end-1)/page
	for seed := int64(0); seed < 24; seed++ {
		rng := rand.New(rand.NewSource(seed))
		kept := make(map[int64]bool)
		for p := first; p <= last; p++ {
			kept[p] = rng.Intn(2) == 0
		}
		want := 0
		for want < batch && kept[markPage(want)] {
			want++
		}
		raw := overlay(phase1, syncs[1], func(p int64) bool { return kept[p] })
		check(fmt.Sprintf("phase2-seed%d", seed), raw, want, false)
	}
	check("phase2-all", after, batch, false)
}

// TestImageCommitSyncErrorLatches fails the barrier's first and then its
// second msync: Commit must return the error, the image must latch it,
// and the failed batch must be invisible both in what the kernel still
// holds (reopen the file) and in what was durable (reopen the shadow).
func TestImageCommitSyncErrorLatches(t *testing.T) {
	for _, failAt := range []int{1, 2} {
		t.Run(fmt.Sprintf("phase%d", failAt), func(t *testing.T) {
			dir := t.TempDir()
			path := filepath.Join(dir, "img")
			im, _ := openTestImage(t, path, ImageOptions{TrackShadow: true})
			for i := 0; i < 2; i++ {
				if err := im.Put(NSStore, fmt.Sprintf("old%d", i), []byte("v")); err != nil {
					t.Fatal(err)
				}
			}
			inner, calls := im.m, 0
			im.m = &hookMapping{mapping: inner, before: func(off, end int64) error {
				if calls++; calls == failAt {
					return syscall.EIO
				}
				return nil
			}}
			im.Begin()
			for i := 0; i < 5; i++ {
				if err := im.Put(NSStore, fmt.Sprintf("new%d", i), []byte("v")); err != nil {
					t.Fatal(err)
				}
			}
			if err := im.Commit(); !errors.Is(err, syscall.EIO) {
				t.Fatalf("Commit returned %v, want EIO", err)
			}
			if !errors.Is(im.Err(), syscall.EIO) {
				t.Fatalf("Err() = %v, want the latched EIO", im.Err())
			}
			if err := im.Put(NSStore, "later", []byte("v")); !errors.Is(err, syscall.EIO) {
				t.Fatalf("Put on a failed image returned %v", err)
			}
			snap, err := im.DurableSnapshot()
			if err != nil {
				t.Fatal(err)
			}
			im.m = inner
			if err := im.Close(); !errors.Is(err, syscall.EIO) {
				t.Fatalf("Close of a failed image returned %v, want the latched EIO", err)
			}

			for name, open := range map[string]func() (*Image, *ImageRecovery){
				"file":   func() (*Image, *ImageRecovery) { return openTestImage(t, path, ImageOptions{}) },
				"shadow": func() (*Image, *ImageRecovery) { return reopenBytes(t, dir, "snap", snap) },
			} {
				img, info := open()
				if info.Records != 2 || info.LiveKeys != 2 {
					t.Fatalf("%s: reopened to %d records / %d keys, want the 2 committed before the failed batch",
						name, info.Records, info.LiveKeys)
				}
				img.Close()
			}
		})
	}
}

// TestImageCompactionInsideBatch overflows the image in the middle of a
// batch. The records appended before the compaction must be durable when
// it happens (committed, then carried into the new file), and the batch
// must go on in the new mapping.
func TestImageCompactionInsideBatch(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "img")
	im, _ := openTestImage(t, path, ImageOptions{Capacity: MinImageCapacity, TrackShadow: true})
	payload := bytes.Repeat([]byte{0x3C}, 1024)
	const n = 100 // 100 KiB of records into a 64 KiB image

	im.Begin()
	beforeCompaction := -1
	for i := 0; i < n; i++ {
		if err := im.Put(NSStore, fmt.Sprintf("k%03d", i), payload); err != nil {
			t.Fatal(err)
		}
		if beforeCompaction < 0 && im.Stats().Compactions > 0 {
			beforeCompaction = i // record i was the first into the new file
		}
	}
	if beforeCompaction <= 0 {
		t.Fatal("the batch never compacted")
	}
	mid, err := im.DurableSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	if err := im.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := im.Close(); err != nil {
		t.Fatal(err)
	}

	// Power loss after the compaction, before the batch's Commit.
	img, info := reopenBytes(t, dir, "mid", mid)
	if info.LiveKeys < beforeCompaction || info.Generation == 0 {
		t.Fatalf("mid-batch snapshot holds %d keys at generation %d, want at least the %d appended before the compaction",
			info.LiveKeys, info.Generation, beforeCompaction)
	}
	for i := 0; i < n; i++ {
		if _, ok := img.Get(NSStore, fmt.Sprintf("k%03d", i)); ok != (i < info.LiveKeys) {
			t.Fatalf("mid-batch snapshot is not a prefix: k%03d present=%v of %d keys", i, ok, info.LiveKeys)
		}
	}
	img.Close()

	img, info = openTestImage(t, path, ImageOptions{})
	defer img.Close()
	if info.LiveKeys != n || info.DiscardedTailBytes != 0 {
		t.Fatalf("after Commit: %d keys, %d tail bytes discarded, want %d and 0", info.LiveKeys, info.DiscardedTailBytes, n)
	}
}

// TestImageMsyncShadowWidensToPage pins the shadow to the range the
// platform sync really covers: from the page boundary below off.
func TestImageMsyncShadowWidensToPage(t *testing.T) {
	im, _ := openTestImage(t, filepath.Join(t.TempDir(), "img"), ImageOptions{TrackShadow: true})
	defer im.Close()
	off := int64(headerSize) + 100
	b := im.m.bytes()
	b[off-1], b[off], b[off+1] = 0x11, 0x22, 0x33
	if err := im.msync(off, off+1); err != nil {
		t.Fatal(err)
	}
	if im.shadow[off-1] != 0x11 || im.shadow[off] != 0x22 {
		t.Fatalf("shadow below off = %#x, at off = %#x: the sync covers the page from its start", im.shadow[off-1], im.shadow[off])
	}
	if im.shadow[off+1] != 0 {
		t.Fatal("shadow claims a byte past the synced range")
	}
}

// TestImageHotPathAllocs budgets the steady-state allocations of the
// record path: a Put keeps one composite key and one payload copy in the
// live map and allocates nothing else; a Delete allocates nothing.
func TestImageHotPathAllocs(t *testing.T) {
	im, _ := openTestImage(t, filepath.Join(t.TempDir(), "img"), ImageOptions{Capacity: 8 << 20})
	defer im.Close()
	var payload [54]byte
	var key [8]byte
	i := 0
	im.Begin()
	put := testing.AllocsPerRun(500, func() {
		key[7], key[6] = byte(i), byte(i>>8)
		i++
		if err := im.Put(NSParked, string(key[:]), payload[:]); err != nil {
			t.Fatal(err)
		}
	})
	i = 0
	del := testing.AllocsPerRun(500, func() {
		key[7], key[6] = byte(i), byte(i>>8)
		i++
		if err := im.Delete(NSParked, string(key[:])); err != nil {
			t.Fatal(err)
		}
	})
	if err := im.Commit(); err != nil {
		t.Fatal(err)
	}
	if put > 2 {
		t.Errorf("Put allocates %.0f times, budget 2 (composite key, payload copy)", put)
	}
	if del > 0 {
		t.Errorf("Delete allocates %.0f times, budget 0", del)
	}
}
