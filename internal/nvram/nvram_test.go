package nvram

import (
	"bytes"
	"testing"
	"time"

	"nvramfs/internal/disk"
)

func TestStoreCrashPreservesNVRAM(t *testing.T) {
	s := NewStore(2)
	if err := s.PutVolatile("cache-block", []byte("dirty")); err != nil {
		t.Fatal(err)
	}
	if err := s.PutNonVolatile("nvram-block", []byte("safe")); err != nil {
		t.Fatal(err)
	}
	s.Crash()
	if _, ok := s.Get("cache-block"); ok {
		t.Fatal("volatile data survived crash")
	}
	d, ok := s.Get("nvram-block")
	if !ok || !bytes.Equal(d, []byte("safe")) {
		t.Fatal("NVRAM data lost in crash")
	}
}

func TestStoreDetachMovesData(t *testing.T) {
	// Section 4: an NVRAM component can be moved to another client and its
	// data retrieved there.
	s := NewStore(1)
	s.PutNonVolatile("k", []byte("v"))
	moved := s.Detach()
	if d, ok := moved.Get("k"); !ok || !bytes.Equal(d, []byte("v")) {
		t.Fatal("data not retrievable after detach")
	}
	if err := s.PutVolatile("x", nil); err == nil {
		t.Fatal("detached store still usable")
	}
}

func TestStoreBatteryFailure(t *testing.T) {
	s := NewStore(2)
	s.PutNonVolatile("k", []byte("v"))
	s.FailBattery() // one spare remains
	if _, ok := s.Get("k"); !ok {
		t.Fatal("data lost with a spare battery present")
	}
	s.FailBattery() // last battery gone
	if _, ok := s.Get("k"); ok {
		t.Fatal("data survived total battery failure")
	}
	if err := s.PutNonVolatile("k2", nil); err == nil {
		t.Fatal("store accepted data with no battery")
	}
}

// Regression: a detached store must refuse reads, not serve them from the
// board that was physically removed.
func TestStoreDetachedRefusesReads(t *testing.T) {
	s := NewStore(1)
	s.PutVolatile("vol", []byte("v"))
	s.PutNonVolatile("nv", []byte("n"))
	s.Detach()
	if _, ok := s.Get("nv"); ok {
		t.Fatal("detached store served a non-volatile read")
	}
	if _, ok := s.Get("vol"); ok {
		t.Fatal("detached store served a volatile read")
	}
}

// Regression: Crash on a detached store must not clear anything — the
// moved board's data is referenced by the detached-to store.
func TestStoreDetachedCrashIsNoop(t *testing.T) {
	s := NewStore(1)
	s.PutNonVolatile("k", []byte("v"))
	moved := s.Detach()
	s.Crash()
	if d, ok := moved.Get("k"); !ok || !bytes.Equal(d, []byte("v")) {
		t.Fatal("crash of the detached-from store lost moved data")
	}
}

// Regression: Get used to return the internal slice, letting callers
// mutate "non-volatile" contents in place without a Put.
func TestStoreGetReturnsCopy(t *testing.T) {
	s := NewStore(1)
	s.PutNonVolatile("nv", []byte("original"))
	s.PutVolatile("vol", []byte("original"))
	for _, key := range []string{"nv", "vol"} {
		d, _ := s.Get(key)
		copy(d, "XXXXXXXX")
		if again, _ := s.Get(key); !bytes.Equal(again, []byte("original")) {
			t.Fatalf("Get(%s) aliases internal state: %q", key, again)
		}
	}
}

// Regression: a store whose batteries are gone (even when the exported
// field is zeroed directly, bypassing FailBattery) must lose the
// non-volatile region on Crash — PutNonVolatile already refuses such a
// store, so preserving old contents across a crash was inconsistent.
func TestStoreDeadBatteryCrashLosesNVRAM(t *testing.T) {
	s := NewStore(1)
	s.PutNonVolatile("k", []byte("v"))
	s.Batteries = 0
	s.Crash()
	if _, ok := s.Get("k"); ok {
		t.Fatal("dead-battery store preserved NVRAM across a crash")
	}
	// With a battery present, Crash still preserves it.
	s2 := NewStore(1)
	s2.PutNonVolatile("k", []byte("v"))
	s2.Crash()
	if _, ok := s2.Get("k"); !ok {
		t.Fatal("battery-backed store lost NVRAM in a crash")
	}
}

func TestSortedBufferUtilizationBands(t *testing.T) {
	// The [20] analysis: random 4 KB writes use only a few percent of the
	// disk bandwidth; 1000 buffered and sorted I/Os (4 MB of NVRAM) reach
	// tens of percent.
	p := disk.Params{
		AvgSeek:      14 * time.Millisecond,
		AvgRotation:  8300 * time.Microsecond,
		TransferRate: 2_000_000,
	}
	random := SortedBufferUtilization(p, 1, 4<<10)
	if random < 0.02 || random > 0.15 {
		t.Fatalf("random-write utilization = %.3f, want a few percent", random)
	}
	sorted := SortedBufferUtilization(p, 1000, 4<<10)
	if sorted < 0.25 || sorted > 0.60 {
		t.Fatalf("sorted-1000 utilization = %.3f, want ~40%%", sorted)
	}
	if sorted <= random {
		t.Fatal("sorting did not help")
	}
	// Utilization is monotone in the number of buffered writes.
	prev := 0.0
	for _, n := range []int{1, 10, 100, 1000, 10000} {
		u := SortedBufferUtilization(p, n, 4<<10)
		if u < prev {
			t.Fatalf("utilization not monotone at n=%d", n)
		}
		prev = u
	}
	// "1000 I/O's, requiring four megabytes of NVRAM" — 1000 x 4 KB.
	if got := BufferForWrites(1000, 4<<10); got != 1000*4096 {
		t.Fatalf("BufferForWrites = %d", got)
	}
}
