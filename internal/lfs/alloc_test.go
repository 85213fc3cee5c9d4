package lfs

import "testing"

// TestSteadyStateAllocs pins the allocation budget of the LFS steady
// state: a warmed file system overwriting a working set one full segment
// at a time, with the cleaner reclaiming the emptied segments. Each write
// drains one segment, and only that segment's summary record (the record
// and its block list) and the drained batch may allocate; block state lives
// in tables that have stopped growing, and the age heap reuses its array.
func TestSteadyStateAllocs(t *testing.T) {
	fs := newFS(t, Config{})
	per := int64(fs.Config().BlocksPerSegment())
	const working = 64 // segments of overwritten data, over four files
	var now, i int64
	write := func() {
		seg := i % working
		fs.Write(now, uint64(1+seg%4), seg/4*per*4*kb, per*4*kb)
		now += sec
		i++
	}
	for range 4 * fs.Config().DiskSegments {
		write()
	}
	if fs.Stats().CleanerRuns == 0 {
		t.Fatal("warm-up never ran the cleaner")
	}
	if got := testing.AllocsPerRun(1000, write); got > 3 {
		t.Fatalf("%v allocations per full-segment overwrite, budget 3", got)
	}
}
