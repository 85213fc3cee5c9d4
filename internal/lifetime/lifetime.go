// Package lifetime implements the paper's byte-lifetime analyses: the
// infinite-cache simulation that determines the fate of every written byte
// (Table 2), the write-back-delay sweep derived from it (Figure 2), and the
// next-modify-time schedule that powers the omniscient replacement policy
// (Figures 3 and 4).
package lifetime

import (
	"fmt"
	"sort"

	"nvramfs/internal/blockmap"
	"nvramfs/internal/cache"
	"nvramfs/internal/consist"
	"nvramfs/internal/interval"
	"nvramfs/internal/prep"
)

// DeathCause says how a byte died in the (infinite) non-volatile cache.
type DeathCause uint8

// Death causes.
const (
	// DeathOverwrite: the byte was overwritten by a later write.
	DeathOverwrite DeathCause = iota
	// DeathDelete: the byte's file range was deleted or truncated away.
	DeathDelete
)

func (c DeathCause) String() string {
	if c == DeathOverwrite {
		return "overwrite"
	}
	return "delete"
}

// Death records a run of bytes that died in the cache.
type Death struct {
	Created int64 // write time
	Died    int64 // overwrite/delete time
	Bytes   int64
	Cause   DeathCause
}

// Age returns how long the bytes lived.
func (d Death) Age() int64 { return d.Died - d.Created }

// Fate tallies every application-written byte into the categories of the
// paper's Table 2. The categories are exclusive and exhaustive:
// Overwritten + Deleted + CalledBack + Concurrent + Remaining = Total.
type Fate struct {
	// Overwritten bytes died in the cache by being overwritten.
	Overwritten int64
	// Deleted bytes died in the cache by deletion or truncation.
	Deleted int64
	// CalledBack bytes were flushed to the server by the consistency
	// mechanism (another client opened the file) or process migration.
	CalledBack int64
	// Concurrent bytes were written while caching was disabled by
	// concurrent write-sharing and bypassed the cache entirely.
	Concurrent int64
	// Remaining bytes were still in the cache at the end of the trace.
	Remaining int64
	// Total is all application-written bytes.
	Total int64
}

// Absorbed returns the bytes the infinite cache absorbed (never sent to
// the server): overwritten plus deleted.
func (f Fate) Absorbed() int64 { return f.Overwritten + f.Deleted }

// ServerBytes returns the bytes that caused server write traffic.
func (f Fate) ServerBytes() int64 { return f.CalledBack + f.Concurrent }

// check verifies the conservation law.
func (f Fate) check() error {
	sum := f.Overwritten + f.Deleted + f.CalledBack + f.Concurrent + f.Remaining
	if sum != f.Total {
		return fmt.Errorf("lifetime: fate categories sum to %d, total is %d", sum, f.Total)
	}
	return nil
}

// Analysis is the result of an infinite-cache pass over one trace.
type Analysis struct {
	Fate   Fate
	Deaths []Death

	// Sorted death ages and prefix byte sums, for the delay sweep.
	ages     []int64
	ageBytes []int64 // ageBytes[i] = bytes dying with age <= ages[i]
}

// Options configures the infinite-cache analysis.
type Options struct {
	// BlockConsistency replaces Sprite's whole-file recall with an
	// idealized block-by-block protocol: opening a file no longer flushes
	// the last writer's dirty data; instead a byte is recalled only when
	// another client actually reads it. The paper's Section 2.3 remarks
	// that reducing write traffic beyond the whole-file protocol's floor
	// "would require choosing a cache consistency policy more efficient
	// than Sprite's, such as a protocol based on block-by-block
	// invalidation and flushing" [21]; this option measures that
	// headroom.
	BlockConsistency bool
	// FilesHint pre-sizes the per-file maps (typically prep.Stats.Files);
	// zero means no hint.
	FilesHint int
}

// Analyze runs the infinite-cache simulation over a canonical op stream.
// Every client is given an infinitely large non-volatile cache: no byte is
// ever evicted, fsync is free (NVRAM is stable storage), and bytes leave
// only by dying (overwrite/delete) or through the consistency mechanism.
func Analyze(src prep.Source) (*Analysis, error) {
	return AnalyzeWith(src, Options{})
}

// AnalyzeWith runs the infinite-cache simulation with explicit options.
// The op stream is consumed in one forward pass; the analysis state is the
// per-file dirty maps plus the death log (the log is the analysis product,
// so its size is inherent to the result, not a buffering artifact).
func AnalyzeWith(src prep.Source, opts Options) (*Analysis, error) {
	a := &Analysis{}
	server := consist.NewServer()
	// dirty[file] holds the file's unflushed bytes, tagged with write
	// times. At most one client holds dirty data for a file at a time
	// (consistency recalls enforce this), tracked in owner.
	dirty := make(map[uint64]*interval.TagMap, opts.FilesHint)
	owner := make(map[uint64]uint32, opts.FilesHint)

	// Emptied TagMaps are recycled (keeping their segment capacity) instead
	// of reallocated when the file is written again.
	var tmFree []*interval.TagMap
	release := func(f uint64, m *interval.TagMap) {
		delete(dirty, f)
		delete(owner, f)
		tmFree = append(tmFree, m)
	}

	flushFile := func(f uint64) int64 {
		m := dirty[f]
		if m == nil {
			return 0
		}
		var n int64
		for _, g := range m.RemoveAll() {
			n += g.Len()
		}
		release(f, m)
		return n
	}

	for {
		op, ok, err := src.Next()
		if err != nil {
			return nil, err
		}
		if !ok {
			break
		}
		switch op.Kind {
		case prep.Open:
			res := server.Open(op.Client, op.File, op.WriteMode)
			if res.RecallFrom != consist.NoClient && !opts.BlockConsistency {
				if n := flushFile(op.File); n > 0 {
					a.Fate.CalledBack += n
					server.Flushed(res.RecallFrom, op.File)
				}
			}
			if res.JustDisabled {
				// Entering concurrent write-sharing flushes cached dirty
				// data before caching is disabled.
				a.Fate.CalledBack += flushFile(op.File)
			}

		case prep.Close:
			server.Close(op.Client, op.File)

		case prep.Write:
			a.Fate.Total += op.Range.Len()
			if server.Disabled(op.File) {
				a.Fate.Concurrent += op.Range.Len()
				server.Write(op.Client, op.File)
				continue
			}
			m := dirty[op.File]
			if m == nil {
				if n := len(tmFree); n > 0 {
					m = tmFree[n-1]
					tmFree = tmFree[:n-1]
				} else {
					m = interval.NewTagMap()
				}
				dirty[op.File] = m
			}
			owner[op.File] = op.Client
			for _, g := range m.Insert(op.Range, op.Time) {
				a.Fate.Overwritten += g.Len()
				a.Deaths = append(a.Deaths, Death{
					Created: g.Tag, Died: op.Time, Bytes: g.Len(), Cause: DeathOverwrite,
				})
			}
			server.Write(op.Client, op.File)

		case prep.DeleteRange:
			if m := dirty[op.File]; m != nil {
				for _, g := range m.Remove(op.Range) {
					a.Fate.Deleted += g.Len()
					a.Deaths = append(a.Deaths, Death{
						Created: g.Tag, Died: op.Time, Bytes: g.Len(), Cause: DeathDelete,
					})
				}
				if m.Len() == 0 {
					release(op.File, m)
				}
			}

		case prep.Fsync:
			// The NVRAM is stable storage: fsync needs no server traffic.

		case prep.MigrateFlush:
			for f, own := range owner {
				if own == op.Client {
					a.Fate.CalledBack += flushFile(f)
				}
			}
			server.FlushedClient(op.Client)

		case prep.Read:
			// Under the whole-file protocol reads never move dirty bytes
			// (the recall already happened at open). Under block-level
			// consistency, a read by a different client recalls exactly
			// the dirty bytes it touches.
			if opts.BlockConsistency {
				if m := dirty[op.File]; m != nil && owner[op.File] != op.Client {
					for _, g := range m.Remove(op.Range) {
						a.Fate.CalledBack += g.Len()
					}
					if m.Len() == 0 {
						release(op.File, m)
						server.Flushed(server.LastWriter(op.File), op.File)
					}
				}
			}

		default:
			return nil, fmt.Errorf("lifetime: unknown op kind %v", op.Kind)
		}
	}

	for _, m := range dirty {
		a.Fate.Remaining += m.Len()
	}
	if err := a.Fate.check(); err != nil {
		return nil, err
	}
	a.buildAgeIndex()
	return a, nil
}

// buildAgeIndex prepares the sorted age → cumulative-bytes index used by
// the write-back-delay sweep.
func (a *Analysis) buildAgeIndex() {
	deaths := make([]Death, len(a.Deaths))
	copy(deaths, a.Deaths)
	sort.Slice(deaths, func(i, j int) bool { return deaths[i].Age() < deaths[j].Age() })
	a.ages = a.ages[:0]
	a.ageBytes = a.ageBytes[:0]
	var cum int64
	for _, d := range deaths {
		cum += d.Bytes
		if n := len(a.ages); n > 0 && a.ages[n-1] == d.Age() {
			a.ageBytes[n-1] = cum
			continue
		}
		a.ages = append(a.ages, d.Age())
		a.ageBytes = append(a.ageBytes, cum)
	}
}

// DeadWithin returns how many bytes died in the cache within the given
// delay of being written.
func (a *Analysis) DeadWithin(delay int64) int64 {
	i := sort.Search(len(a.ages), func(i int) bool { return a.ages[i] > delay })
	if i == 0 {
		return 0
	}
	return a.ageBytes[i-1]
}

// NetWriteFracAt returns the fraction of written bytes that must go to the
// server when dirty bytes are flushed after a fixed write-back delay from a
// cache of infinite size — the y-axis of Figure 2. Bytes that die within
// the delay are absorbed; everything else (including bytes recalled by the
// consistency mechanism and bytes remaining at the end of the trace) is
// server traffic.
func (a *Analysis) NetWriteFracAt(delay int64) float64 {
	if a.Fate.Total == 0 {
		return 0
	}
	return float64(a.Fate.Total-a.DeadWithin(delay)) / float64(a.Fate.Total)
}

// Schedule holds every block's future modification times, implementing
// cache.Schedule for the omniscient replacement policy.
//
// A block is "next modified" when its bytes are next overwritten or
// deleted — the paper builds this from the log of byte runs "overwritten,
// deleted, or left remaining in the cache, along with their times of
// creation and deletion". Counting deletions is essential: a block whose
// data is about to be deleted must be retained (its bytes will die in the
// cache), while a block that is never touched again is the ideal victim
// (flushing it is inevitable traffic anyway).
// The times live in a blockmap.Table keyed by block id: the simulators
// probe the schedule on every block insertion and write, and the Go map's
// 16-byte-key hashing showed up hot. Every entry holds at least one time.
// After BuildSchedule returns, the table is read-only and safe for
// concurrent lookups.
type Schedule struct {
	times blockmap.Table[[]int64]
}

// BuildSchedule extracts per-block modification (write and delete) times
// from a canonical op stream. This is the extra trace pass the paper's
// omniscient simulations perform.
func BuildSchedule(src prep.Source, blockSize int64) (*Schedule, error) {
	if blockSize <= 0 {
		blockSize = cache.DefaultBlockSize
	}
	s := &Schedule{}
	for {
		op, ok, err := src.Next()
		if err != nil {
			return nil, err
		}
		if !ok {
			return s, nil
		}
		if op.Kind != prep.Write && op.Kind != prep.DeleteRange {
			continue
		}
		for idx := op.Range.Start / blockSize; idx*blockSize < op.Range.End; idx++ {
			ts, _ := s.times.Ref(blockmap.Key{File: op.File, Index: idx})
			if n := len(*ts); n == 0 || (*ts)[n-1] != op.Time {
				*ts = append(*ts, op.Time)
			}
		}
	}
}

// NextModify returns the earliest write to the block strictly after now,
// or cache.NeverModified.
func (s *Schedule) NextModify(id cache.BlockID, now int64) int64 {
	ts := s.ModifyTimes(id)
	i := sort.Search(len(ts), func(i int) bool { return ts[i] > now })
	if i == len(ts) {
		return cache.NeverModified
	}
	return ts[i]
}

// ModifyTimes returns the block's full modification-time slice (sorted
// ascending, nil when never modified). The slice is owned by the schedule
// and must be treated as read-only; the omniscient policy uses it to keep
// a forward cursor per cached block instead of binary-searching here on
// every write.
func (s *Schedule) ModifyTimes(id cache.BlockID) []int64 {
	ts, _ := s.times.Get(blockmap.Key(id))
	return ts
}

// Blocks returns the number of blocks with at least one recorded write.
func (s *Schedule) Blocks() int { return s.times.Len() }

// ForEach visits every block's modification-time slice. Visit order is a
// function of the table's internal layout: deterministic for a given
// build history, but not sorted — callers needing a canonical order must
// sort the visited ids themselves. The slices are owned by the schedule
// and read-only.
func (s *Schedule) ForEach(fn func(id cache.BlockID, ts []int64)) {
	s.times.Each(func(k blockmap.Key, ts []int64) { fn(cache.BlockID(k), ts) })
}

var _ cache.Schedule = (*Schedule)(nil)
