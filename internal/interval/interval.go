package interval

import (
	"fmt"
	"sort"
)

// Range is a half-open byte range [Start, End). A Range with End <= Start is
// empty.
type Range struct {
	Start, End int64
}

// Len returns the number of bytes in the range, or 0 if it is empty.
func (r Range) Len() int64 {
	if r.End <= r.Start {
		return 0
	}
	return r.End - r.Start
}

// Empty reports whether the range contains no bytes.
func (r Range) Empty() bool { return r.End <= r.Start }

// Contains reports whether b lies within the range.
func (r Range) Contains(b int64) bool { return b >= r.Start && b < r.End }

// Intersect returns the overlap of r and o (possibly empty).
func (r Range) Intersect(o Range) Range {
	s, e := r.Start, r.End
	if o.Start > s {
		s = o.Start
	}
	if o.End < e {
		e = o.End
	}
	if e < s {
		e = s
	}
	return Range{s, e}
}

func (r Range) String() string { return fmt.Sprintf("[%d,%d)", r.Start, r.End) }

// Set is a set of bytes represented as sorted, disjoint, non-adjacent
// half-open ranges. The zero value is an empty set ready to use.
type Set struct {
	rs []Range
}

// NewSet returns a set containing the given ranges.
func NewSet(rs ...Range) *Set {
	s := &Set{}
	for _, r := range rs {
		s.Add(r)
	}
	return s
}

// Len returns the total number of bytes in the set.
func (s *Set) Len() int64 {
	var n int64
	for _, r := range s.rs {
		n += r.Len()
	}
	return n
}

// NumRanges returns the number of disjoint ranges in the set.
func (s *Set) NumRanges() int { return len(s.rs) }

// Ranges returns a copy of the set's ranges in ascending order.
func (s *Set) Ranges() []Range {
	out := make([]Range, len(s.rs))
	copy(out, s.rs)
	return out
}

// Clone returns a deep copy of the set.
func (s *Set) Clone() *Set {
	return &Set{rs: s.Ranges()}
}

// Clear removes all bytes from the set.
func (s *Set) Clear() { s.rs = s.rs[:0] }

// Contains reports whether byte b is in the set.
func (s *Set) Contains(b int64) bool {
	i := sort.Search(len(s.rs), func(i int) bool { return s.rs[i].End > b })
	return i < len(s.rs) && s.rs[i].Contains(b)
}

// ContainsRange reports whether every byte of r is in the set.
func (s *Set) ContainsRange(r Range) bool {
	if r.Empty() {
		return true
	}
	i := sort.Search(len(s.rs), func(i int) bool { return s.rs[i].End > r.Start })
	return i < len(s.rs) && s.rs[i].Start <= r.Start && s.rs[i].End >= r.End
}

// Add inserts all bytes of r into the set, coalescing adjacent ranges.
func (s *Set) Add(r Range) {
	if r.Empty() {
		return
	}
	// Find the insertion window: all existing ranges that overlap or are
	// adjacent to r get merged into it.
	lo := sort.Search(len(s.rs), func(i int) bool { return s.rs[i].End >= r.Start })
	hi := sort.Search(len(s.rs), func(i int) bool { return s.rs[i].Start > r.End })
	if lo < hi {
		if s.rs[lo].Start < r.Start {
			r.Start = s.rs[lo].Start
		}
		if s.rs[hi-1].End > r.End {
			r.End = s.rs[hi-1].End
		}
	}
	s.splice(lo, hi, r.Start, r.End)
}

// splice replaces s.rs[lo:hi] with the single range [start, end), shifting
// the tail in place so steady-state adds and removes never reallocate.
func (s *Set) splice(lo, hi int, start, end int64) {
	if lo == hi {
		// Pure insertion: grow by one and shift the tail right.
		s.rs = append(s.rs, Range{})
		copy(s.rs[lo+1:], s.rs[lo:])
	} else if hi-lo > 1 {
		// Net shrink: shift the tail left over the merged window.
		s.rs = s.rs[:lo+1+copy(s.rs[lo+1:], s.rs[hi:])]
	}
	s.rs[lo] = Range{start, end}
}

// Remove deletes all bytes of r from the set and returns the number of bytes
// actually removed.
func (s *Set) Remove(r Range) int64 {
	if r.Empty() || len(s.rs) == 0 {
		return 0
	}
	lo := sort.Search(len(s.rs), func(i int) bool { return s.rs[i].End > r.Start })
	hi := sort.Search(len(s.rs), func(i int) bool { return s.rs[i].Start >= r.End })
	if lo >= hi {
		return 0
	}
	var removed int64
	// Only the window's first and last ranges can leave survivors: a left
	// fragment of rs[lo] and a right fragment of rs[hi-1].
	var keep [2]Range
	nk := 0
	for i := lo; i < hi; i++ {
		cur := s.rs[i]
		removed += cur.Intersect(r).Len()
		if cur.Start < r.Start {
			keep[nk] = Range{cur.Start, r.Start}
			nk++
		}
		if cur.End > r.End {
			keep[nk] = Range{r.End, cur.End}
			nk++
		}
	}
	switch shift := (hi - lo) - nk; {
	case shift > 0:
		s.rs = s.rs[:lo+nk+copy(s.rs[lo+nk:], s.rs[hi:])]
	case shift < 0: // one covered range splits into two fragments
		s.rs = append(s.rs, Range{})
		copy(s.rs[hi+1:], s.rs[hi:])
	}
	copy(s.rs[lo:lo+nk], keep[:nk])
	return removed
}

// IntersectRange returns the portions of r present in the set, in order.
func (s *Set) IntersectRange(r Range) []Range {
	if r.Empty() {
		return nil
	}
	lo := sort.Search(len(s.rs), func(i int) bool { return s.rs[i].End > r.Start })
	var out []Range
	for i := lo; i < len(s.rs) && s.rs[i].Start < r.End; i++ {
		iv := s.rs[i].Intersect(r)
		if !iv.Empty() {
			out = append(out, iv)
		}
	}
	return out
}

// OverlapLen returns the number of bytes of r present in the set.
func (s *Set) OverlapLen(r Range) int64 {
	if r.Empty() {
		return 0
	}
	lo := sort.Search(len(s.rs), func(i int) bool { return s.rs[i].End > r.Start })
	var n int64
	for i := lo; i < len(s.rs) && s.rs[i].Start < r.End; i++ {
		n += s.rs[i].Intersect(r).Len()
	}
	return n
}

// Min returns the smallest byte in the set; ok is false if the set is empty.
func (s *Set) Min() (b int64, ok bool) {
	if len(s.rs) == 0 {
		return 0, false
	}
	return s.rs[0].Start, true
}

// Max returns one past the largest byte in the set; ok is false if empty.
func (s *Set) Max() (b int64, ok bool) {
	if len(s.rs) == 0 {
		return 0, false
	}
	return s.rs[len(s.rs)-1].End, true
}

func (s *Set) String() string {
	return fmt.Sprint(s.rs)
}

// check verifies internal invariants; used by tests.
func (s *Set) check() error {
	for i, r := range s.rs {
		if r.Empty() {
			return fmt.Errorf("interval: empty range %v at %d", r, i)
		}
		if i > 0 && s.rs[i-1].End >= r.Start {
			return fmt.Errorf("interval: ranges %v and %v overlap or touch", s.rs[i-1], r)
		}
	}
	return nil
}
