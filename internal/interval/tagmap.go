package interval

import (
	"fmt"
	"sort"
)

// Seg is a tagged byte range: every byte in [Start, End) carries Tag.
// In the simulators the tag is the simulated time at which the bytes were
// written, so removing a segment yields both how many bytes died and how old
// they were.
type Seg struct {
	Start, End int64
	Tag        int64
}

// Len returns the number of bytes in the segment.
func (g Seg) Len() int64 {
	if g.End <= g.Start {
		return 0
	}
	return g.End - g.Start
}

// Range returns the segment's byte range without its tag.
func (g Seg) Range() Range { return Range{g.Start, g.End} }

func (g Seg) String() string { return fmt.Sprintf("[%d,%d)@%d", g.Start, g.End, g.Tag) }

// TagMap maps each byte of a sparse address space to an int64 tag. Segments
// are kept sorted and disjoint; adjacent segments with equal tags are
// coalesced. The zero value is an empty map ready to use.
//
// The mutating accessors (Insert, Remove, RemoveAll) return slices backed by
// an internal scratch buffer that is reused across calls: a returned slice
// is valid only until the map's next mutating call. Callers that need the
// segments longer must copy them (Segs always copies).
type TagMap struct {
	segs    []Seg
	scratch []Seg // backs the slices returned by Insert/Remove/RemoveAll
}

// NewTagMap returns an empty TagMap.
func NewTagMap() *TagMap { return &TagMap{} }

// Len returns the total number of tagged bytes.
func (m *TagMap) Len() int64 {
	var n int64
	for _, g := range m.segs {
		n += g.Len()
	}
	return n
}

// NumSegs returns the number of internal segments.
func (m *TagMap) NumSegs() int { return len(m.segs) }

// Segs returns a copy of all segments in ascending order.
func (m *TagMap) Segs() []Seg {
	out := make([]Seg, len(m.segs))
	copy(out, m.segs)
	return out
}

// Clone returns a deep copy of the map.
func (m *TagMap) Clone() *TagMap { return &TagMap{segs: m.Segs()} }

// Clear removes all segments.
func (m *TagMap) Clear() { m.segs = m.segs[:0] }

// Insert tags every byte of r with tag, replacing any previous tags. It
// returns the segments that were overwritten (with their old tags), in
// ascending order, valid until the map's next mutating call. The returned
// segments cover exactly the bytes of r that were previously present in the
// map.
func (m *TagMap) Insert(r Range, tag int64) (overwritten []Seg) {
	if r.Empty() {
		return nil
	}
	overwritten = m.Remove(r)
	m.insertSeg(Seg{r.Start, r.End, tag})
	return overwritten
}

// insertSeg inserts a segment assumed not to overlap any existing segment,
// coalescing with equal-tag neighbours.
func (m *TagMap) insertSeg(g Seg) {
	i := sort.Search(len(m.segs), func(i int) bool { return m.segs[i].Start >= g.Start })
	// Coalesce with left neighbour.
	if i > 0 && m.segs[i-1].End == g.Start && m.segs[i-1].Tag == g.Tag {
		g.Start = m.segs[i-1].Start
		i--
		m.segs = m.segs[:i+copy(m.segs[i:], m.segs[i+1:])]
	}
	// Coalesce with right neighbour.
	if i < len(m.segs) && m.segs[i].Start == g.End && m.segs[i].Tag == g.Tag {
		g.End = m.segs[i].End
		m.segs = m.segs[:i+copy(m.segs[i:], m.segs[i+1:])]
	}
	m.segs = append(m.segs, Seg{})
	copy(m.segs[i+1:], m.segs[i:])
	m.segs[i] = g
}

// Remove deletes all bytes of r from the map and returns the removed
// segments (clipped to r) with their tags, in ascending order. The returned
// slice is valid until the map's next mutating call.
func (m *TagMap) Remove(r Range) []Seg {
	if r.Empty() || len(m.segs) == 0 {
		return nil
	}
	lo := sort.Search(len(m.segs), func(i int) bool { return m.segs[i].End > r.Start })
	hi := sort.Search(len(m.segs), func(i int) bool { return m.segs[i].Start >= r.End })
	if lo >= hi {
		return nil
	}
	removed := m.scratch[:0]
	// Only the window's first and last segments can leave survivors: a
	// left fragment of segs[lo] and a right fragment of segs[hi-1].
	var keep [2]Seg
	nk := 0
	for i := lo; i < hi; i++ {
		cur := m.segs[i]
		iv := cur.Range().Intersect(r)
		removed = append(removed, Seg{iv.Start, iv.End, cur.Tag})
		if cur.Start < r.Start {
			keep[nk] = Seg{cur.Start, r.Start, cur.Tag}
			nk++
		}
		if cur.End > r.End {
			keep[nk] = Seg{r.End, cur.End, cur.Tag}
			nk++
		}
	}
	m.scratch = removed
	switch shift := (hi - lo) - nk; {
	case shift > 0:
		m.segs = m.segs[:lo+nk+copy(m.segs[lo+nk:], m.segs[hi:])]
	case shift < 0: // one covered segment splits into two fragments
		m.segs = append(m.segs, Seg{})
		copy(m.segs[hi+1:], m.segs[hi:])
	}
	copy(m.segs[lo:lo+nk], keep[:nk])
	return removed
}

// RemoveAll empties the map and returns every segment it held, valid until
// the map's next mutating call.
func (m *TagMap) RemoveAll() []Seg {
	out := append(m.scratch[:0], m.segs...)
	m.scratch = out
	m.segs = m.segs[:0]
	return out
}

// Overlap returns the segments of the map intersecting r, clipped to r,
// without modifying the map.
func (m *TagMap) Overlap(r Range) []Seg {
	if r.Empty() {
		return nil
	}
	lo := sort.Search(len(m.segs), func(i int) bool { return m.segs[i].End > r.Start })
	var out []Seg
	for i := lo; i < len(m.segs) && m.segs[i].Start < r.End; i++ {
		iv := m.segs[i].Range().Intersect(r)
		if !iv.Empty() {
			out = append(out, Seg{iv.Start, iv.End, m.segs[i].Tag})
		}
	}
	return out
}

// OverlapLen returns the number of tagged bytes within r.
func (m *TagMap) OverlapLen(r Range) int64 {
	var n int64
	for _, g := range m.Overlap(r) {
		n += g.Len()
	}
	return n
}

// MinTag returns the smallest tag present; ok is false if the map is empty.
func (m *TagMap) MinTag() (tag int64, ok bool) {
	if len(m.segs) == 0 {
		return 0, false
	}
	tag = m.segs[0].Tag
	for _, g := range m.segs[1:] {
		if g.Tag < tag {
			tag = g.Tag
		}
	}
	return tag, true
}

// SegsOlderThan returns the segments whose tag is strictly less than cutoff.
func (m *TagMap) SegsOlderThan(cutoff int64) []Seg {
	var out []Seg
	for _, g := range m.segs {
		if g.Tag < cutoff {
			out = append(out, g)
		}
	}
	return out
}

func (m *TagMap) String() string { return fmt.Sprint(m.segs) }

// check verifies internal invariants; used by tests.
func (m *TagMap) check() error {
	for i, g := range m.segs {
		if g.Len() <= 0 {
			return fmt.Errorf("interval: empty seg %v at %d", g, i)
		}
		if i > 0 {
			prev := m.segs[i-1]
			if prev.End > g.Start {
				return fmt.Errorf("interval: segs %v and %v overlap", prev, g)
			}
			if prev.End == g.Start && prev.Tag == g.Tag {
				return fmt.Errorf("interval: segs %v and %v should be coalesced", prev, g)
			}
		}
	}
	return nil
}

// ForEach calls fn for every segment in ascending order, without copying.
func (m *TagMap) ForEach(fn func(Seg)) {
	for _, g := range m.segs {
		fn(g)
	}
}
