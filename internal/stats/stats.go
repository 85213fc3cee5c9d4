// Package stats provides small statistical helpers shared by the
// experiment drivers: log-scale histograms (byte lifetimes span seven
// decades), running means, and byte/percentage formatting.
package stats

import (
	"fmt"
	"math"
	"sort"
)

// LogHistogram buckets positive values by powers of two, weighted by a
// count (e.g. bytes per lifetime).
type LogHistogram struct {
	buckets map[int]int64
	total   int64
}

// NewLogHistogram returns an empty histogram.
func NewLogHistogram() *LogHistogram {
	return &LogHistogram{buckets: make(map[int]int64)}
}

// Add records weight at the given value (values < 1 share the lowest
// bucket).
func (h *LogHistogram) Add(value int64, weight int64) {
	if weight <= 0 {
		return
	}
	b := 0
	if value > 0 {
		b = int(math.Ilogb(float64(value)))
	}
	h.buckets[b] += weight
	h.total += weight
}

// Total returns the accumulated weight.
func (h *LogHistogram) Total() int64 { return h.total }

// CumulativeAt returns the fraction of weight at values <= v.
func (h *LogHistogram) CumulativeAt(v int64) float64 {
	if h.total == 0 {
		return 0
	}
	limit := 0
	if v > 0 {
		limit = int(math.Ilogb(float64(v)))
	}
	var sum int64
	for b, w := range h.buckets {
		if b <= limit {
			sum += w
		}
	}
	return float64(sum) / float64(h.total)
}

// Buckets returns (lowerBound, weight) pairs in ascending order.
func (h *LogHistogram) Buckets() ([]int64, []int64) {
	keys := make([]int, 0, len(h.buckets))
	for b := range h.buckets {
		keys = append(keys, b)
	}
	sort.Ints(keys)
	lows := make([]int64, len(keys))
	weights := make([]int64, len(keys))
	for i, b := range keys {
		lows[i] = int64(1) << uint(b)
		weights[i] = h.buckets[b]
	}
	return lows, weights
}

// Mean accumulates a running mean.
type Mean struct {
	n   int64
	sum float64
}

// Add records one observation.
func (m *Mean) Add(v float64) { m.n++; m.sum += v }

// Value returns the mean (0 when empty).
func (m *Mean) Value() float64 {
	if m.n == 0 {
		return 0
	}
	return m.sum / float64(m.n)
}

// N returns the observation count.
func (m *Mean) N() int64 { return m.n }

// FormatBytes renders a byte count with a binary unit suffix.
func FormatBytes(n int64) string {
	const unit = 1024
	if n < unit {
		return fmt.Sprintf("%d B", n)
	}
	div, exp := int64(unit), 0
	for m := n / unit; m >= unit; m /= unit {
		div *= unit
		exp++
	}
	return fmt.Sprintf("%.1f %ciB", float64(n)/float64(div), "KMGTPE"[exp])
}

// Pct renders a fraction as a percentage with one decimal.
func Pct(frac float64) string { return fmt.Sprintf("%5.1f%%", frac*100) }
