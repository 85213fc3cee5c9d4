package stats

import (
	"math/rand"
	"sort"
)

// Reservoir is a fixed-capacity uniform sample of an observation stream
// (Vitter's Algorithm R) with exact quantiles over the sample. The
// daemon's load generator needs real p50/p99 latencies, and power-of-two
// bucket edges are too coarse for that — a 400µs p99 and a 510µs p99 land
// in the same bucket. The sampler is seeded, so a fixed
// observation stream yields a fixed sample.
type Reservoir struct {
	cap    int
	n      int64
	sample []int64
	rng    *rand.Rand
	sorted bool
}

// NewReservoir returns a reservoir keeping at most capacity observations
// (minimum 1). Deterministic for a given seed and observation order.
func NewReservoir(capacity int, seed int64) *Reservoir {
	if capacity < 1 {
		capacity = 1
	}
	return &Reservoir{
		cap:    capacity,
		sample: make([]int64, 0, capacity),
		rng:    rand.New(rand.NewSource(seed)),
	}
}

// Observe records one observation.
func (r *Reservoir) Observe(v int64) {
	r.n++
	r.sorted = false
	if len(r.sample) < r.cap {
		r.sample = append(r.sample, v)
		return
	}
	if j := r.rng.Int63n(r.n); j < int64(r.cap) {
		r.sample[j] = v
	}
}

// N returns how many observations were offered (not how many are held).
func (r *Reservoir) N() int64 { return r.n }

// Quantile returns the p-th quantile (0 <= p <= 1) of the held sample by
// nearest-rank, or 0 when empty. Exact while the stream fits in the
// reservoir; a uniform-sample estimate beyond that.
func (r *Reservoir) Quantile(p float64) int64 {
	if len(r.sample) == 0 {
		return 0
	}
	if !r.sorted {
		sort.Slice(r.sample, func(i, j int) bool { return r.sample[i] < r.sample[j] })
		r.sorted = true
	}
	rank := int(p*float64(len(r.sample)) + 0.5)
	if rank >= len(r.sample) {
		rank = len(r.sample) - 1
	}
	if rank < 0 {
		rank = 0
	}
	return r.sample[rank]
}
