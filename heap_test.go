package nvramfs_test

// Bounded-memory gate. It streams a workload twice, the second time grown
// tenfold, and requires the peak live heap to stay within 2x: the
// streaming pipeline holds O(cache size + live files), and a stage that
// starts materializing the trace or retaining per-client state fails by
// far more than that.

import (
	"runtime"
	"runtime/metrics"
	"testing"
	"time"

	"nvramfs/internal/cache"
	"nvramfs/internal/prep"
	"nvramfs/internal/sim"
	"nvramfs/internal/trace"
	"nvramfs/internal/workload"
)

// peakLiveHeap runs consume over src and returns the event count and the
// peak live heap seen meanwhile, sampled every 8192 events.
func peakLiveHeap(src trace.EventSource, consume func(trace.EventSource) error) (int64, uint64, error) {
	s := &heapSampler{src: src, live: []metrics.Sample{{Name: "/gc/heap/live:bytes"}}}
	s.sample()
	err := consume(s)
	s.sample()
	return s.n, s.peak, err
}

// heapSampler forwards an event stream, sampling the live heap as it goes.
type heapSampler struct {
	src  trace.EventSource
	n    int64
	live []metrics.Sample
	peak uint64
}

func (s *heapSampler) Next() (trace.Event, bool, error) {
	e, ok, err := s.src.Next()
	if ok {
		if s.n%8192 == 0 {
			s.sample()
		}
		s.n++
	}
	return e, ok, err
}

// sample collects and then reads the live heap: what that collection
// marked reachable (/gc/heap/live:bytes). Unlike MemStats.HeapAlloc it
// leaves out garbage awaiting collection, and forcing the collection pins
// the sample to this point of the stream, not to wherever the runtime last
// happened to collect (a short base run collects too rarely for that).
func (s *heapSampler) sample() {
	runtime.GC()
	metrics.Read(s.live)
	s.peak = max(s.peak, s.live[0].Value.Uint64())
}

// TestStreamHeapBound streams a steady-live-set trace through
// canonicalization and a unified-model simulation, then the same trace run
// ten times as long, and fails if the long run's peak live heap exceeds
// twice the short run's.
func TestStreamHeapBound(t *testing.T) {
	if testing.Short() {
		t.Skip("heap gate skipped in -short mode")
	}
	if raceEnabled {
		t.Skip("the race detector's shadow heap is not the program's heap")
	}
	run := func(p workload.Profile) (int64, uint64) {
		n, peak, err := peakLiveHeap(workload.NewCursor(p), func(src trace.EventSource) error {
			_, err := sim.Run(prep.NewSource(src, prep.Options{Trusted: true}), sim.Config{
				Model: cache.ModelUnified,
				Cache: cache.Config{
					// Small enough that the base run already fills both
					// memories on every client: a cache the base run only
					// part-fills would read as growth in the grown run.
					VolatileBlocks: sim.BlocksForBytes(1*sim.MB, cache.DefaultBlockSize),
					NVRAMBlocks:    sim.BlocksForBytes(sim.MB/4, cache.DefaultBlockSize),
					Policy:         cache.LRU,
				},
				Seed: 7,
			})
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
		return n, peak
	}
	p := steadyProfile()
	baseN, basePeak := run(p)
	p.Duration *= 10
	grownN, grownPeak := run(p)
	ratio := float64(grownPeak) / float64(basePeak)
	t.Logf("stream 10x: %d events peak live %.1f MiB -> %d events peak live %.1f MiB (ratio %.2f)",
		baseN, float64(basePeak)/(1<<20), grownN, float64(grownPeak)/(1<<20), ratio)
	if ratio > 2 {
		t.Fatalf("stream 10x: peak live heap grew %.2fx, bound 2x", ratio)
	}
}

// steadyProfile is development and producer/consumer activity whose
// live-file population is steady: temps, objects and outputs are deleted
// before their replacements are created, and the read corpora are fixed.
// On a workload that keeps accreting live files (the editor actor abandons
// old documents, as real users do) the peak tracks that live set, which
// every correct simulator must hold, and the materialization signal drowns.
func steadyProfile() workload.Profile {
	var actors []workload.ActorConfig
	add := func(k workload.Kind, client, peer uint32) {
		actors = append(actors, workload.ActorConfig{Kind: k, Client: client, Peer: peer, Intensity: 1})
	}
	for c := uint32(1); c <= 4; c++ {
		add(workload.KindBuild, c, 0)
	}
	add(workload.KindMail, 5, 0)
	add(workload.KindShared, 6, 7)
	add(workload.KindSim, 8, 0)
	return workload.Profile{
		Name:     "memsteady",
		Seed:     4242,
		Duration: 24 * time.Hour,
		Scale:    0.02,
		Clients:  9,
		Actors:   actors,
	}
}
