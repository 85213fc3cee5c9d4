package sim

import (
	"context"
	"testing"

	"nvramfs/internal/cache"
	"nvramfs/internal/faults"
	"nvramfs/internal/prep"
)

// TestFaultStageTransparentAtZeroFaults runs a real generated trace with
// and without a zero-fault profile installed: the stage must not perturb
// any traffic counter, and every offered byte must commit on the first
// attempt.
func TestFaultStageTransparentAtZeroFaults(t *testing.T) {
	ops := traceOps(t, 3, 0.02)
	for _, kind := range []cache.ModelKind{
		cache.ModelVolatile, cache.ModelWriteAside, cache.ModelUnified, cache.ModelHybrid,
	} {
		cfg := Config{
			Model: kind,
			Cache: cache.Config{VolatileBlocks: 512, NVRAMBlocks: 256},
			Seed:  1,
		}
		base, err := Run(prep.NewSliceSource(ops), cfg)
		if err != nil {
			t.Fatal(err)
		}
		cfg.Faults = &faults.Profile{Seed: 1}
		faulty, err := Run(prep.NewSliceSource(ops), cfg)
		if err != nil {
			t.Fatal(err)
		}
		if base.Traffic != faulty.Traffic {
			t.Fatalf("%v: zero-fault stage perturbed traffic:\n%+v\n%+v", kind, base.Traffic, faulty.Traffic)
		}
		st := faulty.Faults
		if st == nil {
			t.Fatalf("%v: no fault stats", kind)
		}
		if st.Retries != 0 || st.Drops != 0 || st.Exhausted != 0 {
			t.Fatalf("%v: zero-fault profile injected faults: %+v", kind, st)
		}
		if st.CommittedBytes != st.OfferedBytes || st.PendingBytes != 0 || st.LostBytes != 0 {
			t.Fatalf("%v: zero-fault bytes went astray: %+v", kind, st)
		}
		if faulty.ReplayedWrites != 0 {
			t.Fatalf("%v: phantom replays: %d", kind, faulty.ReplayedWrites)
		}
	}
}

// outageOps is a small two-client trace whose write-backs land inside a
// [20s, 90s) server outage: the volatile cleaner fires at 31s, a recall
// flush fires at 40s, and a final op at 200s (after recovery) lets the
// backlog drain before the end-of-trace flush.
func outageOps() []prep.Op {
	return []prep.Op{
		openOp(0, 1, 5, true),
		wop(1_000_000, 1, prep.Write, 5, 0, 8192),
		{Time: 2_000_000, Client: 1, Kind: prep.Close, File: 5},
		openOp(40_000_000, 2, 5, false),
		wop(41_000_000, 2, prep.Read, 5, 0, 8192),
		wop(200_000_000, 2, prep.Read, 5, 0, 8192),
	}
}

func outageProfile(shed bool) *faults.Profile {
	return &faults.Profile{
		Seed:    1,
		Outages: []faults.Window{{Start: 20_000_000, End: 90_000_000}},
		Shed:    shed,
	}
}

// TestOutageDegradationPerOrganization is the headline behavior at sim
// level: under an outage longer than the write-back window the volatile
// organization stalls (or sheds) while the NVRAM organizations park the
// bytes in NVRAM and drain them on recovery with zero loss.
func TestFaultOutageDegradationByOrganization(t *testing.T) {
	run := func(kind cache.ModelKind, shed bool) *Result {
		res, err := Run(prep.NewSliceSource(outageOps()), Config{
			Model:  kind,
			Cache:  cache.Config{VolatileBlocks: 64, NVRAMBlocks: 64},
			Seed:   1,
			Faults: outageProfile(shed),
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}

	vol := run(cache.ModelVolatile, false)
	if st := vol.Faults; st.StallUS <= 0 || st.LostBytes != 0 {
		t.Fatalf("volatile stall mode: %+v", st)
	} else if st.CommittedBytes != st.OfferedBytes || st.PendingBytes != 0 {
		t.Fatalf("volatile backlog did not drain after recovery: %+v", st)
	}

	volShed := run(cache.ModelVolatile, true)
	if st := volShed.Faults; st.LostBytes == 0 {
		t.Fatalf("volatile shed mode lost nothing: %+v", st)
	}

	for _, kind := range []cache.ModelKind{cache.ModelWriteAside, cache.ModelUnified} {
		res := run(kind, false)
		st := res.Faults
		if st.NVRAMHighWater == 0 {
			t.Fatalf("%v: no NVRAM parking under outage: %+v", kind, st)
		}
		if st.LostBytes != 0 || st.StallUS != 0 {
			t.Fatalf("%v: NVRAM organization degraded wrong: %+v", kind, st)
		}
		if st.CommittedBytes != st.OfferedBytes || st.PendingBytes != 0 {
			t.Fatalf("%v: backlog did not drain: %+v", kind, st)
		}
		if st.RedeliveredBytes == 0 {
			t.Fatalf("%v: nothing redelivered on recovery: %+v", kind, st)
		}
	}
}

// TestLossyTraceReplayDetection runs a generated trace over a lossy wire
// and checks the server-side idempotent re-delivery accounting.
func TestFaultReplayDetectionOnLossyTrace(t *testing.T) {
	ops := traceOps(t, 4, 0.02)
	res, err := Run(prep.NewSliceSource(ops), Config{
		Model: cache.ModelVolatile,
		Cache: cache.Config{VolatileBlocks: 512},
		Faults: &faults.Profile{
			Seed:        11,
			DropRate:    0.4,
			AckLossRate: 1.0,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	st := res.Faults
	if st.AckLosses == 0 || st.ReplayedBytes == 0 {
		t.Fatalf("lossy wire produced no ack losses: %+v", st)
	}
	if res.ReplayedWrites == 0 {
		t.Fatalf("server detected no replays (injector saw %d ack losses)", st.AckLosses)
	}
	if st.CommittedBytes+st.LostBytes+st.PendingBytes != st.OfferedBytes {
		t.Fatalf("conservation broken: %+v", st)
	}
}

func TestFaultStepToContextCancels(t *testing.T) {
	ops := traceOps(t, 2, 0.02)
	s := NewStepper(prep.NewSliceSource(ops), Config{
		Model:  cache.ModelVolatile,
		Cache:  cache.Config{VolatileBlocks: 512},
		Faults: &faults.Profile{Seed: 1, Outages: []faults.Window{{Start: 0, End: faults.Never}}},
	})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := s.StepToContext(ctx, len(ops)); err != context.Canceled {
		t.Fatalf("StepToContext under cancelled ctx = %v", err)
	}
	if s.Index() != 0 {
		t.Fatalf("cancelled run applied %d ops", s.Index())
	}
	s.Release()
}
