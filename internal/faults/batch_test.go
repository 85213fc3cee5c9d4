package faults

import (
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"nvramfs/internal/nvram"
)

// scanBacklog recomputes, the slow way, everything the injector keeps
// running totals for.
func scanBacklog(x *Injector) (stable, volatile, nextReady int64) {
	nextReady = Never
	for _, e := range x.pending {
		if e.d.Stable {
			stable += e.d.bytes()
		} else {
			volatile += e.d.bytes()
		}
		if e.readyAt < nextReady {
			nextReady = e.readyAt
		}
	}
	return
}

// TestBacklogCountersMatchScan drives a randomized schedule of every call
// that changes the backlog and checks, after each, that the running byte
// counters and the earliest drain time equal a scan of the queue.
func TestBacklogCountersMatchScan(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		rng := rand.New(rand.NewSource(seed))
		x := NewInjector(Profile{
			Seed: seed, DropRate: 0.5, AckLossRate: 0.3, MaxAttempts: 2,
			BackoffBase: 500, BackoffCap: 4000, Net: &fastNet,
			Outages: []Window{{Start: 20_000, End: 60_000}, {Start: 100_000, End: 130_000}, {Start: 400_000, End: Never}},
		}, nil)
		now := int64(0)
		var restoredSeq uint64 = 1 << 32
		for step := 0; step < 4000; step++ {
			now += rng.Int63n(400)
			d := Delivery{
				Client: uint32(rng.Intn(4)), File: uint64(rng.Intn(50)),
				Start: 0, End: 1 + rng.Int63n(8192), Stable: rng.Intn(3) > 0,
			}
			switch rng.Intn(10) {
			case 0:
				x.Park(now, d)
			case 1:
				x.Advance(now)
			case 2:
				restoredSeq++
				d.Seq, d.Stable = restoredSeq, true
				x.RestoreParked(now, []ParkedDelivery{{D: d}})
			default:
				x.Deliver(now, d)
			}
			stable, volatile, next := scanBacklog(x)
			gotStable, gotVolatile := x.PendingBytes()
			if gotStable != stable || gotVolatile != volatile {
				t.Fatalf("seed %d step %d: PendingBytes = %d/%d, a scan finds %d/%d", seed, step, gotStable, gotVolatile, stable, volatile)
			}
			if got := x.Stats().PendingBytes; got != stable+volatile {
				t.Fatalf("seed %d step %d: Stats().PendingBytes = %d, a scan finds %d", seed, step, got, stable+volatile)
			}
			if x.nextReady != next {
				t.Fatalf("seed %d step %d: nextReady = %d, a scan finds %d", seed, step, x.nextReady, next)
			}
		}
		if len(x.pending) == 0 {
			t.Fatalf("seed %d: the schedule never left a backlog to check", seed)
		}
		x.Close(now)
		if st := x.Stats(); st.OfferedBytes != st.CommittedBytes+st.LostBytes+st.PendingBytes {
			t.Fatalf("seed %d: conservation violated: %+v", seed, st)
		}
	}
}

// TestParkedDeliveryAllocs budgets the parked write-back path end to end:
// what survives a park is one backlog entry (amortized slice growth) plus
// the image's live-map key and payload copy; nothing else is allocated.
func TestParkedDeliveryAllocs(t *testing.T) {
	img, _, err := nvram.OpenImage(filepath.Join(t.TempDir(), "img"), nvram.ImageOptions{Capacity: 8 << 20})
	if err != nil {
		t.Fatal(err)
	}
	defer img.Close()
	prof := outageProfile(Never)
	prof.MaxAttempts = 1
	x := NewInjector(prof, nil)
	x.AttachImage(img)
	x.pending = make([]pendingEntry, 0, 1024)
	now := int64(0)
	x.Begin()
	avg := testing.AllocsPerRun(500, func() {
		now += 10
		x.Deliver(now, Delivery{Client: 1, File: 7, Start: 0, End: 4096, Stable: true})
	})
	x.Commit()
	if err := img.Err(); err != nil {
		t.Fatal(err)
	}
	if avg > 2 {
		t.Errorf("a parked delivery allocates %.0f times, budget 2 (the image's key and payload copy)", avg)
	}
}

// waitProbe is a wall clock that reports each sleep that will really
// block, just before it does.
type waitProbe struct {
	*WallClock
	blocking func()
}

func (c waitProbe) Sleep(t int64) bool {
	if c.Waits(t) {
		c.blocking()
	}
	return c.WallClock.Sleep(t)
}

// TestOpenBatchCommitsBeforeRealSleep holds an owner's batch open across
// a delivery whose retry backs off in real time: the record parked
// earlier in the batch must be durable before that sleep starts, not when
// the batch finally commits.
func TestOpenBatchCommitsBeforeRealSleep(t *testing.T) {
	dir := t.TempDir()
	img, _, err := nvram.OpenImage(filepath.Join(dir, "img"), nvram.ImageOptions{TrackShadow: true})
	if err != nil {
		t.Fatal(err)
	}
	defer img.Close()
	// The first backoff is BackoffBase; a parked entry drains BackoffCap
	// after it parked, which must not come round during the test.
	x := NewInjector(Profile{
		Seed: 1, DropRate: 1, MaxAttempts: 2, BackoffBase: 20_000, BackoffCap: 600_000_000, Net: zeroNet(),
	}, nil)
	x.AttachImage(img)

	durableParked := func(name string) int {
		t.Helper()
		snap, err := img.DurableSnapshot()
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, snap, 0o644); err != nil {
			t.Fatal(err)
		}
		reopened, _, err := nvram.OpenImage(path, nvram.ImageOptions{})
		if err != nil {
			t.Fatal(err)
		}
		defer reopened.Close()
		return reopened.Len(nvram.NSParked)
	}

	clk := NewWallClock()
	sleeps := 0
	x.SetClock(waitProbe{WallClock: clk, blocking: func() {
		sleeps++
		if n := durableParked("at-sleep"); n != 1 {
			t.Errorf("%d parked records durable when the backoff sleep began, want the 1 parked before it", n)
		}
	}})

	x.Begin()
	x.Park(clk.Now(), Delivery{Client: 1, File: 1, Start: 0, End: 4096, Stable: true})
	if n := durableParked("in-batch"); n != 0 {
		t.Fatalf("%d records durable inside the open batch, want 0", n)
	}
	x.Deliver(clk.Now(), Delivery{Client: 1, File: 2, Start: 0, End: 4096, Stable: true})
	if sleeps != 1 {
		t.Fatalf("the retry really slept %d times, want 1", sleeps)
	}
	if n := durableParked("before-commit"); n != 1 {
		t.Fatalf("%d records durable before the owner's Commit, want 1", n)
	}
	x.Commit()
	if n := durableParked("committed"); n != 2 {
		t.Fatalf("%d records durable after Commit, want 2", n)
	}
}
