package faults

import (
	"strings"
	"testing"
	"time"

	"nvramfs/internal/netmodel"
)

// fastNet keeps virtual attempt latency tiny so test arithmetic is easy.
var fastNet = netmodel.Params{RPCLatency: time.Millisecond, Bandwidth: 0, MemWriteRate: 0}

type commitLog struct {
	firsts  map[uint64]int
	replays int
	lastAt  int64
}

func newCommitLog() *commitLog { return &commitLog{firsts: make(map[uint64]int)} }

func (c *commitLog) fn(now int64, d Delivery, replay bool) {
	c.lastAt = now
	if replay {
		c.replays++
		return
	}
	c.firsts[d.Seq]++
}

func (c *commitLog) assertSingleFirsts(t *testing.T) {
	t.Helper()
	for seq, n := range c.firsts {
		if n != 1 {
			t.Fatalf("seq %d committed %d times as a first delivery", seq, n)
		}
	}
}

func TestFaultDeliverCleanPath(t *testing.T) {
	log := newCommitLog()
	x := NewInjector(Profile{Seed: 1, Net: &fastNet}, log.fn)
	x.Deliver(1000, Delivery{File: 7, Start: 0, End: 4096, Stable: false})
	st := x.Stats()
	if st.Deliveries != 1 || st.Attempts != 1 || st.Retries != 0 {
		t.Fatalf("clean path stats: %+v", st)
	}
	if st.CommittedBytes != 4096 || st.OfferedBytes != 4096 {
		t.Fatalf("committed %d offered %d", st.CommittedBytes, st.OfferedBytes)
	}
	if len(log.firsts) != 1 || log.replays != 0 {
		t.Fatalf("commits: %+v", log)
	}
	if log.lastAt != 1000+1000 { // now + 1ms RPC latency
		t.Fatalf("commit time %d", log.lastAt)
	}
}

func TestFaultOutageParksStableAndDrains(t *testing.T) {
	log := newCommitLog()
	x := NewInjector(Profile{
		Seed:        1,
		Outages:     []Window{{Start: 0, End: 60_000_000}},
		MaxAttempts: 2,
		BackoffBase: 1000,
		BackoffCap:  1000,
		Net:         &fastNet,
	}, log.fn)
	x.Deliver(1_000_000, Delivery{File: 1, Start: 0, End: 8192, Stable: true})

	st := x.Stats()
	if st.Exhausted != 1 || st.OutageTries != 2 {
		t.Fatalf("exhaustion stats: %+v", st)
	}
	if st.NVRAMHighWater != 8192 || st.PendingBytes != 8192 {
		t.Fatalf("park stats: %+v", st)
	}
	if len(log.firsts) != 0 {
		t.Fatal("committed during outage")
	}

	x.Advance(59_000_000)
	if st := x.Stats(); st.PendingBytes != 8192 {
		t.Fatalf("drained before recovery: %+v", st)
	}
	x.Advance(60_000_000)
	st = x.Stats()
	if st.PendingBytes != 0 || st.RedeliveredBytes != 8192 || st.CommittedBytes != 8192 {
		t.Fatalf("drain stats: %+v", st)
	}
	if st.StallUS != 0 {
		t.Fatalf("stable delivery accrued stall: %+v", st)
	}
	if log.lastAt != 60_000_000 {
		t.Fatalf("drain committed at %d", log.lastAt)
	}
	log.assertSingleFirsts(t)
}

func TestFaultOutageStallsVolatileWriter(t *testing.T) {
	log := newCommitLog()
	x := NewInjector(Profile{
		Seed:        1,
		Outages:     []Window{{Start: 0, End: 60_000_000}},
		MaxAttempts: 2,
		BackoffBase: 1000,
		BackoffCap:  1000,
		Net:         &fastNet,
	}, log.fn)
	x.Deliver(1_000_000, Delivery{File: 1, Start: 0, End: 4096, Stable: false})
	x.Advance(90_000_000)
	st := x.Stats()
	if st.CommittedBytes != 4096 || st.PendingBytes != 0 {
		t.Fatalf("stall drain: %+v", st)
	}
	if st.StallUS <= 0 || st.StallUS > 60_000_000 {
		t.Fatalf("stall time %d", st.StallUS)
	}
	if st.NVRAMHighWater != 0 {
		t.Fatalf("volatile delivery touched NVRAM: %+v", st)
	}
	log.assertSingleFirsts(t)
}

func TestFaultShedDropsVolatileBytes(t *testing.T) {
	log := newCommitLog()
	x := NewInjector(Profile{
		Seed:        1,
		Outages:     []Window{{Start: 0, End: Never}},
		MaxAttempts: 2,
		BackoffBase: 1000,
		Shed:        true,
		Net:         &fastNet,
	}, log.fn)
	x.Deliver(1_000_000, Delivery{File: 1, Start: 0, End: 4096, Stable: false})
	x.Close(100_000_000)
	st := x.Stats()
	if st.LostBytes != 4096 || st.CommittedBytes != 0 || st.PendingBytes != 0 {
		t.Fatalf("shed stats: %+v", st)
	}
	if len(log.firsts) != 0 {
		t.Fatal("shed bytes were committed")
	}
}

func TestFaultNeverOutageHoldsNVRAMPending(t *testing.T) {
	x := NewInjector(Profile{
		Seed:        1,
		Outages:     []Window{{Start: 0, End: Never}},
		MaxAttempts: 2,
		BackoffBase: 1000,
		Net:         &fastNet,
	}, nil)
	x.Deliver(1_000_000, Delivery{File: 1, Start: 0, End: 4096, Stable: true})
	x.Close(500_000_000)
	st := x.Stats()
	if st.PendingBytes != 4096 || st.LostBytes != 0 {
		t.Fatalf("never-outage stats: %+v", st)
	}
	if st.CommittedBytes+st.LostBytes+st.PendingBytes != st.OfferedBytes {
		t.Fatalf("conservation broken: %+v", st)
	}
}

// TestLossyWireConservation drives many deliveries through a lossy wire
// with ack losses and checks that every offered byte ends up committed,
// lost, or pending, that replays are observed, and that no sequence
// number commits twice as a first delivery.
func TestFaultLossyWireConservation(t *testing.T) {
	log := newCommitLog()
	x := NewInjector(Profile{
		Seed:        42,
		DropRate:    0.5,
		AckLossRate: 1.0,
		SpikeRate:   0.2,
		BackoffBase: 1000,
		BackoffCap:  4000,
		Net:         &fastNet,
	}, log.fn)
	now := int64(0)
	for i := 0; i < 200; i++ {
		now += 10_000_000
		x.Deliver(now, Delivery{File: uint64(i % 7), Start: 0, End: 1024, Stable: i%2 == 0})
	}
	x.Close(now + 100_000_000)
	st := x.Stats()
	if st.Drops == 0 || st.AckLosses == 0 || st.ReplayedBytes == 0 || st.Spikes == 0 {
		t.Fatalf("lossy wire hit no faults: %+v", st)
	}
	if st.CommittedBytes+st.LostBytes+st.PendingBytes != st.OfferedBytes {
		t.Fatalf("conservation broken: %+v", st)
	}
	if st.Retries == 0 || st.RetryLatencyUS <= 0 {
		t.Fatalf("no retry cost recorded: %+v", st)
	}
	log.assertSingleFirsts(t)
}

// TestDeterministicSchedule runs the identical delivery sequence twice
// and requires byte-identical stats: the whole schedule must be a pure
// function of the profile.
func TestFaultDeterministicSchedule(t *testing.T) {
	run := func() Stats {
		x := NewInjector(Profile{
			Seed:        7,
			DropRate:    0.3,
			AckLossRate: 0.5,
			SpikeRate:   0.1,
			Outages:     []Window{{Start: 40_000_000, End: 80_000_000}},
			Net:         &fastNet,
		}, nil)
		now := int64(0)
		for i := 0; i < 100; i++ {
			now += 1_500_000
			x.Deliver(now, Delivery{File: uint64(i), Start: 0, End: int64(512 + i)})
		}
		x.Close(now + 200_000_000)
		return x.Stats()
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("schedule not deterministic:\n%+v\n%+v", a, b)
	}
}

func TestFaultBackoffBounded(t *testing.T) {
	x := NewInjector(Profile{Seed: 1, BackoffBase: 1000, BackoffCap: 8000, Net: &fastNet}, nil)
	for attempt := 1; attempt <= 64; attempt++ {
		b := x.backoff(attempt)
		if b < 500 || b > 8000 {
			t.Fatalf("attempt %d backoff %d outside [500, 8000]", attempt, b)
		}
	}
}

func TestFaultParseSpec(t *testing.T) {
	p, err := ParseSpec("seed=9,drop=0.05,spike=0.1,spikex=4,retries=3,backoff=100ms,cap=2s,outage=2m+60s/10m+never,shed")
	if err != nil {
		t.Fatal(err)
	}
	if p.Seed != 9 || p.DropRate != 0.05 || p.SpikeRate != 0.1 || p.SpikeFactor != 4 {
		t.Fatalf("parsed %+v", p)
	}
	if p.MaxAttempts != 3 || p.BackoffBase != 100_000 || p.BackoffCap != 2_000_000 || !p.Shed {
		t.Fatalf("parsed %+v", p)
	}
	if len(p.Outages) != 2 || p.Outages[0] != (Window{Start: 120_000_000, End: 180_000_000}) {
		t.Fatalf("outages %+v", p.Outages)
	}
	if p.Outages[1].End != Never {
		t.Fatalf("never outage %+v", p.Outages[1])
	}
}

func TestFaultParseSpecErrors(t *testing.T) {
	cases := []struct {
		spec, want string
	}{
		{"", "valid keys"},
		{"bogus=1", "valid keys"},
		{"drop=2", "[0,1]"},
		{"drop=NaN", "[0,1]"},
		{"ackloss=nan", "[0,1]"},
		{"backoff=500ns", "1µs"},
		{"cap=999ns", "1µs"},
		{"outage=1s+500ns", "1µs"},
		{"drop", "needs a value"},
		{"retries=0", "not positive"},
		{"outage=60s", "START+DUR"},
		{"outage=x+60s", "start"},
		{"shed=maybe", "shed"},
	}
	for _, c := range cases {
		if _, err := ParseSpec(c.spec); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Fatalf("ParseSpec(%q) = %v, want mention of %q", c.spec, err, c.want)
		}
	}
}

func TestFaultDescribeRoundTripsSeed(t *testing.T) {
	p, err := ParseSpec("seed=123,drop=0.1,backoff=100ms,cap=2s,outage=1m+30s")
	if err != nil {
		t.Fatal(err)
	}
	d := p.Describe()
	for _, want := range []string{"seed=123", "drop=0.1", "retries=6 backoff=100ms cap=2s", "outage=[60s,90s)"} {
		if !strings.Contains(d, want) {
			t.Fatalf("Describe() = %q missing %q", d, want)
		}
	}
	// The retry policy's defaults are spelled out too, in a form the
	// spec parser reads back to the same values.
	d = Profile{Seed: 7}.Describe()
	var retry []string
	for _, f := range strings.Fields(d) {
		if strings.HasPrefix(f, "backoff=") || strings.HasPrefix(f, "cap=") {
			retry = append(retry, f)
		}
	}
	q, err := ParseSpec(strings.Join(retry, ","))
	if err != nil {
		t.Fatalf("Describe() = %q: %v", d, err)
	}
	if q.BackoffBase != 250_000 || q.BackoffCap != 4_000_000 {
		t.Fatalf("Describe() = %q reads back as backoff %dus cap %dus", d, q.BackoffBase, q.BackoffCap)
	}
}
