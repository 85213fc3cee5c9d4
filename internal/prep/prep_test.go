package prep

import (
	"testing"

	"nvramfs/internal/trace"
	"nvramfs/internal/workload"
)

func ev(t int64, c uint32, op trace.Op, f uint64, off, n int64) trace.Event {
	e := trace.Event{Time: t, Client: c, Op: op, File: f, Offset: off, Length: n}
	if op == trace.OpOpen {
		e.Flags = trace.FlagRead | trace.FlagWrite
	}
	return e
}

// canonicalize streams events through the canonicalizer and collects its
// ops and statistics.
func canonicalize(events []trace.Event) ([]Op, Stats, error) {
	c := NewSource(trace.NewSliceSource(events), Options{})
	ops, err := Collect(c)
	return ops, c.Stats(), err
}

func TestCanonicalizeBasics(t *testing.T) {
	events := []trace.Event{
		ev(0, 1, trace.OpOpen, 5, 0, 0),
		ev(1, 1, trace.OpWrite, 5, 0, 100),
		ev(2, 1, trace.OpWrite, 5, 100, 50),
		ev(3, 1, trace.OpRead, 5, 0, 150),
		ev(4, 1, trace.OpFsync, 5, 0, 0),
		ev(5, 1, trace.OpTruncate, 5, 60, 0),
		ev(6, 1, trace.OpClose, 5, 0, 0),
		ev(7, 1, trace.OpDelete, 5, 0, 0),
	}
	ops, st, err := canonicalize(events)
	if err != nil {
		t.Fatal(err)
	}
	if st.BytesWritten != 150 || st.BytesRead != 150 {
		t.Fatalf("stats = %+v", st)
	}
	// Truncate 150->60 kills 90 bytes; delete kills the remaining 60.
	if st.BytesDeleted != 150 {
		t.Fatalf("BytesDeleted = %d, want 150", st.BytesDeleted)
	}
	var kinds []Kind
	for _, o := range ops {
		kinds = append(kinds, o.Kind)
	}
	want := []Kind{Open, Write, Write, Read, Fsync, DeleteRange, Close, DeleteRange}
	if len(kinds) != len(want) {
		t.Fatalf("kinds = %v, want %v", kinds, want)
	}
	for i := range want {
		if kinds[i] != want[i] {
			t.Fatalf("kinds = %v, want %v", kinds, want)
		}
	}
	// The truncate's delete range is [60,150); the final delete is [0,60).
	if ops[5].Range.Start != 60 || ops[5].Range.End != 150 {
		t.Fatalf("truncate range = %v", ops[5].Range)
	}
	if ops[7].Range.Start != 0 || ops[7].Range.End != 60 {
		t.Fatalf("delete range = %v", ops[7].Range)
	}
}

func TestCanonicalizeDeleteOfUnknownFileIsSilent(t *testing.T) {
	// Deleting a file with no known extent produces no DeleteRange op.
	ops, _, err := canonicalize([]trace.Event{ev(0, 1, trace.OpDelete, 9, 0, 0)})
	if err != nil {
		t.Fatal(err)
	}
	if len(ops) != 0 {
		t.Fatalf("ops = %v", ops)
	}
}

func TestCanonicalizeReadEstablishesSize(t *testing.T) {
	// A read of a pre-existing (never-written) file reveals its size, so a
	// later delete kills that many bytes.
	events := []trace.Event{
		ev(0, 1, trace.OpRead, 3, 0, 4096),
		ev(1, 1, trace.OpDelete, 3, 0, 0),
	}
	ops, st, err := canonicalize(events)
	if err != nil {
		t.Fatal(err)
	}
	if len(ops) != 2 || ops[1].Kind != DeleteRange || ops[1].Range.Len() != 4096 {
		t.Fatalf("ops = %v", ops)
	}
	if st.BytesDeleted != 4096 {
		t.Fatalf("BytesDeleted = %d", st.BytesDeleted)
	}
}

func TestCanonicalizeGrowingTruncateDeletesNothing(t *testing.T) {
	events := []trace.Event{
		ev(0, 1, trace.OpWrite, 3, 0, 100),
		{Time: 1, Client: 1, Op: trace.OpTruncate, File: 3, Offset: 500},
		ev(2, 1, trace.OpDelete, 3, 0, 0),
	}
	ops, _, err := canonicalize(events)
	if err != nil {
		t.Fatal(err)
	}
	// write, delete-from-delete (the growing truncate emits nothing).
	if len(ops) != 2 {
		t.Fatalf("ops = %v", ops)
	}
	if ops[1].Range.Len() != 500 {
		t.Fatalf("delete range %v, want 500 bytes (truncate grew the file)", ops[1].Range)
	}
}

func TestCanonicalizeMigrate(t *testing.T) {
	events := []trace.Event{
		{Time: 5, Client: 7, Op: trace.OpMigrate, Target: 9},
	}
	ops, st, err := canonicalize(events)
	if err != nil {
		t.Fatal(err)
	}
	if len(ops) != 1 || ops[0].Kind != MigrateFlush || ops[0].Client != 7 {
		t.Fatalf("ops = %v", ops)
	}
	if st.Migrations != 1 {
		t.Fatalf("st = %+v", st)
	}
}

func TestCanonicalizeRejectsOutOfOrder(t *testing.T) {
	events := []trace.Event{
		ev(10, 1, trace.OpWrite, 3, 0, 100),
		ev(5, 1, trace.OpWrite, 3, 0, 100),
	}
	if _, _, err := canonicalize(events); err == nil {
		t.Fatal("out-of-order events accepted")
	}
}

func TestCanonicalizeGeneratedTrace(t *testing.T) {
	cur := workload.NewCursor(workload.StandardProfile(1, 0.05))
	c := NewSource(cur, Options{})
	ops, err := Collect(c)
	if err != nil {
		t.Fatal(err)
	}
	st := c.Stats()
	if st.Events != cur.Count() || int(st.Ops) != len(ops) {
		t.Fatalf("stats mismatch: %+v", st)
	}
	if st.BytesWritten == 0 || st.BytesRead == 0 || st.BytesDeleted == 0 {
		t.Fatalf("degenerate trace: %+v", st)
	}
	// Most written bytes must eventually be deleted on typical traces (the
	// paper's Table 2 reports ~58-82% deleted); require a loose band.
	frac := float64(st.BytesDeleted) / float64(st.BytesWritten)
	if frac < 0.35 || frac > 1.1 {
		t.Errorf("deleted/written = %.2f, outside plausible band", frac)
	}
	// Ops arrive in order.
	var last int64
	for _, o := range ops {
		if o.Time < last {
			t.Fatal("ops out of order")
		}
		last = o.Time
	}
}

func TestKindString(t *testing.T) {
	if Open.String() != "open" || MigrateFlush.String() != "migrate-flush" {
		t.Fatal("kind names wrong")
	}
	if Kind(77).String() != "kind(77)" {
		t.Fatal("unknown kind name")
	}
}
