package workload

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"

	"nvramfs/internal/trace"
)

// generateEvents synthesizes p's trace into memory.
func generateEvents(p Profile) ([]trace.Event, error) {
	var evs []trace.Event
	c := NewCursor(p)
	for {
		e, ok, err := c.Next()
		if err != nil || !ok {
			return evs, err
		}
		evs = append(evs, e)
	}
}

func TestGenerateDeterministic(t *testing.T) {
	p := StandardProfile(1, 0.05)
	a, err := generateEvents(p)
	if err != nil {
		t.Fatal(err)
	}
	b, err := generateEvents(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("event %d differs: %+v vs %+v", i, a[i], b[i])
		}
	}
	if len(a) == 0 {
		t.Fatal("no events generated")
	}
}

func TestGenerateSortedAndValid(t *testing.T) {
	for i := 1; i <= NumStandardTraces; i++ {
		p := StandardProfile(i, 0.02)
		evs, err := generateEvents(p)
		if err != nil {
			t.Fatalf("trace %d: %v", i, err)
		}
		horizon := int64(p.Duration / time.Microsecond)
		var last int64
		for j, e := range evs {
			if err := e.Validate(); err != nil {
				t.Fatalf("trace %d event %d invalid: %v (%+v)", i, j, err, e)
			}
			if e.Time < last {
				t.Fatalf("trace %d event %d out of order: %d < %d", i, j, e.Time, last)
			}
			if e.Time >= horizon {
				t.Fatalf("trace %d event %d past horizon", i, j)
			}
			last = e.Time
		}
	}
}

func TestGenerateWritesToTraceFile(t *testing.T) {
	p := StandardProfile(2, 0.02)
	var buf bytes.Buffer
	w, err := trace.NewWriter(&buf, p.Header())
	if err != nil {
		t.Fatal(err)
	}
	n, err := Generate(p, w.Write)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := trace.NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	evs, err := r.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if int64(len(evs)) != n {
		t.Fatalf("wrote %d events, read %d", n, len(evs))
	}
}

func TestHeavyTracesIncludeSimActors(t *testing.T) {
	for i := 1; i <= NumStandardTraces; i++ {
		p := StandardProfile(i, 1)
		var sims int
		for _, a := range p.Actors {
			if a.Kind == KindSim {
				sims++
			}
		}
		if HeavyTrace(i) && sims != 2 {
			t.Errorf("trace %d: %d sim actors, want 2", i, sims)
		}
		if !HeavyTrace(i) && sims != 0 {
			t.Errorf("trace %d: %d sim actors, want 0", i, sims)
		}
	}
}

func TestHeavyTracesWriteMore(t *testing.T) {
	writes := func(i int) int64 {
		evs, err := generateEvents(StandardProfile(i, 0.05))
		if err != nil {
			t.Fatal(err)
		}
		var total int64
		for _, e := range evs {
			if e.Op == trace.OpWrite {
				total += e.Length
			}
		}
		return total
	}
	typical := writes(1)
	heavy := writes(3)
	if heavy < 3*typical {
		t.Errorf("trace 3 wrote %d bytes, trace 1 %d; want heavy >> typical", heavy, typical)
	}
}

func TestEventMixIncludesAllKinds(t *testing.T) {
	evs, err := generateEvents(StandardProfile(1, 0.05))
	if err != nil {
		t.Fatal(err)
	}
	seen := map[trace.Op]bool{}
	for _, e := range evs {
		seen[e.Op] = true
	}
	for _, op := range []trace.Op{
		trace.OpOpen, trace.OpClose, trace.OpRead, trace.OpWrite,
		trace.OpTruncate, trace.OpDelete, trace.OpFsync, trace.OpMigrate,
	} {
		if !seen[op] {
			t.Errorf("no %v events generated", op)
		}
	}
}

func TestScaleControlsVolume(t *testing.T) {
	vol := func(scale float64) int64 {
		evs, err := generateEvents(StandardProfile(5, scale))
		if err != nil {
			t.Fatal(err)
		}
		var total int64
		for _, e := range evs {
			if e.Op == trace.OpWrite {
				total += e.Length
			}
		}
		return total
	}
	small, large := vol(0.02), vol(0.08)
	if large < 2*small {
		t.Errorf("scale 0.08 volume %d not well above scale 0.02 volume %d", large, small)
	}
}

func TestKindString(t *testing.T) {
	if KindEditor.String() != "editor" || KindSim.String() != "sim" {
		t.Fatal("kind names wrong")
	}
	if Kind(99).String() != "kind(99)" {
		t.Fatal("unknown kind name wrong")
	}
}

func TestStandardProfilePanicsOutOfRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for out-of-range trace index")
		}
	}()
	StandardProfile(0, 1)
}

// TestCursorAllocsPerEvent pins the generator's allocations per event.
// The pending queue's key heap, event slab and free list reuse their
// slots, so a push or pop allocates nothing once they have grown to the
// largest pending set: what is left (about 0.002 per event) is actor
// setup and that growth.
func TestCursorAllocsPerEvent(t *testing.T) {
	p := StandardProfile(7, 0.02)
	var n int64
	allocs := testing.AllocsPerRun(1, func() {
		c := NewCursor(p)
		for {
			_, ok, err := c.Next()
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				break
			}
		}
		n = c.Count()
	})
	perEvent := allocs / float64(n)
	t.Logf("%.0f allocations for %d events = %.4f per event", allocs, n, perEvent)
	if perEvent > 0.01 {
		t.Fatalf("%.0f allocations for %d events = %.4f per event, want at most 0.01", allocs, n, perEvent)
	}
}

func BenchmarkGenerateTypicalTrace(b *testing.B) {
	p := StandardProfile(1, 0.1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := generateEvents(p); err != nil {
			b.Fatal(err)
		}
	}
}

func TestParseProfileJSON(t *testing.T) {
	js := `{
		"name": "mycluster", "seed": 42, "duration_hours": 2,
		"scale": 0.1, "clients": 6,
		"actors": [
			{"kind": "editor", "client": 1},
			{"kind": "build", "client": 2, "intensity": 1.5},
			{"kind": "shared", "client": 3, "peer": 4},
			{"kind": "log", "client": 5}
		]
	}`
	p, err := ParseProfile(strings.NewReader(js))
	if err != nil {
		t.Fatal(err)
	}
	if p.Name != "mycluster" || len(p.Actors) != 4 || p.Clients != 6 {
		t.Fatalf("profile: %+v", p)
	}
	evs, err := generateEvents(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(evs) == 0 {
		t.Fatal("custom profile generated nothing")
	}
	horizon := int64(2 * time.Hour / time.Microsecond)
	for _, e := range evs {
		if e.Time >= horizon {
			t.Fatal("event past custom horizon")
		}
	}
}

func TestParseProfileValidation(t *testing.T) {
	cases := []string{
		`{"actors": [{"kind": "editor", "client": 1}]}`,                            // no name
		`{"name": "x", "actors": []}`,                                              // no actors
		`{"name": "x", "actors": [{"kind": "bogus", "client": 1}]}`,                // bad kind
		`{"name": "x", "actors": [{"kind": "shared", "client": 1, "peer": 1}]}`,    // self peer
		`{"name": "x", "bogusfield": 1, "actors": [{"kind": "log", "client": 1}]}`, // unknown field
		`not json`,
	}
	for i, js := range cases {
		if _, err := ParseProfile(strings.NewReader(js)); err == nil {
			t.Errorf("case %d accepted: %s", i, js)
		}
	}
}

func TestProfileSpecRoundTrip(t *testing.T) {
	p := StandardProfile(1, 0.5)
	spec := p.Spec()
	data, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	back, err := ParseProfile(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if back.Name != p.Name || len(back.Actors) != len(p.Actors) || back.Seed != p.Seed {
		t.Fatalf("round trip lost data: %+v", back)
	}
	// Clients may be recomputed but must cover every actor.
	evsA, err := generateEvents(p)
	if err != nil {
		t.Fatal(err)
	}
	evsB, err := generateEvents(back)
	if err != nil {
		t.Fatal(err)
	}
	if len(evsA) != len(evsB) {
		t.Fatalf("round-tripped profile generates differently: %d vs %d", len(evsA), len(evsB))
	}
}
