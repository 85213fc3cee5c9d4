package trace

import (
	"bytes"
	"errors"
	"io"
	"math"
	"math/rand"
	"testing"
	"testing/iotest"
	"testing/quick"
	"time"
)

func sampleEvents() []Event {
	return []Event{
		{Time: 0, Client: 1, Op: OpOpen, File: 42, Flags: FlagRead | FlagWrite},
		{Time: 10, Client: 1, Op: OpWrite, File: 42, Offset: 0, Length: 4096},
		{Time: 10, Client: 2, Op: OpOpen, File: 7, Flags: FlagRead},
		{Time: 25, Client: 2, Op: OpRead, File: 7, Offset: 100, Length: 12},
		{Time: 30, Client: 1, Op: OpFsync, File: 42},
		{Time: 40, Client: 1, Op: OpTruncate, File: 42, Offset: 2048},
		{Time: 55, Client: 1, Op: OpMigrate, Target: 3},
		{Time: 60, Client: 1, Op: OpDelete, File: 42},
		{Time: 61, Client: 2, Op: OpClose, File: 7},
	}
}

func TestCodecRoundTrip(t *testing.T) {
	h := Header{Name: "test-trace", Clients: 3, Duration: 24 * time.Hour, Seed: 99}
	var buf bytes.Buffer
	w, err := NewWriter(&buf, h)
	if err != nil {
		t.Fatal(err)
	}
	events := sampleEvents()
	for _, e := range events {
		if err := w.Write(e); err != nil {
			t.Fatalf("Write(%v): %v", e, err)
		}
	}
	if w.Count() != int64(len(events)) {
		t.Fatalf("Count = %d", w.Count())
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	r, err := NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got := r.Header(); got != h {
		t.Fatalf("header = %+v, want %+v", got, h)
	}
	got, err := r.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(events) {
		t.Fatalf("read %d events, want %d", len(got), len(events))
	}
	for i := range got {
		if got[i] != events[i] {
			t.Errorf("event %d: got %+v, want %+v", i, got[i], events[i])
		}
	}
	// Reading past the end keeps returning EOF.
	if _, err := r.Read(); err != io.EOF {
		t.Fatalf("Read after end: %v", err)
	}
}

func TestWriterRejectsOutOfOrder(t *testing.T) {
	var buf bytes.Buffer
	w, err := NewWriter(&buf, Header{Name: "x"})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Write(Event{Time: 100, Client: 1, Op: OpFsync, File: 1}); err != nil {
		t.Fatal(err)
	}
	if err := w.Write(Event{Time: 99, Client: 1, Op: OpFsync, File: 1}); err == nil {
		t.Fatal("out-of-order event accepted")
	}
}

func TestWriterRejectsInvalid(t *testing.T) {
	var buf bytes.Buffer
	w, err := NewWriter(&buf, Header{Name: "x"})
	if err != nil {
		t.Fatal(err)
	}
	bad := []Event{
		{Time: 1, Op: Op(200), File: 1},
		{Time: 1, Op: OpWrite, File: 1, Length: 0},
		{Time: 1, Op: OpWrite, File: 1, Offset: -1, Length: 5},
		{Time: 1, Op: OpOpen, File: 1, Flags: 0},
		{Time: -1, Op: OpFsync, File: 1},
	}
	for _, e := range bad {
		if err := w.Write(e); err == nil {
			t.Errorf("invalid event accepted: %+v", e)
		}
	}
}

func TestReaderRejectsGarbage(t *testing.T) {
	if _, err := NewReader(bytes.NewReader([]byte("not a trace file"))); err != ErrBadMagic {
		t.Fatalf("err = %v, want ErrBadMagic", err)
	}
	if _, err := NewReader(bytes.NewReader(nil)); err == nil {
		t.Fatal("empty stream accepted")
	}
}

func TestReaderDetectsTruncation(t *testing.T) {
	var buf bytes.Buffer
	w, err := NewWriter(&buf, Header{Name: "t"})
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range sampleEvents() {
		if err := w.Write(e); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	// Chop off the terminator and some trailing bytes: reading must fail
	// rather than silently succeed.
	trunc := full[:len(full)-4]
	r, err := NewReader(bytes.NewReader(trunc))
	if err != nil {
		t.Fatal(err)
	}
	_, err = r.ReadAll()
	if !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("truncated trace: err = %v, want io.ErrUnexpectedEOF", err)
	}
	// A read error that cuts an event short is returned as it is.
	boom := errors.New("boom")
	r, err = NewReader(io.MultiReader(bytes.NewReader(trunc), iotest.ErrReader(boom)))
	if err != nil {
		t.Fatal(err)
	}
	if _, err = r.ReadAll(); !errors.Is(err, boom) {
		t.Fatalf("failing reader: err = %v, want %v", err, boom)
	}
}

func TestOpString(t *testing.T) {
	if OpWrite.String() != "write" || OpMigrate.String() != "migrate" {
		t.Fatal("op names wrong")
	}
	if Op(99).String() != "op(99)" {
		t.Fatalf("unknown op name = %q", Op(99).String())
	}
}

// randEvents builds a valid random event stream.
func randEvents(rng *rand.Rand, n int) []Event {
	evs := make([]Event, 0, n)
	var tm int64
	for i := 0; i < n; i++ {
		tm += rng.Int63n(1000)
		e := Event{
			Time:   tm,
			Client: uint32(rng.Intn(40)),
			File:   uint64(rng.Intn(500)),
			Op:     Op(1 + rng.Intn(int(opMax-1))),
		}
		switch e.Op {
		case OpRead, OpWrite:
			e.Offset = rng.Int63n(1 << 20)
			e.Length = 1 + rng.Int63n(1<<16)
		case OpTruncate:
			e.Offset = rng.Int63n(1 << 20)
		case OpOpen:
			e.Flags = uint8(1 + rng.Intn(3))
		case OpMigrate:
			e.Target = uint32(rng.Intn(40))
		}
		evs = append(evs, e)
	}
	return evs
}

// Property: encode/decode is an identity on arbitrary valid event streams.
func TestQuickCodecRoundTrip(t *testing.T) {
	f := func(seed int64, nRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		events := randEvents(rng, int(nRaw))
		var buf bytes.Buffer
		w, err := NewWriter(&buf, Header{Name: "q", Clients: 40, Seed: seed})
		if err != nil {
			return false
		}
		for _, e := range events {
			if err := w.Write(e); err != nil {
				return false
			}
		}
		if err := w.Close(); err != nil {
			return false
		}
		r, err := NewReader(&buf)
		if err != nil {
			return false
		}
		got, err := r.ReadAll()
		if err != nil || len(got) != len(events) {
			return false
		}
		for i := range got {
			if got[i] != events[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestWriterBodyIsFrames pins the file format to the frame format: each
// event's bytes in a trace file are exactly its AppendEvent frame with
// the time delta from the previous event in the time field, since both
// go through one encoder. The stream overruns the writer's buffer
// several times and ends with every field at its widest.
func TestWriterBodyIsFrames(t *testing.T) {
	events := randEvents(rand.New(rand.NewSource(7)), 30000)
	last := events[len(events)-1].Time
	events = append(events,
		Event{Time: last + 1<<40, Client: math.MaxUint32, Op: OpWrite, File: math.MaxUint64, Offset: math.MaxInt64 / 2, Length: math.MaxInt64 / 2},
		Event{Time: math.MaxInt64, Client: math.MaxUint32, Op: OpMigrate, File: math.MaxUint64, Offset: math.MaxInt64, Target: math.MaxUint32},
	)
	var buf bytes.Buffer
	w, err := NewWriter(&buf, Header{Name: "frames", Clients: 40})
	if err != nil {
		t.Fatal(err)
	}
	header := buf.Len()
	for _, e := range events {
		if err := w.Write(e); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	body := buf.Bytes()[header:]
	var prev int64
	for i, e := range events {
		delta := e
		delta.Time = e.Time - prev
		prev = e.Time
		frame := AppendEvent(nil, delta)
		if !bytes.HasPrefix(body, frame) {
			t.Fatalf("event %d (%v): file body %x, frame %x", i, e, body[:min(len(body), len(frame))], frame)
		}
		body = body[len(frame):]
	}
	if !bytes.Equal(body, []byte{0, 0}) {
		t.Fatalf("stream ends %x, want the terminator 0000", body)
	}
}

// TestWriterWriteAllocs holds Writer.Write to no allocations: an event
// is encoded into the buffered writer's free space, or into the Writer's
// own array when that space runs short, never into a fresh slice. One
// run writes enough events to refill the buffer several times.
func TestWriterWriteAllocs(t *testing.T) {
	events := randEvents(rand.New(rand.NewSource(1)), 20000)
	w, err := NewWriter(io.Discard, Header{Name: "allocs"})
	if err != nil {
		t.Fatal(err)
	}
	var base int64
	allocs := testing.AllocsPerRun(1, func() {
		for _, e := range events {
			e.Time += base
			if err := w.Write(e); err != nil {
				t.Fatal(err)
			}
		}
		base += events[len(events)-1].Time
	})
	if allocs != 0 {
		t.Fatalf("%.0f allocations writing %d events, want 0", allocs, len(events))
	}
}

func BenchmarkCodecWrite(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	events := randEvents(rng, 10000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var buf bytes.Buffer
		w, _ := NewWriter(&buf, Header{Name: "bench"})
		for _, e := range events {
			if err := w.Write(e); err != nil {
				b.Fatal(err)
			}
		}
		w.Close()
		b.SetBytes(int64(buf.Len()))
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(events)), "ns/event")
}
