package trace

import (
	"bytes"
	"encoding/binary"
	"io"
	"math"
	"strings"
	"testing"
	"time"
)

// FuzzReader feeds arbitrary bytes to the trace reader: it must reject or
// cleanly EOF on any input — never panic, never allocate absurdly — and
// any event it does yield must be valid.
func FuzzReader(f *testing.F) {
	// Seed with a well-formed trace and a few mutations of it.
	var buf bytes.Buffer
	w, err := NewWriter(&buf, Header{Name: "seed", Clients: 3, Duration: time.Hour, Seed: 1})
	if err != nil {
		f.Fatal(err)
	}
	for _, e := range sampleEvents() {
		if err := w.Write(e); err != nil {
			f.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		f.Fatal(err)
	}
	good := buf.Bytes()
	f.Add(good)
	f.Add(good[:len(good)/2])
	f.Add([]byte("NVFT"))
	f.Add([]byte{})
	mutated := append([]byte(nil), good...)
	if len(mutated) > 10 {
		mutated[8] ^= 0xff
		mutated[len(mutated)-3] ^= 0x55
	}
	f.Add(mutated)

	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := NewReader(bytes.NewReader(data))
		if err != nil {
			return // rejected cleanly
		}
		for i := 0; i < 100000; i++ {
			e, err := r.Read()
			if err == io.EOF {
				return
			}
			if err != nil {
				return // corruption detected cleanly
			}
			if verr := e.Validate(); verr != nil {
				t.Fatalf("reader yielded invalid event %+v: %v", e, verr)
			}
		}
	})
}

// FuzzRoundTrip checks that any sequence of field values that encodes
// successfully decodes to identical events.
func FuzzRoundTrip(f *testing.F) {
	f.Add(int64(5), uint32(1), uint8(4), uint64(9), int64(0), int64(100), uint8(1), uint32(2))
	f.Add(int64(0), uint32(0), uint8(8), uint64(0), int64(0), int64(0), uint8(0), uint32(0))
	// Offset+Length wrapping int64: must be rejected at Write, never encoded.
	f.Add(int64(1), uint32(1), uint8(4), uint64(3), int64(math.MaxInt64), int64(1), uint8(0), uint32(0))
	f.Add(int64(1), uint32(1), uint8(3), uint64(3), int64(1), int64(math.MaxInt64), uint8(0), uint32(0))
	f.Fuzz(func(t *testing.T, tm int64, client uint32, op uint8, file uint64,
		off, length int64, flags uint8, target uint32) {
		e := Event{
			Time: tm, Client: client, Op: Op(op), File: file,
			Offset: off, Length: length, Flags: flags, Target: target,
		}
		var buf bytes.Buffer
		w, err := NewWriter(&buf, Header{Name: "rt"})
		if err != nil {
			t.Fatal(err)
		}
		if err := w.Write(e); err != nil {
			return // invalid event rejected at write time
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		r, err := NewReader(&buf)
		if err != nil {
			t.Fatal(err)
		}
		got, err := r.Read()
		if err != nil {
			t.Fatalf("decode failed: %v", err)
		}
		// Fields not carried for this op are normalized to zero on decode.
		want := e
		switch e.Op {
		case OpRead, OpWrite:
			want.Flags, want.Target = 0, 0
		case OpOpen:
			want.Length, want.Target = 0, 0
		case OpMigrate:
			want.Length, want.Flags = 0, 0
		default:
			want.Length, want.Flags, want.Target = 0, 0, 0
		}
		if got != want {
			t.Fatalf("round trip mismatch:\n in: %+v\nout: %+v", want, got)
		}
	})
}

// TestValidateOffsetLengthOverflow pins the adversarial-event rejection: an
// Offset+Length pair that wraps int64 must fail validation (and therefore
// Write), not flow downstream as a negative range end.
func TestValidateOffsetLengthOverflow(t *testing.T) {
	bad := []Event{
		{Time: 1, Client: 1, Op: OpWrite, File: 1, Offset: math.MaxInt64, Length: 1},
		{Time: 1, Client: 1, Op: OpRead, File: 1, Offset: 1, Length: math.MaxInt64},
		{Time: 1, Client: 1, Op: OpWrite, File: 1, Offset: math.MaxInt64 - 9, Length: 10},
	}
	for _, e := range bad {
		err := e.Validate()
		if err == nil {
			t.Fatalf("overflowing event accepted: %+v", e)
		}
		if !strings.Contains(err.Error(), "overflows") {
			t.Fatalf("unexpected error for %+v: %v", e, err)
		}
	}
	ok := Event{Time: 1, Client: 1, Op: OpWrite, File: 1, Offset: math.MaxInt64 - 10, Length: 10}
	if err := ok.Validate(); err != nil {
		t.Fatalf("boundary event rejected: %v", err)
	}
}

// TestReaderRejectsClockWrap pins the decode-side monotonicity guarantee:
// a time delta that would wrap the int64 clock (the only way a delta-coded
// stream can go backwards in time) is rejected with the event's position.
func TestReaderRejectsClockWrap(t *testing.T) {
	var buf bytes.Buffer
	w, err := NewWriter(&buf, Header{Name: "wrap"})
	if err != nil {
		t.Fatal(err)
	}
	// NewWriter flushes the header; splice hand-rolled events after it — a
	// valid first one, then one with a clock-wrapping delta (which the
	// Writer itself can't produce).
	_ = w
	raw := buf.Bytes()
	raw = append(raw, 7, byte(OpFsync), 1, 1, 0) // dt=7, client=1, file=1, offset=0
	var tmp [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(tmp[:], math.MaxUint64)
	raw = append(raw, tmp[:n]...)
	raw = append(raw, byte(OpFsync))
	raw = append(raw, 1, 2, 0) // client, file, offset varints

	r, err := NewReader(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Read(); err != nil {
		t.Fatalf("first event: %v", err)
	}
	_, err = r.Read()
	if err == nil {
		t.Fatal("clock-wrapping delta accepted")
	}
	if !strings.Contains(err.Error(), "event 1") || !strings.Contains(err.Error(), "wraps the clock") {
		t.Fatalf("unpositioned or wrong error: %v", err)
	}
}

// FuzzBytesReader checks that NewBytesReader, which decodes events off
// the slice, yields exactly the events NewReader does on the same bytes,
// and fails at the same event when NewReader does.
func FuzzBytesReader(f *testing.F) {
	var buf bytes.Buffer
	w, err := NewWriter(&buf, Header{Name: "seed", Clients: 3, Duration: time.Hour, Seed: 1})
	if err != nil {
		f.Fatal(err)
	}
	for _, e := range sampleEvents() {
		if err := w.Write(e); err != nil {
			f.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		f.Fatal(err)
	}
	good := buf.Bytes()
	f.Add(good)
	f.Add(good[:len(good)-3])
	// An eleven-byte varint where the first event's time delta goes: both
	// readers must reject it as an overflow.
	over := append([]byte(nil), good[:headerLen(f, good)]...)
	over = append(over, bytes.Repeat([]byte{0xff}, 10)...)
	f.Add(append(over, 0x01, byte(OpFsync), 1, 1, 0, 0, 0))
	// A stream cut inside an event's last field: the second byte of a
	// two-byte length varint is missing.
	cut := append([]byte(nil), good[:headerLen(f, good)]...)
	cut = appendEvent(cut, 1, Event{Client: 1, Op: OpWrite, File: 2, Length: 300})
	f.Add(cut[:len(cut)-1])

	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := NewReader(bytes.NewReader(data))
		s, serr := NewBytesReader(data)
		if (err == nil) != (serr == nil) {
			t.Fatalf("header: NewReader %v, NewBytesReader %v", err, serr)
		}
		if err != nil {
			return
		}
		if r.Header() != s.Header() {
			t.Fatalf("headers differ: %+v vs %+v", r.Header(), s.Header())
		}
		for i := 0; ; i++ {
			e, err := r.Read()
			se, serr := s.Read()
			if (err == nil) != (serr == nil) || err != nil && err.Error() != serr.Error() {
				t.Fatalf("event %d: NewReader %v, NewBytesReader %v", i, err, serr)
			}
			if err != nil {
				return
			}
			if e != se {
				t.Fatalf("event %d: NewReader %+v, NewBytesReader %+v", i, e, se)
			}
		}
	})
}

// headerLen is the length of the trace header that begins data.
func headerLen(f *testing.F, data []byte) int {
	br := bytes.NewReader(data)
	if _, err := readHeader(br); err != nil {
		f.Fatal(err)
	}
	return len(data) - br.Len()
}
