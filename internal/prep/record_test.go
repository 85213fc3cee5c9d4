package prep

import (
	"bytes"
	"encoding/binary"
	"math"
	"reflect"
	"testing"

	"nvramfs/internal/interval"
	"nvramfs/internal/trace"
	"nvramfs/internal/workload"
)

// TestRecordingMatchesCanonicalizer records every standard trace and
// requires the recording to replay, op for op, what canonicalizing the
// trace's NVFT encoding produces, with the same statistics, and to replay
// it identically a second time.
func TestRecordingMatchesCanonicalizer(t *testing.T) {
	for tr := 1; tr <= workload.NumStandardTraces; tr++ {
		p := workload.StandardProfile(tr, 0.02)
		var enc bytes.Buffer
		w, err := trace.NewWriter(&enc, p.Header())
		if err != nil {
			t.Fatal(err)
		}
		if _, err := workload.Generate(p, w.Write); err != nil {
			t.Fatal(err)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		r, err := trace.NewBytesReader(enc.Bytes())
		if err != nil {
			t.Fatal(err)
		}
		c := NewSource(r, Options{})
		want, err := Collect(c)
		if err != nil {
			t.Fatal(err)
		}

		rec, err := Record(workload.NewCursor(p), Options{Trusted: true})
		if err != nil {
			t.Fatal(err)
		}
		if rec.Stats() != c.Stats() {
			t.Errorf("trace %d: recording stats %+v, canonicalizer %+v", tr, rec.Stats(), c.Stats())
		}
		for pass := 0; pass < 2; pass++ {
			src, err := rec.Ops()
			if err != nil {
				t.Fatal(err)
			}
			got, err := Collect(src)
			if err != nil {
				t.Fatalf("trace %d pass %d: %v", tr, pass, err)
			}
			if len(got) != len(want) {
				t.Fatalf("trace %d pass %d: %d ops, canonicalizer %d", tr, pass, len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("trace %d pass %d op %d: %v, canonicalizer %v", tr, pass, i, got[i], want[i])
				}
			}
		}
		t.Logf("trace %d: %d ops, %d recorded bytes, %d NVFT bytes", tr, len(want), len(rec.buf), enc.Len())
	}
}

// sampleOps covers every kind, the write-mode bit, equal and far-apart
// times, and multi-byte varints in every field.
var sampleOps = []Op{
	{Time: 0, Client: 1, Kind: Open, File: 5, WriteMode: true},
	{Time: 0, Client: 1, Kind: Write, File: 5, Range: interval.Range{Start: 0, End: 100}},
	{Time: 300, Client: 70000, Kind: Read, File: 1 << 40, Range: interval.Range{Start: 1 << 33, End: 1<<33 + 4096}},
	{Time: 1 << 40, Client: 1, Kind: Fsync, File: 5},
	{Time: 1<<40 + 1, Client: 1, Kind: DeleteRange, File: 5, Range: interval.Range{Start: 50, End: 100}},
	{Time: 1<<40 + 1, Client: 2, Kind: MigrateFlush},
	{Time: math.MaxInt64, Client: math.MaxUint32, Kind: Close, File: math.MaxUint64},
}

// encodeOps records ops as Record would.
func encodeOps(ops []Op) (buf []byte, ends []int) {
	var prev int64
	for _, o := range ops {
		buf = appendOp(buf, prev, o)
		prev = o.Time
		ends = append(ends, len(buf))
	}
	return buf, ends
}

// TestRecordingRejectsTruncation cuts a short recording at every byte.
// A cut between two ops is a shorter recording and must replay that
// prefix; a cut inside an op must end the replay with an error.
func TestRecordingRejectsTruncation(t *testing.T) {
	buf, ends := encodeOps(sampleOps)
	got, err := Collect(&recordCursor{buf: buf})
	if err != nil || !reflect.DeepEqual(got, sampleOps) {
		t.Fatalf("round trip: %v, %v", got, err)
	}
	for cut := 0; cut < len(buf); cut++ {
		whole, last := 0, 0 // ops wholly before the cut, and where they end
		for whole < len(ends) && ends[whole] <= cut {
			last = ends[whole]
			whole++
		}
		got, err := Collect(&recordCursor{buf: buf[:cut]})
		boundary := cut == last
		if boundary != (err == nil) {
			t.Fatalf("cut at byte %d (op boundary %v): err = %v", cut, boundary, err)
		}
		if !reflect.DeepEqual(got, sampleOps[:whole]) && !(whole == 0 && got == nil) {
			t.Fatalf("cut at byte %d: replayed %d ops before stopping, want %d", cut, len(got), whole)
		}
	}
}

// TestRecordingRejectsBadFields sets each field past its type or to an
// unknown kind and requires an error, not a panic or a wrapped value.
func TestRecordingRejectsBadFields(t *testing.T) {
	uv := func(v uint64) []byte { return binary.AppendUvarint(nil, v) }
	op := func(parts ...[]byte) []byte { return bytes.Join(parts, nil) }
	cases := map[string][]byte{
		"kind 0":          op(uv(0), []byte{0}, uv(1), uv(1)),
		"kind 8":          op(uv(0), []byte{8}, uv(1), uv(1)),
		"kind 8 + write":  op(uv(0), []byte{8 | writeModeBit}, uv(1), uv(1)),
		"kind 127":        op(uv(0), []byte{127}, uv(1), uv(1)),
		"client overflow": op(uv(0), []byte{byte(Close)}, uv(math.MaxUint32+1), uv(1)),
		"time overflow": op(uv(math.MaxInt64), []byte{byte(Close)}, uv(1), uv(1),
			uv(1), []byte{byte(Close)}, uv(1), uv(1)),
		"start overflow":  op(uv(0), []byte{byte(Read)}, uv(1), uv(1), uv(math.MaxInt64+1), uv(0)),
		"end overflow":    op(uv(0), []byte{byte(Write)}, uv(1), uv(1), uv(math.MaxInt64), uv(1)),
		"varint overflow": op(bytes.Repeat([]byte{0xff}, 10), []byte{1}),
	}
	for name, buf := range cases {
		if _, err := Collect(&recordCursor{buf: buf}); err == nil {
			t.Errorf("%s: replayed without error", name)
		}
	}
}

// FuzzRecording replays arbitrary bytes: the cursor must never panic, and
// whatever replays cleanly must record back to a recording that replays
// the same ops.
func FuzzRecording(f *testing.F) {
	buf, ends := encodeOps(sampleOps)
	f.Add(buf)
	f.Add(buf[:ends[2]+1])
	f.Add([]byte{})
	f.Add([]byte{0, 9, 1, 1})
	f.Add([]byte{0x80, 0x00, byte(Open) | writeModeBit, 0x80, 0x80, 0x01, 0x02})
	f.Fuzz(func(t *testing.T, data []byte) {
		ops, err := Collect(&recordCursor{buf: data})
		if err != nil {
			return
		}
		again, _ := encodeOps(ops)
		got, err := Collect(&recordCursor{buf: again})
		if err != nil {
			t.Fatalf("re-recorded ops fail to replay: %v", err)
		}
		if !reflect.DeepEqual(got, ops) {
			t.Fatalf("re-recorded ops replay as %v, want %v", got, ops)
		}
	})
}
