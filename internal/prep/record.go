package prep

import (
	"encoding/binary"
	"fmt"
	"math"

	"nvramfs/internal/trace"
)

// Recording is a canonical op stream recorded once and replayed any
// number of times. The paper's method canonicalizes a trace in one
// preprocessing pass and then runs the lifetime analysis, the omniscient
// schedule and the cache simulations over the result; a Recording is that
// result, held as varints rather than as an op slice, so it costs about a
// byte and a half per field instead of an Op's 48 bytes.
//
// Each op is appended as: the time delta from the previous op (times are
// non-decreasing), one byte holding the kind and the write-mode bit, the
// client, the file, and for Read, Write and DeleteRange the range start
// and length, all unsigned varints. A Recording is immutable once built,
// and it implements Replayable: every cursor decodes the shared bytes on
// its own, so any number may run at once.
type Recording struct {
	buf   []byte
	stats Stats
}

// writeModeBit marks an Open for writing in an op's kind byte.
const writeModeBit = 0x80

// Record canonicalizes src to its end and records every op it produces,
// returning the recording with the canonicalizer's statistics. The ops
// must come out in non-decreasing time order: Options.Trusted is safe on
// a trace.Reader or the workload generator, and otherwise the
// canonicalizer checks the order itself.
func Record(src trace.EventSource, opt Options) (*Recording, error) {
	c := NewSource(src, opt)
	r := &Recording{}
	var last int64
	for {
		o, ok, err := c.Next()
		if err != nil {
			return nil, err
		}
		if !ok {
			break
		}
		if o.Time < last {
			return nil, fmt.Errorf("prep: recording op %d out of order (%d < %d)", c.st.Ops-1, o.Time, last)
		}
		r.buf = appendOp(r.buf, last, o)
		last = o.Time
	}
	r.stats = c.Stats()
	return r, nil
}

// appendOp encodes o after an op at time prev.
func appendOp(buf []byte, prev int64, o Op) []byte {
	buf = binary.AppendUvarint(buf, uint64(o.Time-prev))
	k := byte(o.Kind)
	if o.WriteMode {
		k |= writeModeBit
	}
	buf = append(buf, k)
	buf = binary.AppendUvarint(buf, uint64(o.Client))
	buf = binary.AppendUvarint(buf, o.File)
	if hasRange(o.Kind) {
		buf = binary.AppendUvarint(buf, uint64(o.Range.Start))
		buf = binary.AppendUvarint(buf, uint64(o.Range.Len()))
	}
	return buf
}

// hasRange reports whether ops of kind k carry a byte range.
func hasRange(k Kind) bool { return k == Read || k == Write || k == DeleteRange }

// Stats returns the statistics of the canonicalization that made the
// recording.
func (r *Recording) Stats() Stats { return r.stats }

// Ops implements Replayable: it returns a fresh cursor over the ops.
func (r *Recording) Ops() (Source, error) { return &recordCursor{buf: r.buf}, nil }

// recordCursor decodes a Recording one op at a time. Every read is bounds
// checked: truncated bytes, an unknown kind or a field that overflows its
// type ends the stream with an error.
type recordCursor struct {
	buf []byte
	pos int
	t   int64
	err error
}

// uvarint decodes the next varint, taking the one-byte case inline.
func (c *recordCursor) uvarint() (uint64, bool) {
	if c.pos < len(c.buf) && c.buf[c.pos] < 0x80 {
		v := uint64(c.buf[c.pos])
		c.pos++
		return v, true
	}
	v, n := binary.Uvarint(c.buf[c.pos:])
	if n <= 0 {
		return 0, false
	}
	c.pos += n
	return v, true
}

// fail ends the stream with an error naming the byte offset of the op.
func (c *recordCursor) fail(at int, format string, args ...any) (Op, bool, error) {
	c.err = fmt.Errorf("prep: recording at byte %d: "+format, append([]any{at}, args...)...)
	return Op{}, false, c.err
}

// Next implements Source.
func (c *recordCursor) Next() (Op, bool, error) {
	if c.err != nil || c.pos >= len(c.buf) {
		return Op{}, false, c.err
	}
	at := c.pos
	dt, ok := c.uvarint()
	if !ok || c.pos >= len(c.buf) {
		return c.fail(at, "truncated op")
	}
	if dt > uint64(math.MaxInt64-c.t) {
		return c.fail(at, "time overflows")
	}
	kb := c.buf[c.pos]
	c.pos++
	o := Op{Time: c.t + int64(dt), Kind: Kind(kb &^ writeModeBit), WriteMode: kb&writeModeBit != 0}
	if o.Kind < Open || o.Kind > MigrateFlush {
		return c.fail(at, "unknown op kind %d", o.Kind)
	}
	client, ok1 := c.uvarint()
	file, ok2 := c.uvarint()
	if !ok1 || !ok2 {
		return c.fail(at, "truncated op")
	}
	if client > math.MaxUint32 {
		return c.fail(at, "client %d overflows", client)
	}
	o.Client, o.File = uint32(client), file
	if hasRange(o.Kind) {
		start, ok1 := c.uvarint()
		n, ok2 := c.uvarint()
		if !ok1 || !ok2 {
			return c.fail(at, "truncated op")
		}
		if start > math.MaxInt64 || n > math.MaxInt64-start {
			return c.fail(at, "range overflows")
		}
		o.Range.Start, o.Range.End = int64(start), int64(start+n)
	}
	c.t = o.Time
	return o, true, nil
}
