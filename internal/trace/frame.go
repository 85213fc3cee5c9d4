package trace

// Standalone single-event codec for the daemon wire protocol. The file
// codec above delta-encodes times against stream state, which a
// request/response protocol cannot share across connections; frames
// instead carry each event self-contained with an absolute time. Field
// order and varint encoding mirror the file format, so a trace file body
// and a frame body differ only in the time field's interpretation.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// AppendEvent appends e's frame encoding to dst and returns the extended
// slice. The event must be valid (Validate); AppendEvent does not check.
func AppendEvent(dst []byte, e Event) []byte {
	return appendEvent(dst, uint64(e.Time), e)
}

// maxEventLen bounds one encoded event: the time field, the op byte, the
// client, file and offset, and the longest per-op field (a length).
const maxEventLen = binary.MaxVarintLen64 + 1 + binary.MaxVarintLen32 + 3*binary.MaxVarintLen64

// appendEvent appends one event body with t in its time field: the
// absolute time in a frame, the delta from the previous event in a file.
// It is the only encoder of an event's fields.
func appendEvent(dst []byte, t uint64, e Event) []byte {
	dst = binary.AppendUvarint(dst, t)
	dst = append(dst, byte(e.Op))
	dst = binary.AppendUvarint(dst, uint64(e.Client))
	dst = binary.AppendUvarint(dst, e.File)
	dst = binary.AppendUvarint(dst, uint64(e.Offset))
	switch e.Op {
	case OpRead, OpWrite:
		dst = binary.AppendUvarint(dst, uint64(e.Length))
	case OpOpen:
		dst = append(dst, e.Flags)
	case OpMigrate:
		dst = binary.AppendUvarint(dst, uint64(e.Target))
	}
	return dst
}

// DecodeEvent decodes one frame-encoded event from b, returning the event
// and the number of bytes consumed. Errors on truncation, an invalid op,
// or an event that fails Validate.
func DecodeEvent(b []byte) (Event, int, error) {
	var e Event
	t, n, err := decodeEvent(b, &e)
	if err == nil && e.Op == 0 {
		err = errors.New("invalid op byte 0") // a file's terminator, never a frame's op
	}
	if err != nil {
		return Event{}, 0, fmt.Errorf("trace: event frame: %w", err)
	}
	e.Time = int64(t)
	if err := e.Validate(); err != nil {
		return Event{}, 0, fmt.Errorf("trace: corrupt event frame: %w", err)
	}
	return e, n, nil
}

// decodeEvent decodes one event body from b into e, the inverse of
// appendEvent and the only decoder of an event's fields from a slice. It
// returns the time field, from which the caller makes e.Time, and the
// body's length. An op byte of 0, a file stream's terminator, ends the
// body with e.Op == 0. A body cut short returns io.ErrUnexpectedEOF and
// an invalid op byte an error naming it. The event is not validated.
func decodeEvent(b []byte, e *Event) (t uint64, n int, err error) {
	r := fieldReader{b: b}
	t = r.uvarint()
	*e = Event{Op: Op(r.byte())}
	if r.short {
		return 0, 0, io.ErrUnexpectedEOF
	}
	if e.Op == 0 {
		return t, r.pos, nil
	}
	if !e.Op.Valid() {
		return 0, 0, fmt.Errorf("invalid op byte %d", byte(e.Op))
	}
	e.Client = uint32(r.uvarint())
	e.File = r.uvarint()
	e.Offset = int64(r.uvarint())
	switch e.Op {
	case OpRead, OpWrite:
		e.Length = int64(r.uvarint())
	case OpOpen:
		e.Flags = r.byte()
	case OpMigrate:
		e.Target = uint32(r.uvarint())
	}
	if r.short {
		return 0, 0, io.ErrUnexpectedEOF
	}
	return t, r.pos, nil
}

// fieldReader reads an event body's varints and bytes off a slice. A
// field that runs past the end, or a varint longer than 64 bits, reads
// as 0 and sets short, so a decoder checks once after its last field.
type fieldReader struct {
	b     []byte
	pos   int
	short bool
}

// uvarint decodes the varint at pos; small enough to inline, with no
// call on the path of any field.
func (r *fieldReader) uvarint() uint64 {
	var v uint64
	for s := uint(0); s < 64 && r.pos < len(r.b); s += 7 {
		c := r.b[r.pos]
		r.pos++
		if c < 0x80 {
			if s == 63 && c > 1 {
				break
			}
			return v | uint64(c)<<s
		}
		v |= uint64(c&0x7f) << s
	}
	r.short, r.pos = true, len(r.b)
	return 0
}

func (r *fieldReader) byte() byte {
	if r.pos >= len(r.b) {
		r.short = true
		return 0
	}
	v := r.b[r.pos]
	r.pos++
	return v
}
