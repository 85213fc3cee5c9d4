package trace

// Standalone single-event codec for the daemon wire protocol. The file
// codec above delta-encodes times against stream state, which a
// request/response protocol cannot share across connections; frames
// instead carry each event self-contained with an absolute time. Field
// order and varint encoding mirror the file format, so a trace file body
// and a frame body differ only in the time field's interpretation.

import (
	"encoding/binary"
	"fmt"
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
	pos := 0
	next := func() (uint64, error) {
		v, n := binary.Uvarint(b[pos:])
		if n <= 0 {
			return 0, fmt.Errorf("trace: truncated event frame at byte %d", pos)
		}
		pos += n
		return v, nil
	}
	t, err := next()
	if err != nil {
		return Event{}, 0, err
	}
	if pos >= len(b) {
		return Event{}, 0, fmt.Errorf("trace: truncated event frame at byte %d", pos)
	}
	e := Event{Time: int64(t), Op: Op(b[pos])}
	pos++
	if !e.Op.Valid() {
		return Event{}, 0, fmt.Errorf("trace: invalid op byte %d in event frame", byte(e.Op))
	}
	client, err := next()
	if err != nil {
		return Event{}, 0, err
	}
	e.Client = uint32(client)
	if e.File, err = next(); err != nil {
		return Event{}, 0, err
	}
	off, err := next()
	if err != nil {
		return Event{}, 0, err
	}
	e.Offset = int64(off)
	switch e.Op {
	case OpRead, OpWrite:
		l, err := next()
		if err != nil {
			return Event{}, 0, err
		}
		e.Length = int64(l)
	case OpOpen:
		if pos >= len(b) {
			return Event{}, 0, fmt.Errorf("trace: truncated event frame at byte %d", pos)
		}
		e.Flags = b[pos]
		pos++
	case OpMigrate:
		tgt, err := next()
		if err != nil {
			return Event{}, 0, err
		}
		e.Target = uint32(tgt)
	}
	if err := e.Validate(); err != nil {
		return Event{}, 0, fmt.Errorf("trace: corrupt event frame: %w", err)
	}
	return e, pos, nil
}
