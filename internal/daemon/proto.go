package daemon

// Wire protocol: length-prefixed binary frames over TCP. Every frame is a
// big-endian u32 payload length (1 MiB cap — an implausible length is a
// protocol violation, not a huge allocation) followed by the payload,
// whose first byte is the frame type. Event request bodies reuse the
// trace package's frame codec (trace.AppendEvent / trace.DecodeEvent), so
// the wire format is the trace file format minus delta-encoded times.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// MaxFrame bounds a frame payload. Events encode in tens of bytes and the
// stats reply in a few hundred; anything near the cap is garbage input.
const MaxFrame = 1 << 20

// frameHeader is the size of the length prefix.
const frameHeader = 4

// protoVersion is the handshake version both sides must speak.
const protoVersion = 1

// Frame types (first payload byte).
const (
	ftHello    = 1 // client → server: version
	ftHelloOK  = 2 // server → client: version, org name
	ftEvent    = 3 // client → server: one trace event (frame codec)
	ftResult   = 4 // server → client: Status byte
	ftStatsReq = 5 // client → server: empty
	ftStats    = 6 // server → client: JSON Snapshot
)

// Status is the daemon's per-request verdict.
type Status uint8

// Per-request verdicts. The distinction between Parked and ShedOverload
// is the tentpole's conservation law: a stable-organization write the
// daemon cannot process right now still has its bytes accepted into
// NVRAM, a volatile one is refused outright and the client must retry.
const (
	// StatusOK: the event was applied to the cache models.
	StatusOK Status = 0
	// StatusParked: overload path — the write's bytes were accepted
	// straight into the NVRAM park queue (stable organizations only).
	StatusParked Status = 1
	// StatusShedOverload: overload path — the request was refused and
	// nothing was applied. Typed rejection, client may retry later.
	StatusShedOverload Status = 2
	// StatusDraining: the daemon is shutting down; nothing was applied.
	StatusDraining Status = 3
	// StatusBadRequest: the event failed validation; nothing was applied.
	StatusBadRequest Status = 4
)

func (s Status) String() string {
	switch s {
	case StatusOK:
		return "ok"
	case StatusParked:
		return "parked"
	case StatusShedOverload:
		return "shed-overload"
	case StatusDraining:
		return "draining"
	case StatusBadRequest:
		return "bad-request"
	}
	return fmt.Sprintf("status(%d)", uint8(s))
}

// errFrameTooLarge is returned for a length prefix beyond MaxFrame; the
// connection is then dropped (the stream offset is unrecoverable).
var errFrameTooLarge = errors.New("daemon: frame exceeds 1MiB cap")

// readFrame reads one length-prefixed frame into a reused buffer,
// returning the payload (valid until the next call). io.EOF means the
// peer closed cleanly between frames. The prefix is read into the same
// buffer the payload then overwrites: a local array would escape through
// the io.Reader and cost an allocation per frame.
func readFrame(r io.Reader, buf *[]byte) ([]byte, error) {
	if cap(*buf) < frameHeader {
		*buf = make([]byte, 64) // events encode in tens of bytes
	}
	hdr := (*buf)[:frameHeader]
	if _, err := io.ReadFull(r, hdr); err != nil {
		return nil, err // io.EOF between frames is a clean close
	}
	n := binary.BigEndian.Uint32(hdr)
	if n == 0 {
		return nil, errors.New("daemon: empty frame")
	}
	if n > MaxFrame {
		return nil, errFrameTooLarge
	}
	if cap(*buf) < int(n) {
		*buf = make([]byte, n)
	}
	p := (*buf)[:n]
	if _, err := io.ReadFull(r, p); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF // mid-frame close is not clean
		}
		return nil, err
	}
	return p, nil
}

// beginFrame starts a frame at the front of buf, which it reuses: room for
// the length prefix, after which the caller appends the payload and hands
// the result to writeFrame. A connection keeps one such buffer per
// direction, so a reply costs no allocation once the buffer has grown.
func beginFrame(buf []byte) []byte {
	return append(buf[:0], make([]byte, frameHeader)...)
}

// writeFrame fills in the length prefix of a frame built on beginFrame and
// sends prefix and payload in a single Write, so a frame is never
// interleaved at the TCP layer.
func writeFrame(w io.Writer, frame []byte) error {
	n := len(frame) - frameHeader
	if n > MaxFrame {
		return errFrameTooLarge
	}
	binary.BigEndian.PutUint32(frame, uint32(n))
	_, err := w.Write(frame)
	return err
}
