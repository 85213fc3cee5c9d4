package trace

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"time"
)

// Binary trace format
//
//	magic     "NVFT" (4 bytes)
//	version   uvarint (currently 1)
//	name      uvarint length + bytes
//	clients   uvarint
//	duration  uvarint (microseconds)
//	seed      varint
//	events    repeated:
//	    dt      uvarint  (time delta from previous event, microseconds)
//	    op      1 byte   (0 terminates the stream)
//	    client  uvarint
//	    file    uvarint
//	    offset  uvarint
//	    length  uvarint          (read/write only)
//	    flags   1 byte           (open only)
//	    target  uvarint          (migrate only)
//
// Times are delta-encoded because trace events are sorted by time; deltas
// are small and varint-encode compactly.

var magic = [4]byte{'N', 'V', 'F', 'T'}

const formatVersion = 1

// ErrBadMagic is returned when a trace stream does not begin with the trace
// file magic.
var ErrBadMagic = errors.New("trace: bad magic (not a trace file)")

// Writer streams events to a trace file.
type Writer struct {
	w        *bufio.Writer
	lastTime int64
	scratch  [maxEventLen]byte // encodes an event when the buffer is nearly full
	count    int64
	closed   bool
}

// NewWriter writes a trace header to w and returns a Writer for appending
// events in non-decreasing time order.
func NewWriter(w io.Writer, h Header) (*Writer, error) {
	bw := bufio.NewWriterSize(w, 1<<16)
	hdr := append([]byte(nil), magic[:]...)
	hdr = binary.AppendUvarint(hdr, formatVersion)
	hdr = binary.AppendUvarint(hdr, uint64(len(h.Name)))
	hdr = append(hdr, h.Name...)
	hdr = binary.AppendUvarint(hdr, uint64(h.Clients))
	hdr = binary.AppendUvarint(hdr, uint64(h.Duration/time.Microsecond))
	hdr = binary.AppendVarint(hdr, h.Seed)
	if _, err := bw.Write(hdr); err != nil {
		return nil, err
	}
	return &Writer{w: bw}, bw.Flush()
}

// Write appends one event. Events must be supplied in non-decreasing time
// order. The event is encoded straight into the buffered writer's free
// space and handed over with one Write; a write error sticks in the
// buffered writer and is returned by Close.
func (tw *Writer) Write(e Event) error {
	if tw.closed {
		return errors.New("trace: write after Close")
	}
	if err := e.Validate(); err != nil {
		return err
	}
	if e.Time < tw.lastTime {
		return fmt.Errorf("trace: event time %d before previous %d", e.Time, tw.lastTime)
	}
	buf := tw.w.AvailableBuffer()
	if cap(buf) < maxEventLen {
		buf = tw.scratch[:0]
	}
	tw.w.Write(appendEvent(buf, uint64(e.Time-tw.lastTime), e))
	tw.lastTime = e.Time
	tw.count++
	return nil
}

// Count returns the number of events written so far.
func (tw *Writer) Count() int64 { return tw.count }

// Close terminates the event stream and flushes buffered data. It does not
// close the underlying writer.
func (tw *Writer) Close() error {
	if tw.closed {
		return nil
	}
	tw.closed = true
	tw.w.Write([]byte{0, 0}) // dt of terminator (ignored), then op 0
	return tw.w.Flush()
}

// Reader streams events from a trace file.
type Reader struct {
	r        *bufio.Reader
	data     []byte // non-nil: decode directly from this slice instead of r
	pos      int    // next undecoded byte in data
	header   Header
	lastTime int64
	index    int64 // events decoded so far, for error positions
	done     bool
}

// NewReader reads the trace header from r and returns a Reader positioned at
// the first event.
func NewReader(r io.Reader) (*Reader, error) {
	br := bufio.NewReaderSize(r, 1<<16)
	h, err := readHeader(br)
	if err != nil {
		return nil, err
	}
	return &Reader{r: br, header: h}, nil
}

// NewBytesReader returns a Reader decoding an in-memory encoded trace.
// It produces exactly the stream NewReader would, but decodes events
// straight off the slice instead of copying them through a buffer.
func NewBytesReader(data []byte) (*Reader, error) {
	br := bytes.NewReader(data)
	h, err := readHeader(br)
	if err != nil {
		return nil, err
	}
	return &Reader{data: data, pos: len(data) - br.Len(), header: h}, nil
}

// readHeader reads the magic and the header fields from r.
func readHeader(r interface {
	io.Reader
	io.ByteReader
}) (Header, error) {
	var m [4]byte
	if _, err := io.ReadFull(r, m[:]); err != nil {
		return Header{}, fmt.Errorf("trace: reading magic: %w", err)
	}
	if m != magic {
		return Header{}, ErrBadMagic
	}
	ver, err := binary.ReadUvarint(r)
	if err != nil {
		return Header{}, err
	}
	if ver != formatVersion {
		return Header{}, fmt.Errorf("trace: unsupported format version %d", ver)
	}
	nameLen, err := binary.ReadUvarint(r)
	if err != nil {
		return Header{}, err
	}
	if nameLen > 1<<16 {
		return Header{}, fmt.Errorf("trace: implausible name length %d", nameLen)
	}
	name := make([]byte, nameLen)
	if _, err := io.ReadFull(r, name); err != nil {
		return Header{}, err
	}
	clients, err := binary.ReadUvarint(r)
	if err != nil {
		return Header{}, err
	}
	durUS, err := binary.ReadUvarint(r)
	if err != nil {
		return Header{}, err
	}
	seed, err := binary.ReadVarint(r)
	if err != nil {
		return Header{}, err
	}
	return Header{
		Name:     string(name),
		Clients:  int(clients),
		Duration: time.Duration(durUS) * time.Microsecond,
		Seed:     seed,
	}, nil
}

// Header returns the trace file header.
func (tr *Reader) Header() Header { return tr.header }

// Read returns the next event, or io.EOF after the last event.
//
// Decoded event times are guaranteed non-decreasing: times are stored as
// unsigned deltas, so the only way a decoded stream could go backwards is
// the delta wrapping the int64 clock — which Read rejects with the event's
// position. Downstream consumers (prep canonicalization) rely on this and
// skip their own ordering re-check for Reader-fed streams.
func (tr *Reader) Read() (Event, error) {
	if tr.done {
		return Event{}, io.EOF
	}
	var e Event
	dt, err := tr.decode(&e)
	if err != nil {
		return Event{}, fmt.Errorf("trace: event %d: %w", tr.index, err)
	}
	if e.Op == 0 {
		tr.done = true
		return Event{}, io.EOF
	}
	if dt > uint64(math.MaxInt64-tr.lastTime) {
		return Event{}, fmt.Errorf("trace: event %d: time delta %d after %dus wraps the clock (non-monotonic stream)",
			tr.index, dt, tr.lastTime)
	}
	tr.lastTime += int64(dt)
	e.Time = tr.lastTime
	// A well-formed writer only produces valid events, so an invalid one
	// here means the stream is corrupt (or not a trace at all).
	if err := e.Validate(); err != nil {
		return Event{}, fmt.Errorf("trace: event %d: corrupt event: %w", tr.index, err)
	}
	tr.index++
	return e, nil
}

// decode decodes the next event body into e with decodeEvent, straight
// off the in-memory trace or off the buffered stream's next maxEventLen
// bytes, and returns its time delta. A body cut short by the end of the
// stream is io.ErrUnexpectedEOF (a well-formed trace ends with an explicit
// terminator); a body cut short by any other read error returns that
// error.
func (tr *Reader) decode(e *Event) (uint64, error) {
	if tr.data != nil {
		dt, n, err := decodeEvent(tr.data[tr.pos:], e)
		tr.pos += n
		return dt, err
	}
	b, readErr := tr.r.Peek(maxEventLen)
	dt, n, err := decodeEvent(b, e)
	if err == io.ErrUnexpectedEOF && readErr != nil && readErr != io.EOF {
		return 0, readErr
	}
	tr.r.Discard(n) // n <= len(b) bytes are buffered, so this cannot fail
	return dt, err
}

// Next implements EventSource over the remaining events.
func (tr *Reader) Next() (Event, bool, error) {
	e, err := tr.Read()
	if err == io.EOF {
		return Event{}, false, nil
	}
	if err != nil {
		return Event{}, false, err
	}
	return e, true, nil
}

// ReadAll drains the remaining events into a slice.
func (tr *Reader) ReadAll() ([]Event, error) {
	var evs []Event
	for {
		e, err := tr.Read()
		if err == io.EOF {
			return evs, nil
		}
		if err != nil {
			return evs, err
		}
		evs = append(evs, e)
	}
}
