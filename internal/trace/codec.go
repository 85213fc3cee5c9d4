package trace

import (
	"bufio"
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
	var m [4]byte
	if _, err := io.ReadFull(br, m[:]); err != nil {
		return nil, fmt.Errorf("trace: reading magic: %w", err)
	}
	if m != magic {
		return nil, ErrBadMagic
	}
	ver, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, err
	}
	if ver != formatVersion {
		return nil, fmt.Errorf("trace: unsupported format version %d", ver)
	}
	nameLen, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, err
	}
	if nameLen > 1<<16 {
		return nil, fmt.Errorf("trace: implausible name length %d", nameLen)
	}
	name := make([]byte, nameLen)
	if _, err := io.ReadFull(br, name); err != nil {
		return nil, err
	}
	clients, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, err
	}
	durUS, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, err
	}
	seed, err := binary.ReadVarint(br)
	if err != nil {
		return nil, err
	}
	return &Reader{
		r: br,
		header: Header{
			Name:     string(name),
			Clients:  int(clients),
			Duration: time.Duration(durUS) * time.Microsecond,
			Seed:     seed,
		},
	}, nil
}

// NewBytesReader returns a Reader decoding an in-memory encoded trace.
// It produces exactly the stream NewReader would, but reads varints
// straight off the slice instead of through per-byte io.ByteReader
// calls.
func NewBytesReader(data []byte) (*Reader, error) {
	if len(data) < len(magic) || string(data[:len(magic)]) != string(magic[:]) {
		return nil, ErrBadMagic
	}
	tr := &Reader{data: data, pos: len(magic)}
	ver, err := tr.uvarintSlice()
	if err != nil {
		return nil, err
	}
	if ver != formatVersion {
		return nil, fmt.Errorf("trace: unsupported format version %d", ver)
	}
	nameLen, err := tr.uvarintSlice()
	if err != nil {
		return nil, err
	}
	if nameLen > 1<<16 {
		return nil, fmt.Errorf("trace: implausible name length %d", nameLen)
	}
	if uint64(len(data)-tr.pos) < nameLen {
		return nil, io.ErrUnexpectedEOF
	}
	name := string(data[tr.pos : tr.pos+int(nameLen)])
	tr.pos += int(nameLen)
	clients, err := tr.uvarintSlice()
	if err != nil {
		return nil, err
	}
	durUS, err := tr.uvarintSlice()
	if err != nil {
		return nil, err
	}
	seed, err := tr.varintSlice()
	if err != nil {
		return nil, err
	}
	tr.header = Header{
		Name:     name,
		Clients:  int(clients),
		Duration: time.Duration(durUS) * time.Microsecond,
		Seed:     seed,
	}
	return tr, nil
}

// uvarintSlice decodes the next uvarint from the slice; one-byte values
// (the overwhelmingly common case for delta times and field values) stay
// on the inlined fast path.
func (tr *Reader) uvarintSlice() (uint64, error) {
	if tr.pos < len(tr.data) {
		if b := tr.data[tr.pos]; b < 0x80 {
			tr.pos++
			return uint64(b), nil
		}
	}
	v, n := binary.Uvarint(tr.data[tr.pos:])
	if n <= 0 {
		return 0, io.ErrUnexpectedEOF
	}
	tr.pos += n
	return v, nil
}

func (tr *Reader) varintSlice() (int64, error) {
	v, n := binary.Varint(tr.data[tr.pos:])
	if n <= 0 {
		return 0, io.ErrUnexpectedEOF
	}
	tr.pos += n
	return v, nil
}

func (tr *Reader) byteSlice() (byte, error) {
	if tr.pos >= len(tr.data) {
		return 0, io.ErrUnexpectedEOF
	}
	b := tr.data[tr.pos]
	tr.pos++
	return b, nil
}

// readSlice is Read's slice-backed fast path: identical decode logic and
// error positions, without the buffered-reader indirection.
func (tr *Reader) readSlice() (Event, error) {
	dt, err := tr.uvarintSlice()
	if err != nil {
		return Event{}, fmt.Errorf("trace: event %d: reading time delta: %w", tr.index, err)
	}
	opByte, err := tr.byteSlice()
	if err != nil {
		return Event{}, fmt.Errorf("trace: event %d: reading op: %w", tr.index, err)
	}
	if opByte == 0 {
		tr.done = true
		return Event{}, io.EOF
	}
	e := Event{Op: Op(opByte)}
	if !e.Op.Valid() {
		return Event{}, fmt.Errorf("trace: event %d: invalid op byte %d", tr.index, opByte)
	}
	if dt > uint64(math.MaxInt64-tr.lastTime) {
		return Event{}, fmt.Errorf("trace: event %d: time delta %d after %dus wraps the clock (non-monotonic stream)",
			tr.index, dt, tr.lastTime)
	}
	tr.lastTime += int64(dt)
	e.Time = tr.lastTime
	client, err := tr.uvarintSlice()
	if err != nil {
		return Event{}, err
	}
	e.Client = uint32(client)
	file, err := tr.uvarintSlice()
	if err != nil {
		return Event{}, err
	}
	e.File = file
	off, err := tr.uvarintSlice()
	if err != nil {
		return Event{}, err
	}
	e.Offset = int64(off)
	switch e.Op {
	case OpRead, OpWrite:
		l, err := tr.uvarintSlice()
		if err != nil {
			return Event{}, err
		}
		e.Length = int64(l)
	case OpOpen:
		if e.Flags, err = tr.byteSlice(); err != nil {
			return Event{}, err
		}
	case OpMigrate:
		tgt, err := tr.uvarintSlice()
		if err != nil {
			return Event{}, err
		}
		e.Target = uint32(tgt)
	}
	if err := e.Validate(); err != nil {
		return Event{}, fmt.Errorf("trace: event %d: corrupt event: %w", tr.index, err)
	}
	tr.index++
	return e, nil
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
	if tr.data != nil {
		return tr.readSlice()
	}
	dt, err := binary.ReadUvarint(tr.r)
	if err != nil {
		return Event{}, fmt.Errorf("trace: event %d: reading time delta: %w", tr.index, noEOF(err))
	}
	opByte, err := tr.r.ReadByte()
	if err != nil {
		return Event{}, fmt.Errorf("trace: event %d: reading op: %w", tr.index, noEOF(err))
	}
	if opByte == 0 {
		tr.done = true
		return Event{}, io.EOF
	}
	e := Event{Op: Op(opByte)}
	if !e.Op.Valid() {
		return Event{}, fmt.Errorf("trace: event %d: invalid op byte %d", tr.index, opByte)
	}
	if dt > uint64(math.MaxInt64-tr.lastTime) {
		return Event{}, fmt.Errorf("trace: event %d: time delta %d after %dus wraps the clock (non-monotonic stream)",
			tr.index, dt, tr.lastTime)
	}
	tr.lastTime += int64(dt)
	e.Time = tr.lastTime
	client, err := binary.ReadUvarint(tr.r)
	if err != nil {
		return Event{}, noEOF(err)
	}
	e.Client = uint32(client)
	if e.File, err = binary.ReadUvarint(tr.r); err != nil {
		return Event{}, noEOF(err)
	}
	off, err := binary.ReadUvarint(tr.r)
	if err != nil {
		return Event{}, noEOF(err)
	}
	e.Offset = int64(off)
	switch e.Op {
	case OpRead, OpWrite:
		l, err := binary.ReadUvarint(tr.r)
		if err != nil {
			return Event{}, noEOF(err)
		}
		e.Length = int64(l)
	case OpOpen:
		if e.Flags, err = tr.r.ReadByte(); err != nil {
			return Event{}, noEOF(err)
		}
	case OpMigrate:
		tgt, err := binary.ReadUvarint(tr.r)
		if err != nil {
			return Event{}, noEOF(err)
		}
		e.Target = uint32(tgt)
	}
	// A well-formed writer only produces valid events, so an invalid one
	// here means the stream is corrupt (or not a trace at all).
	if err := e.Validate(); err != nil {
		return Event{}, fmt.Errorf("trace: event %d: corrupt event: %w", tr.index, err)
	}
	tr.index++
	return e, nil
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

// noEOF converts io.EOF into io.ErrUnexpectedEOF: a well-formed trace ends
// with an explicit terminator, so EOF mid-event is corruption.
func noEOF(err error) error {
	if err == io.EOF {
		return io.ErrUnexpectedEOF
	}
	return err
}
