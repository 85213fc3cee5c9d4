// Package trace defines the file-system trace event model and a compact
// binary trace format with streaming reader and writer.
//
// The original study replayed eight 24-hour traces of the Sprite distributed
// file system. Those tapes recorded key file-system operations — opens,
// closes, reads, writes, seeks, truncations, deletions, fsyncs, and process
// migrations — with the current file offset in each event so that the order
// and amount of read and write traffic could be deduced. This package
// provides the equivalent event stream for our synthetic traces: each event
// carries an explicit byte offset and length, a client id, and a simulated
// timestamp in microseconds.
package trace

import (
	"errors"
	"fmt"
	"math"
	"time"
)

// Op identifies the kind of a trace event.
type Op uint8

// Trace event kinds. The set mirrors the operations the Sprite traces
// recorded and the simulator consumes.
const (
	// OpOpen opens a file. Flags records the access mode.
	OpOpen Op = iota + 1
	// OpClose closes a file previously opened by the same client.
	OpClose
	// OpRead reads Length bytes at Offset.
	OpRead
	// OpWrite writes Length bytes at Offset.
	OpWrite
	// OpTruncate sets the file size to Offset, discarding bytes beyond it.
	OpTruncate
	// OpDelete removes the file; all of its bytes die.
	OpDelete
	// OpFsync synchronously flushes the file's dirty data toward stable
	// storage (in Sprite, all the way to the server's disk).
	OpFsync
	// OpMigrate moves a process from Client to Target; Sprite flushes the
	// source client's dirty data for files the process has open.
	OpMigrate

	opMax
)

var opNames = [...]string{
	OpOpen:     "open",
	OpClose:    "close",
	OpRead:     "read",
	OpWrite:    "write",
	OpTruncate: "truncate",
	OpDelete:   "delete",
	OpFsync:    "fsync",
	OpMigrate:  "migrate",
}

func (o Op) String() string {
	if int(o) < len(opNames) && opNames[o] != "" {
		return opNames[o]
	}
	return fmt.Sprintf("op(%d)", uint8(o))
}

// Valid reports whether o is a defined event kind.
func (o Op) Valid() bool { return o >= OpOpen && o < opMax }

// Open flags.
const (
	// FlagRead marks an open for reading.
	FlagRead uint8 = 1 << iota
	// FlagWrite marks an open for writing.
	FlagWrite
)

// Event is a single trace record. Times are simulated microseconds from the
// start of the trace. FileID identifies a file across the whole cluster
// (Sprite file handles are cluster-wide).
type Event struct {
	Time   int64  // microseconds since trace start
	Client uint32 // workstation issuing the operation
	Op     Op
	File   uint64 // cluster-wide file identifier
	Offset int64  // byte offset (new size for truncate)
	Length int64  // byte count for read/write
	Flags  uint8  // open mode for OpOpen
	Target uint32 // destination client for OpMigrate
}

// Validate checks internal consistency of a single event.
func (e *Event) Validate() error {
	switch {
	case !e.Op.Valid():
		return fmt.Errorf("trace: invalid op %d", e.Op)
	case e.Time < 0:
		return fmt.Errorf("trace: negative time %d", e.Time)
	case e.Offset < 0:
		return fmt.Errorf("trace: negative offset %d in %v", e.Offset, e.Op)
	case e.Length < 0:
		return fmt.Errorf("trace: negative length %d in %v", e.Length, e.Op)
	case e.Offset > math.MaxInt64-e.Length:
		// Offset+Length is computed throughout the pipeline (range ends,
		// byte accounting); a pair that wraps int64 is adversarial input.
		return fmt.Errorf("trace: offset %d + length %d overflows in %v", e.Offset, e.Length, e.Op)
	case (e.Op == OpRead || e.Op == OpWrite) && e.Length == 0:
		return fmt.Errorf("trace: zero-length %v", e.Op)
	case e.Op == OpOpen && e.Flags&(FlagRead|FlagWrite) == 0:
		return errors.New("trace: open without access mode")
	}
	return nil
}

func (e Event) String() string {
	switch e.Op {
	case OpRead, OpWrite:
		return fmt.Sprintf("%8dus c%d %-8s f%d [%d,+%d)", e.Time, e.Client, e.Op, e.File, e.Offset, e.Length)
	case OpTruncate:
		return fmt.Sprintf("%8dus c%d %-8s f%d size=%d", e.Time, e.Client, e.Op, e.File, e.Offset)
	case OpMigrate:
		return fmt.Sprintf("%8dus c%d %-8s -> c%d", e.Time, e.Client, e.Op, e.Target)
	case OpOpen:
		return fmt.Sprintf("%8dus c%d %-8s f%d flags=%d", e.Time, e.Client, e.Op, e.File, e.Flags)
	default:
		return fmt.Sprintf("%8dus c%d %-8s f%d", e.Time, e.Client, e.Op, e.File)
	}
}

// Header describes a trace file.
type Header struct {
	// Name labels the trace (e.g. "trace3").
	Name string
	// Clients is the number of client workstations appearing in the trace.
	Clients int
	// Duration is the trace length.
	Duration time.Duration
	// Seed is the generator seed that produced the trace, for provenance.
	Seed int64
}

// Microseconds in common trace durations.
const (
	Second = int64(1e6)
	Minute = 60 * Second
	Hour   = 60 * Minute
	Day    = 24 * Hour
)

// EventSource is a pull cursor over a trace event stream: Next returns the
// next event, or ok=false at the end of the stream. Sources are single-use
// and not safe for concurrent callers. The streaming pipeline threads this
// cursor from the workload generator (or a trace file Reader) through prep
// canonicalization into the simulators, so no stage materializes the trace.
type EventSource interface {
	Next() (e Event, ok bool, err error)
}

// SliceSource adapts an in-memory event slice to an EventSource; tests use
// it to compare the streaming pipeline against materialized inputs.
type SliceSource struct {
	evs []Event
	i   int
}

// NewSliceSource returns a cursor over evs. The slice is not copied.
func NewSliceSource(evs []Event) *SliceSource { return &SliceSource{evs: evs} }

// Next implements EventSource.
func (s *SliceSource) Next() (Event, bool, error) {
	if s.i >= len(s.evs) {
		return Event{}, false, nil
	}
	e := s.evs[s.i]
	s.i++
	return e, true, nil
}
