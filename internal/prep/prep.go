// Package prep converts raw trace events into the canonical operation
// stream consumed by the simulators.
//
// The paper's methodology processed the Sprite traces "to convert [them]
// into read, write, delete, flush, and invalidate operations on ranges of
// bytes" before simulation (Section 2.2). This package is that first pass:
// it tracks per-file sizes so deletions and truncations become explicit
// dead byte ranges, validates event ordering, carries open/close with
// access modes through to the consistency machinery, and turns process
// migrations into per-client flush operations.
package prep

import (
	"fmt"

	"nvramfs/internal/blockmap"
	"nvramfs/internal/interval"
	"nvramfs/internal/trace"
)

// Kind identifies a canonical operation.
type Kind uint8

// Canonical operation kinds.
const (
	// Open records a file open with an access mode; drives the server's
	// consistency protocol (callbacks, concurrent write-sharing).
	Open Kind = iota + 1
	// Close records a file close.
	Close
	// Read is an application read of Range.
	Read
	// Write is an application write of Range.
	Write
	// DeleteRange kills the bytes in Range (from deletion or truncation):
	// cached copies are invalidated, dirty bytes die without server traffic.
	DeleteRange
	// Fsync synchronously flushes the file's dirty bytes to the server.
	Fsync
	// MigrateFlush flushes all dirty bytes cached at Client (Sprite writes
	// back a client's dirty data when a process migrates away from it).
	MigrateFlush
)

var kindNames = [...]string{
	Open:         "open",
	Close:        "close",
	Read:         "read",
	Write:        "write",
	DeleteRange:  "delete",
	Fsync:        "fsync",
	MigrateFlush: "migrate-flush",
}

func (k Kind) String() string {
	if int(k) < len(kindNames) && kindNames[k] != "" {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// Op is one canonical operation.
type Op struct {
	Time   int64
	Client uint32
	Kind   Kind
	File   uint64
	// Range is the affected byte range for Read, Write, and DeleteRange.
	Range interval.Range
	// WriteMode marks an Open for writing.
	WriteMode bool
}

func (o Op) String() string {
	return fmt.Sprintf("%dus c%d %v f%d %v", o.Time, o.Client, o.Kind, o.File, o.Range)
}

// Stats summarizes a canonicalized trace.
type Stats struct {
	Events        int64 // raw events processed
	Ops           int64 // canonical ops produced
	Files         int   // distinct files touched (an id reused after a whole-file delete counts again)
	BytesRead     int64 // application read bytes
	BytesWritten  int64 // application write bytes
	BytesDeleted  int64 // bytes killed by delete/truncate (whether cached or not)
	Opens, Closes int64
	Fsyncs        int64
	Migrations    int64
	EndTime       int64 // time of last op
}

// Source is a pull cursor over canonical ops: Next returns the next op, or
// ok=false at the end of the stream. Sources are single-use; a consumer
// that needs several passes asks a Replayable for a fresh cursor each time.
type Source interface {
	Next() (o Op, ok bool, err error)
}

// Replayable hands out fresh, identical cursors over one op stream. The
// crash harness's LFS oracle replays a trace several times; a Recording
// implements it by decoding its recorded ops again.
type Replayable interface {
	Ops() (Source, error)
}

// Options configures streaming canonicalization.
type Options struct {
	// Trusted skips the per-event validation and time-ordering re-check.
	// Safe exactly when the event source is a trace.Reader (or the
	// workload generator): the Reader validates every event and rejects
	// non-monotonic times at decode.
	Trusted bool
}

// Canonicalizer converts a raw event stream into canonical ops, one pull at
// a time, in bounded memory: its only per-trace state is the per-file size
// table. It implements Source.
type Canonicalizer struct {
	src trace.EventSource
	opt Options
	st  Stats
	// files maps each live file, keyed {File: id}, to its size. A
	// whole-file delete removes the entry, keeping the table bounded by the
	// live file population rather than every file the trace ever touched:
	// a deleted file looks exactly like an unseen one (size zero), and the
	// trace generators never reuse ids, so re-insertion cannot recount a
	// file.
	files blockmap.Table[int64]
	last  int64
	idx   int64 // raw event index, for error positions
	err   error
	done  bool
}

// NewSource returns a streaming canonicalizer pulling from src.
func NewSource(src trace.EventSource, opt Options) *Canonicalizer {
	return &Canonicalizer{src: src, opt: opt}
}

// NewPush returns a canonicalizer with no event source, fed one event at
// a time through Push. This is the daemon's mode: events arrive from the
// wire, not from a trace cursor, and there is no end-of-stream.
func NewPush(opt Options) *Canonicalizer {
	return NewSource(nil, opt)
}

// Push canonicalizes one event, returning the op it produced, if any.
// Events must arrive in non-decreasing time order (unless Trusted, which
// skips the check). Push and Next must not be mixed on one Canonicalizer.
func (c *Canonicalizer) Push(e trace.Event) (Op, bool, error) {
	if c.err != nil {
		return Op{}, false, c.err
	}
	if !c.opt.Trusted {
		if err := e.Validate(); err != nil {
			c.err = fmt.Errorf("prep: event %d: %w", c.idx, err)
			return Op{}, false, c.err
		}
		if e.Time < c.last {
			c.err = fmt.Errorf("prep: event %d out of order (%d < %d)", c.idx, e.Time, c.last)
			return Op{}, false, c.err
		}
		c.last = e.Time
	}
	c.idx++
	o, emitted := c.apply(e)
	return o, emitted, nil
}

// Stats returns the running trace statistics; totals are complete once
// Next has returned ok=false.
func (c *Canonicalizer) Stats() Stats { return c.st }

// Next implements Source. Raw events that canonicalize to nothing (e.g. a
// truncate that discards no bytes) are consumed silently, so one pull may
// advance the event source by more than one event.
func (c *Canonicalizer) Next() (Op, bool, error) {
	if c.err != nil || c.done {
		return Op{}, false, c.err
	}
	for {
		e, ok, err := c.src.Next()
		if err != nil {
			c.err = fmt.Errorf("prep: event %d: %w", c.idx, err)
			return Op{}, false, c.err
		}
		if !ok {
			c.done = true
			return Op{}, false, nil
		}
		if o, emitted, err := c.Push(e); err != nil || emitted {
			return o, emitted, err
		}
	}
}

// apply canonicalizes one event, updating the statistics, and reports
// whether it produced an op.
func (c *Canonicalizer) apply(e trace.Event) (Op, bool) {
	c.st.Events++
	var size *int64
	if e.Op != trace.OpMigrate {
		var had bool
		size, had = c.files.Ref(blockmap.Key{File: e.File})
		if !had {
			c.st.Files++
		}
	}
	var (
		o       Op
		emitted bool
	)
	out := func(op Op) {
		c.st.Ops++
		if op.Time > c.st.EndTime {
			c.st.EndTime = op.Time
		}
		o, emitted = op, true
	}
	switch e.Op {
	case trace.OpOpen:
		c.st.Opens++
		out(Op{Time: e.Time, Client: e.Client, Kind: Open, File: e.File,
			WriteMode: e.Flags&trace.FlagWrite != 0})
	case trace.OpClose:
		c.st.Closes++
		out(Op{Time: e.Time, Client: e.Client, Kind: Close, File: e.File})
	case trace.OpRead:
		r := interval.Range{Start: e.Offset, End: e.Offset + e.Length}
		if r.End > *size {
			// Reads of files that predate the trace reveal their size.
			*size = r.End
		}
		c.st.BytesRead += r.Len()
		out(Op{Time: e.Time, Client: e.Client, Kind: Read, File: e.File, Range: r})
	case trace.OpWrite:
		r := interval.Range{Start: e.Offset, End: e.Offset + e.Length}
		if r.End > *size {
			*size = r.End
		}
		c.st.BytesWritten += r.Len()
		out(Op{Time: e.Time, Client: e.Client, Kind: Write, File: e.File, Range: r})
	case trace.OpTruncate:
		old := *size
		if e.Offset < old {
			r := interval.Range{Start: e.Offset, End: old}
			c.st.BytesDeleted += r.Len()
			out(Op{Time: e.Time, Client: e.Client, Kind: DeleteRange, File: e.File, Range: r})
		}
		*size = e.Offset
	case trace.OpDelete:
		if old := *size; old > 0 {
			r := interval.Range{Start: 0, End: old}
			c.st.BytesDeleted += r.Len()
			out(Op{Time: e.Time, Client: e.Client, Kind: DeleteRange, File: e.File, Range: r})
		}
		c.files.Del(blockmap.Key{File: e.File})
	case trace.OpFsync:
		c.st.Fsyncs++
		out(Op{Time: e.Time, Client: e.Client, Kind: Fsync, File: e.File})
	case trace.OpMigrate:
		c.st.Migrations++
		out(Op{Time: e.Time, Client: e.Client, Kind: MigrateFlush})
	}
	return o, emitted
}

// SliceSource adapts a materialized op slice to a Source.
type SliceSource struct {
	ops []Op
	i   int
}

// NewSliceSource returns a cursor over ops. The slice is not copied.
func NewSliceSource(ops []Op) *SliceSource { return &SliceSource{ops: ops} }

// Next implements Source.
func (s *SliceSource) Next() (Op, bool, error) {
	if s.i >= len(s.ops) {
		return Op{}, false, nil
	}
	o := s.ops[s.i]
	s.i++
	return o, true, nil
}

// SliceReplayable adapts a materialized op slice to Replayable.
type SliceReplayable []Op

// Ops implements Replayable.
func (s SliceReplayable) Ops() (Source, error) { return NewSliceSource(s), nil }

// Collect drains a source into a slice (tests and small tools; the
// simulators consume sources directly).
func Collect(src Source) ([]Op, error) {
	var ops []Op
	for {
		o, ok, err := src.Next()
		if err != nil {
			return ops, err
		}
		if !ok {
			return ops, nil
		}
		ops = append(ops, o)
	}
}
