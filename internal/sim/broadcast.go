package sim

import (
	"fmt"
	"sort"

	"nvramfs/internal/cache"
	"nvramfs/internal/consist"
	"nvramfs/internal/prep"
)

// Broadcast drives several steppers over one op stream in lockstep while
// sharing the operation's cache-independent work — the consistency
// protocol, file-size tracking, and the per-file touched-client index —
// across all of them. The report sweeps use it to simulate every NVRAM
// size of a row, or every memory size of one cache model, for one decode
// pass and one protocol pass.
//
// Sharing is sound because the consistency server's evolution is a pure
// function of the op stream, never of cache contents: Open decides and
// clears the recall obligation itself (so the follow-up Flushed call is a
// no-op whether or not the recalled cache held dirty bytes),
// Close/Write/Deleted/FlushedClient are unconditional, and replacement
// write-backs bypass the server entirely. The volatile model adds one
// call: on Fsync it tells the server that the client's dirty data for the
// file has reached it, whatever the cache held, so an all-volatile set
// still shares one server exactly and Apply makes the call once per
// Fsync. NewBroadcast rejects what would break the sharing: a set mixing
// volatile with NVRAM-staging steppers (the one server would have to both
// take and skip that call) and fault injection (whose delivery stage
// feeds cache-dependent write-backs into the server's replay detector).
//
// Every stepper's state after Apply is exactly the state Stepper.apply
// would have produced for the same op; TestBroadcastMatchesIndependentRuns
// holds the two paths equal.
type Broadcast struct {
	steppers   []*Stepper
	server     *consist.Server
	sizes      map[uint64]int64
	writesOnly bool
	// volatile marks an all-volatile set, whose Fsync informs the server.
	volatile bool
	// touched lists, per file in ascending order, the clients that ever
	// issued a read or write on it — a conservative superset of the
	// clients whose caches can hold the file's blocks, letting deletes
	// skip the (no-op) block walk on every other client.
	touched map[uint64][]uint32
	// noAdvance marks steppers whose model kind has a no-op Advance
	// (unified and write-aside stage writes in NVRAM and run no delayed
	// write-back clock), letting Apply skip the per-stepper, per-client
	// interface calls that would do nothing.
	noAdvance []bool
	idx       int
}

// NewBroadcast yokes the given fresh steppers together: their consistency
// servers and size tables are replaced by shared ones, so they must not
// have applied any operations yet. All steppers must agree on WritesOnly
// and on whether their model is volatile, and run without fault
// injection.
func NewBroadcast(steppers []*Stepper) (*Broadcast, error) {
	if len(steppers) == 0 {
		return nil, fmt.Errorf("sim: broadcast over no steppers")
	}
	for i, d := range steppers {
		switch {
		case d.idx != 0:
			return nil, fmt.Errorf("sim: broadcast stepper %d already at op %d", i, d.idx)
		case d.cfg.Faults != nil:
			return nil, fmt.Errorf("sim: broadcast stepper %d has fault injection", i)
		case (d.cfg.Model == cache.ModelVolatile) != (steppers[0].cfg.Model == cache.ModelVolatile):
			return nil, fmt.Errorf("sim: broadcast stepper %d mixes volatile and NVRAM-staging models", i)
		case d.cfg.WritesOnly != steppers[0].cfg.WritesOnly:
			return nil, fmt.Errorf("sim: broadcast stepper %d disagrees on WritesOnly", i)
		}
	}
	b := &Broadcast{
		steppers:   steppers,
		server:     steppers[0].server,
		sizes:      steppers[0].sizes,
		writesOnly: steppers[0].cfg.WritesOnly,
		volatile:   steppers[0].cfg.Model == cache.ModelVolatile,
		touched:    make(map[uint64][]uint32),
	}
	b.noAdvance = make([]bool, len(steppers))
	for i, d := range steppers {
		d.server = b.server
		d.sizes = b.sizes
		b.noAdvance[i] = d.cfg.Model == cache.ModelUnified || d.cfg.Model == cache.ModelWriteAside
	}
	return b, nil
}

// Steppers returns the yoked steppers (for Finish/Release).
func (b *Broadcast) Steppers() []*Stepper { return b.steppers }

// touch records that a client read or wrote a file.
func (b *Broadcast) touch(client uint32, file uint64) {
	tc := b.touched[file]
	i := sort.Search(len(tc), func(i int) bool { return tc[i] >= client })
	if i < len(tc) && tc[i] == client {
		return
	}
	tc = append(tc, 0)
	copy(tc[i+1:], tc[i:])
	tc[i] = client
	b.touched[file] = tc
}

// Apply applies one operation to every stepper, running the shared
// protocol and bookkeeping once. It mirrors Stepper.apply case by case.
func (b *Broadcast) Apply(op prep.Op) error {
	for i, d := range b.steppers {
		d.now = op.Time
		d.curClient = op.Client
		m, err := d.model(op.Client)
		if err != nil {
			return err
		}
		if !b.noAdvance[i] {
			m.Advance(op.Time)
		}
	}

	switch op.Kind {
	case prep.Open:
		res := b.server.Open(op.Client, op.File, op.WriteMode)
		for _, d := range b.steppers {
			if res.RecallFrom != consist.NoClient {
				wm, err := d.model(res.RecallFrom)
				if err != nil {
					return err
				}
				wm.Advance(op.Time)
				d.curClient = res.RecallFrom
				if wm.FlushFile(op.Time, op.File, cache.CauseCallback) > 0 {
					// A no-op on the shared server (Open cleared the
					// obligation above), kept for parity with Stepper.apply.
					b.server.Flushed(res.RecallFrom, op.File)
				}
				d.curClient = op.Client
			}
			if res.JustDisabled {
				for _, c := range d.clientOrder() {
					d.curClient = c
					d.models[c].Invalidate(op.Time, op.File)
				}
				d.curClient = op.Client
			} else if res.InvalidateOpener {
				d.models[op.Client].Invalidate(op.Time, op.File)
			}
		}

	case prep.Close:
		b.server.Close(op.Client, op.File)

	case prep.Read:
		if b.writesOnly {
			break
		}
		b.touch(op.Client, op.File)
		if b.server.Disabled(op.File) {
			for _, d := range b.steppers {
				d.models[op.Client].NoteConcurrent(true, op.Range.Len())
				if h := d.cfg.Cache.Hooks; h != nil && h.Read != nil {
					h.Read(op.Time, op.File, op.Range)
				}
			}
			break
		}
		size := b.sizes[op.File]
		if op.Range.End > size {
			size = op.Range.End
			b.sizes[op.File] = size
		}
		for _, d := range b.steppers {
			d.models[op.Client].Read(op.Time, op.File, op.Range, size)
		}

	case prep.Write:
		b.touch(op.Client, op.File)
		if op.Range.End > b.sizes[op.File] {
			b.sizes[op.File] = op.Range.End
		}
		if b.server.Disabled(op.File) {
			for _, d := range b.steppers {
				d.models[op.Client].NoteConcurrent(false, op.Range.Len())
				if h := d.cfg.Cache.Hooks; h != nil && h.Write != nil {
					h.Write(op.Time, op.File, op.Range, cache.CauseConcurrent, d.cfg.Model.StagesWritesInNVRAM())
				}
			}
		} else {
			for _, d := range b.steppers {
				d.models[op.Client].Write(op.Time, op.File, op.Range)
			}
		}
		b.server.Write(op.Client, op.File)

	case prep.DeleteRange:
		tc := b.touched[op.File]
		for i, d := range b.steppers {
			// Every client's clock still advances at the delete timestamp;
			// the block walk runs only where blocks can exist.
			if !b.noAdvance[i] {
				for _, c := range d.clientOrder() {
					d.curClient = c
					d.models[c].Advance(op.Time)
				}
			}
			for _, c := range tc {
				if int(c) < len(d.models) && d.models[c] != nil {
					d.curClient = c
					d.models[c].DeleteRange(op.Time, op.File, op.Range)
				}
			}
			d.curClient = op.Client
			if h := d.cfg.Cache.Hooks; h != nil && h.Delete != nil {
				h.Delete(op.Time, op.File, op.Range)
			}
		}
		if size := b.sizes[op.File]; op.Range.Start == 0 && op.Range.End >= size {
			delete(b.sizes, op.File)
			b.server.Deleted(op.File)
		} else if op.Range.End >= size {
			b.sizes[op.File] = op.Range.Start
		}

	case prep.Fsync:
		for _, d := range b.steppers {
			d.models[op.Client].Fsync(op.Time, op.File)
		}
		if b.volatile {
			b.server.Flushed(op.Client, op.File)
		}

	case prep.MigrateFlush:
		for _, d := range b.steppers {
			d.models[op.Client].FlushAll(op.Time, cache.CauseMigration)
		}
		b.server.FlushedClient(op.Client)

	default:
		return fmt.Errorf("sim: unknown op kind %v", op.Kind)
	}

	b.idx++
	for _, d := range b.steppers {
		d.idx++
	}
	return nil
}
