package sim

import (
	"fmt"
	"reflect"
	"slices"

	"nvramfs/internal/cache"
	"nvramfs/internal/consist"
	"nvramfs/internal/interval"
	"nvramfs/internal/prep"
)

// Broadcast simulates several cells — configurations that differ only in
// their cache capacities — over one op stream in lockstep. The report
// sweeps use it to simulate every NVRAM size of a row, or every memory
// size of one cache model, for one decode pass and one protocol pass.
//
// It shares two kinds of work. The consistency protocol, file-size
// tracking and the per-file touched-client index run once per op: the
// consistency server's evolution is a pure function of the op stream,
// never of cache contents (Open decides and clears the recall obligation
// itself, Close/Write/Deleted/FlushedClient are unconditional, and
// replacement write-backs bypass the server), and the volatile model's
// Fsync call on the server is likewise unconditional.
//
// And each client's cache is simulated once per capacity class: the set
// of cells whose state for that client is still identical. A client's
// classes start as one class of every cell. Capacity enters a model only
// through Pool.Full and Pool.Capacity, so a class's model runs with each
// pool sized to its members' smallest capacity on it, and the members
// agree for as long as no pool whose capacities differ (a shared pool)
// fills. Before each model call, Broadcast compares every shared pool's
// occupancy plus a bound on the blocks the call can insert into it with
// its capacity; if the two could meet, the members at that capacity are
// peeled off onto a copy of the model (Model.Fork) first. A class of one
// cell is the plain per-cell simulation. Pool.Full panics if a shared pool
// ever fills, so a wrong bound fails loudly rather than skewing a result.
//
// Every cell's result is exactly what Run produces for its configuration;
// TestBroadcastMatchesIndependentRuns and FuzzBroadcastMatchesRuns hold
// the two equal.
type Broadcast struct {
	cfg        Config   // every cell's configuration, capacities aside
	caps       [][2]int // per cell: volatile and NVRAM blocks
	server     *consist.Server
	sizes      map[uint64]int64
	writesOnly bool
	// volatile marks the volatile model, whose Fsync informs the server.
	volatile bool
	// noAdvance marks the model kinds whose Advance is a no-op (unified
	// and write-aside stage writes in NVRAM and run no delayed write-back
	// clock), letting Apply skip calls that would do nothing.
	noAdvance bool
	// classes holds each client's capacity classes, indexed by client id
	// (nil for clients not yet seen); clients lists the seen ids sorted.
	classes [][]*class
	clients []uint32
	// touched lists, per file in ascending order, the clients that ever
	// issued a read or write on it — a conservative superset of the
	// clients whose caches can hold the file's blocks, letting deletes
	// skip the (no-op) block walk on every other client.
	touched map[uint64][]uint32
	now     int64
	calls   Calls
}

// class is one client's cache as simulated for the cells in members
// (ascending cell indexes), whose states for that client are identical.
type class struct {
	m       cache.Model
	members []int
}

// Calls counts a Broadcast's model calls: Made counts visits, one per
// class (a visit runs its function once on the class's model; for the
// volatile and hybrid models the cleaner advance before an op is a visit
// of its own), and PerCell is how many visits simulating each cell on its
// own would make.
type Calls struct {
	Made, PerCell int64
}

// NewBroadcast prepares a lockstep simulation of the given cells. They
// must agree on everything but Cache.VolatileBlocks and Cache.NVRAMBlocks
// (the arena and files hint of the first are used), and sharing rules out
// two settings: fault injection (whose delivery stage feeds
// cache-dependent write-backs into the server's replay detector) and cache
// hooks (a shared model would fire them once for several cells).
func NewBroadcast(cfgs []Config) (*Broadcast, error) {
	if len(cfgs) == 0 {
		return nil, fmt.Errorf("sim: broadcast over no configurations")
	}
	base := cfgs[0]
	if base.Cache.BlockSize <= 0 {
		base.Cache.BlockSize = cache.DefaultBlockSize
	}
	if base.Cache.Arena == nil {
		base.Cache.Arena = cache.NewBlockArena()
	}
	b := &Broadcast{
		cfg:        base,
		caps:       make([][2]int, len(cfgs)),
		server:     consist.NewServerSized(base.FilesHint),
		sizes:      make(map[uint64]int64, base.FilesHint),
		writesOnly: base.WritesOnly,
		volatile:   base.Model == cache.ModelVolatile,
		noAdvance:  base.Model == cache.ModelUnified || base.Model == cache.ModelWriteAside,
		touched:    make(map[uint64][]uint32),
	}
	for i, cfg := range cfgs {
		switch {
		case cfg.Faults != nil:
			return nil, fmt.Errorf("sim: broadcast config %d has fault injection", i)
		case cfg.Cache.Hooks != nil:
			return nil, fmt.Errorf("sim: broadcast config %d sets cache hooks", i)
		case !sameCell(cfg, cfgs[0]):
			return nil, fmt.Errorf("sim: broadcast config %d differs from config 0 in more than its capacities", i)
		}
		b.caps[i] = [2]int{cfg.Cache.VolatileBlocks, cfg.Cache.NVRAMBlocks}
	}
	return b, nil
}

// sameCell reports whether two configurations differ at most in their
// capacities, arena and files hint.
func sameCell(a, b Config) bool {
	sa, sb := a.Cache.Schedule, b.Cache.Schedule
	if sa != nil || sb != nil {
		// A schedule of a non-comparable type (a map) cannot be shown
		// shared; comparing it would panic.
		if reflect.TypeOf(sa) != reflect.TypeOf(sb) || !reflect.TypeOf(sa).Comparable() || sa != sb {
			return false
		}
	}
	for _, c := range []*Config{&a, &b} {
		c.Cache.VolatileBlocks, c.Cache.NVRAMBlocks = 0, 0
		c.Cache.Schedule, c.Cache.Arena, c.FilesHint = nil, nil, 0
		if c.Cache.BlockSize <= 0 {
			c.Cache.BlockSize = cache.DefaultBlockSize
		}
	}
	return a == b
}

// Calls returns the model calls made so far against the per-cell calls
// they stand for.
func (b *Broadcast) Calls() Calls { return b.calls }

// addClient creates a client's one class, of every cell, on first sight.
func (b *Broadcast) addClient(client uint32) error {
	if int(client) < len(b.classes) && b.classes[client] != nil {
		return nil
	}
	cl := &class{members: make([]int, len(b.caps))}
	for i := range cl.members {
		cl.members[i] = i
	}
	cc := b.cfg.Cache
	cc.VolatileBlocks, cc.NVRAMBlocks = b.smallest(cl.members, 0), b.smallest(cl.members, 1)
	cc.Seed = clientSeed(b.cfg.Seed, client)
	m, err := cache.NewModel(b.cfg.Model, cc)
	if err != nil {
		return fmt.Errorf("sim: client %d: %w", client, err)
	}
	cl.m = m
	b.fit(cl)
	if int(client) >= len(b.classes) {
		b.classes = append(b.classes, make([][]*class, int(client)+1-len(b.classes))...)
	}
	b.classes[client] = []*class{cl}
	i, _ := slices.BinarySearch(b.clients, client)
	b.clients = slices.Insert(b.clients, i, client)
	return nil
}

// smallest returns the members' smallest capacity on pool p (0 volatile,
// 1 NVRAM).
func (b *Broadcast) smallest(members []int, p int) int {
	c := b.caps[members[0]][p]
	for _, i := range members[1:] {
		c = min(c, b.caps[i][p])
	}
	return c
}

// fit sizes each of the class's pools to its members' smallest capacity
// on it, shared when their capacities on it differ.
func (b *Broadcast) fit(cl *class) {
	vol, nv := cl.m.Pools()
	for p, pool := range [2]*cache.Pool{vol, nv} {
		if pool == nil {
			continue
		}
		c, shared := b.smallest(cl.members, p), false
		for _, i := range cl.members {
			shared = shared || b.caps[i][p] != c
		}
		pool.SetCapacity(c, shared)
	}
}

// visit calls fn on each of the client's class models, first splitting
// the classes so that no shared pool can fill during the call. span bounds
// the blocks the call can insert into each pool as a Read or Write (the
// blocks its range overlaps), and flush marks a write-back of the whole
// model or of a file (a recall, a migration, the final flush). Calls that
// only delete, invalidate, fsync or advance the cleaner insert nothing.
func (b *Broadcast) visit(client uint32, span int, flush bool, fn func(cache.Model)) {
	cls := b.classes[client]
	for i := 0; i < len(cls); i++ {
		cl := cls[i]
		vol, nv := cl.m.Pools()
		ins := [2]int{span, span}
		if flush && b.cfg.Model == cache.ModelUnified {
			// A unified flush may move each NVRAM block it writes back
			// into the volatile cache; the other models' flushes only
			// write back or drop.
			ins[0] = nv.Len()
		}
		for p, pool := range [2]*cache.Pool{vol, nv} {
			for pool != nil && pool.Shared() && pool.Len()+ins[p] >= pool.Capacity() {
				cls = append(cls, b.peel(cl, p, pool.Capacity()))
			}
		}
		fn(cl.m)
		b.calls.Made++
		b.calls.PerCell += int64(len(cl.members))
	}
	b.classes[client] = cls
}

// peel moves the class's members whose capacity on pool p is at onto a
// copy of its model, and returns the copy's class.
func (b *Broadcast) peel(cl *class, p, at int) *class {
	var keep, out []int
	for _, i := range cl.members {
		if b.caps[i][p] == at {
			out = append(out, i)
		} else {
			keep = append(keep, i)
		}
	}
	peeled := &class{members: out}
	peeled.m = cl.m.Fork(b.smallest(out, 0), b.smallest(out, 1))
	b.fit(peeled)
	cl.members = keep
	b.fit(cl)
	return peeled
}

// blocksIn counts the cache blocks a byte range overlaps.
func (b *Broadcast) blocksIn(r interval.Range) int {
	if r.Empty() {
		return 0
	}
	bs := b.cfg.Cache.BlockSize
	return int((r.End-1)/bs - r.Start/bs + 1)
}

// touch records that a client read or wrote a file.
func (b *Broadcast) touch(client uint32, file uint64) {
	tc := b.touched[file]
	if i, ok := slices.BinarySearch(tc, client); !ok {
		b.touched[file] = slices.Insert(tc, i, client)
	}
}

// Apply applies one operation to every cell, running the shared protocol
// and bookkeeping once and each class's model once. It mirrors
// Stepper.apply case by case.
func (b *Broadcast) Apply(op prep.Op) error {
	b.now = op.Time
	t := op.Time
	if err := b.addClient(op.Client); err != nil {
		return err
	}
	if !b.noAdvance {
		b.visit(op.Client, 0, false, func(m cache.Model) { m.Advance(t) })
	}

	switch op.Kind {
	case prep.Open:
		res := b.server.Open(op.Client, op.File, op.WriteMode)
		if res.RecallFrom != consist.NoClient {
			if err := b.addClient(res.RecallFrom); err != nil {
				return err
			}
			// Stepper.apply follows a flush with server.Flushed, a no-op
			// here: Open cleared the obligation itself.
			b.visit(res.RecallFrom, 0, true, func(m cache.Model) {
				m.Advance(t)
				m.FlushFile(t, op.File, cache.CauseCallback)
			})
		}
		if res.JustDisabled {
			for _, c := range b.clients {
				b.visit(c, 0, false, func(m cache.Model) { m.Invalidate(t, op.File) })
			}
		} else if res.InvalidateOpener {
			b.visit(op.Client, 0, false, func(m cache.Model) { m.Invalidate(t, op.File) })
		}

	case prep.Close:
		b.server.Close(op.Client, op.File)

	case prep.Read:
		if b.writesOnly {
			break
		}
		b.touch(op.Client, op.File)
		if b.server.Disabled(op.File) {
			b.visit(op.Client, 0, false, func(m cache.Model) { m.NoteConcurrent(true, op.Range.Len()) })
			break
		}
		size := b.sizes[op.File]
		if op.Range.End > size {
			size = op.Range.End
			b.sizes[op.File] = size
		}
		b.visit(op.Client, b.blocksIn(op.Range), false, func(m cache.Model) { m.Read(t, op.File, op.Range, size) })

	case prep.Write:
		b.touch(op.Client, op.File)
		if op.Range.End > b.sizes[op.File] {
			b.sizes[op.File] = op.Range.End
		}
		if b.server.Disabled(op.File) {
			b.visit(op.Client, 0, false, func(m cache.Model) { m.NoteConcurrent(false, op.Range.Len()) })
		} else {
			b.visit(op.Client, b.blocksIn(op.Range), false, func(m cache.Model) { m.Write(t, op.File, op.Range) })
		}
		b.server.Write(op.Client, op.File)

	case prep.DeleteRange:
		// Every client's clock still advances at the delete timestamp;
		// the block walk runs only where blocks can exist.
		if !b.noAdvance {
			for _, c := range b.clients {
				b.visit(c, 0, false, func(m cache.Model) { m.Advance(t) })
			}
		}
		for _, c := range b.touched[op.File] {
			b.visit(c, 0, false, func(m cache.Model) { m.DeleteRange(t, op.File, op.Range) })
		}
		if size := b.sizes[op.File]; op.Range.Start == 0 && op.Range.End >= size {
			delete(b.sizes, op.File)
			b.server.Deleted(op.File)
		} else if op.Range.End >= size {
			b.sizes[op.File] = op.Range.Start
		}

	case prep.Fsync:
		b.visit(op.Client, 0, false, func(m cache.Model) { m.Fsync(t, op.File) })
		if b.volatile {
			b.server.Flushed(op.Client, op.File)
		}

	case prep.MigrateFlush:
		b.visit(op.Client, 0, true, func(m cache.Model) { m.FlushAll(t, cache.CauseMigration) })
		b.server.FlushedClient(op.Client)

	default:
		return fmt.Errorf("sim: unknown op kind %v", op.Kind)
	}
	return nil
}

// Finish ends the trace as Stepper.Finish does — every cache advances to
// the last op's time and flushes its remaining dirty bytes — and returns
// one Result per cell, in configuration order, each with its own copy of
// its classes' traffic. Every model's blocks then go back to the arena;
// the Broadcast must not be used afterwards.
func (b *Broadcast) Finish() []*Result {
	for _, c := range b.clients {
		b.visit(c, 0, true, func(m cache.Model) {
			m.Advance(b.now)
			m.FlushAll(b.now, cache.CauseEnd)
		})
	}
	out := make([]*Result, len(b.caps))
	for i := range out {
		out[i] = &Result{
			PerClient:     make(map[uint32]*cache.Traffic, len(b.clients)),
			Recalls:       b.server.Recalls,
			DisableEvents: b.server.DisableEvents,
			EndTime:       b.now,
		}
	}
	for _, c := range b.clients {
		for _, cl := range b.classes[c] {
			for _, i := range cl.members {
				t := *cl.m.Traffic()
				out[i].PerClient[c] = &t
				out[i].Traffic.Add(&t)
			}
			cl.m.Release()
		}
	}
	return out
}
