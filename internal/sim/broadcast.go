package sim

import (
	"fmt"
	"math/bits"
	"reflect"
	"slices"

	"nvramfs/internal/cache"
	"nvramfs/internal/consist"
	"nvramfs/internal/faults"
	"nvramfs/internal/interval"
	"nvramfs/internal/prep"
)

// Broadcast simulates several cells — configurations that differ only in
// their cache capacities — over one op stream in lockstep. The report
// sweeps use it to simulate every NVRAM size of a row, or every memory
// size of one cache model, for one decode pass and one protocol pass. It
// is also the simulator's only op dispatcher: a Stepper, and so Run, is
// a Broadcast of one cell.
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
// Every cell's result is exactly what Run, a class that never splits,
// produces for its configuration; TestBroadcastMatchesIndependentRuns and
// FuzzBroadcastMatchesRuns hold the two equal.
type Broadcast struct {
	cfg        Config   // every cell's configuration, capacities aside
	caps       [][2]int // per cell: volatile and NVRAM blocks
	server     *consist.Server
	files      map[uint64]fileState
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
	now     int64
	calls   Calls
	// cur is the client whose model is being driven: visit sets it, and
	// Apply restores the op's client once the op's visits are done. Cache
	// hooks carry no client identity; the fault stage and an external
	// write-back stage (Stepper.CurrentClient) read it instead.
	cur   uint32
	fault *faults.Injector
}

// fileState is the per-file bookkeeping, dropped when the file is
// deleted whole.
type fileState struct {
	// size is the end of the furthest byte read or written, or the cut
	// point of a later truncating delete.
	size int64
	// touched holds the clients that read or wrote the file: a
	// conservative superset of the clients whose caches can hold its
	// blocks, letting deletes skip the (no-op) block walk on every other
	// client.
	touched clientSet
}

// clientSet is a set of client ids: a bitmask for ids below 64, so the
// small dense ids of the traces cost no allocation, and a sorted slice
// above.
type clientSet struct {
	low  uint64
	high []uint32
}

func (s *clientSet) has(c uint32) bool {
	if c < 64 {
		return s.low&(1<<c) != 0
	}
	_, ok := slices.BinarySearch(s.high, c)
	return ok
}

func (s *clientSet) add(c uint32) {
	if c < 64 {
		s.low |= 1 << c
	} else if i, ok := slices.BinarySearch(s.high, c); !ok {
		s.high = slices.Insert(s.high, i, c)
	}
}

// each calls fn on the members in ascending order.
func (s *clientSet) each(fn func(uint32)) {
	for low := s.low; low != 0; low &= low - 1 {
		fn(uint32(bits.TrailingZeros64(low)))
	}
	for _, c := range s.high {
		fn(c)
	}
}

// class is one client's cache as simulated for the cells in members
// (ascending cell indexes), whose states for that client are identical.
type class struct {
	m       cache.Model
	members []int
	// shared marks a class with a shared pool, the only kind visit must
	// check before a call.
	shared bool
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
// (the arena and files hint of the first are used). Fault injection and
// cache hooks are for a single cell only: a shared model would fire its
// hooks once for several cells, and the fault stage feeds cache-dependent
// write-backs into the server's replay detector.
func NewBroadcast(cfgs []Config) (*Broadcast, error) {
	if len(cfgs) == 0 {
		return nil, fmt.Errorf("sim: broadcast over no configurations")
	}
	caps := make([][2]int, len(cfgs))
	for i, cfg := range cfgs {
		switch {
		case len(cfgs) > 1 && cfg.Faults != nil:
			return nil, fmt.Errorf("sim: broadcast config %d has fault injection, which needs a single cell", i)
		case len(cfgs) > 1 && cfg.Cache.Hooks != nil:
			return nil, fmt.Errorf("sim: broadcast config %d sets cache hooks, which need a single cell", i)
		case i > 0 && !sameCell(cfg, cfgs[0]):
			return nil, fmt.Errorf("sim: broadcast config %d differs from config 0 in more than its capacities", i)
		}
		caps[i] = [2]int{cfg.Cache.VolatileBlocks, cfg.Cache.NVRAMBlocks}
	}
	return newBroadcast(cfgs[0], caps), nil
}

// newBroadcast builds a Broadcast of the cells at caps over base.
func newBroadcast(base Config, caps [][2]int) *Broadcast {
	if base.Cache.BlockSize <= 0 {
		base.Cache.BlockSize = cache.DefaultBlockSize
	}
	if base.Cache.Arena == nil {
		// One arena per run: every client's evictions feed every client's
		// allocations. Callers that run many configurations (the report
		// drivers) pass a longer-lived arena instead.
		base.Cache.Arena = cache.NewBlockArena()
	}
	b := &Broadcast{
		cfg:        base,
		caps:       caps,
		server:     consist.NewServerSized(base.FilesHint),
		files:      make(map[uint64]fileState, base.FilesHint),
		writesOnly: base.WritesOnly,
		volatile:   base.Model == cache.ModelVolatile,
		noAdvance:  base.Model == cache.ModelUnified || base.Model == cache.ModelWriteAside,
	}
	if base.Faults != nil {
		b.installFaultStage()
	}
	return b
}

// installFaultStage interposes the fault injector between the cache
// models' write-backs and the downstream world: committed deliveries are
// presented to the consistency server for replay detection, then
// forwarded to whatever hooks the caller installed. Reads and deletes
// pass through untouched.
func (b *Broadcast) installFaultStage() {
	inner := b.cfg.Cache.Hooks
	b.fault = faults.NewInjector(*b.cfg.Faults, func(now int64, dv faults.Delivery, replay bool) {
		if first := b.server.DeliverWriteback(dv.File, dv.Seq); !first || replay {
			return
		}
		if inner != nil && inner.Write != nil {
			inner.Write(now, dv.File, interval.Range{Start: dv.Start, End: dv.End},
				cache.Cause(dv.Cause), dv.Stable)
		}
	})
	if b.cfg.DurableImage != nil {
		b.fault.AttachImage(b.cfg.DurableImage)
	}
	hooks := &cache.ServerHooks{
		Write: func(now int64, file uint64, r interval.Range, cause cache.Cause, stable bool) {
			b.fault.Deliver(now, faults.Delivery{
				Client: b.cur,
				File:   file,
				Start:  r.Start,
				End:    r.End,
				Cause:  uint8(cause),
				Stable: stable,
			})
		},
	}
	if inner != nil {
		hooks.Read = inner.Read
		hooks.Delete = inner.Delete
	}
	b.cfg.Cache.Hooks = hooks
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
	cl.shared = false
	for p, pool := range [2]*cache.Pool{vol, nv} {
		if pool == nil {
			continue
		}
		c, shared := b.smallest(cl.members, p), false
		for _, i := range cl.members {
			shared = shared || b.caps[i][p] != c
		}
		pool.SetCapacity(c, shared)
		cl.shared = cl.shared || shared
	}
}

// visit calls fn on each of the client's class models, first splitting
// the classes so that no shared pool can fill during the call. span bounds
// the blocks the call can insert into each pool as a Read or Write (the
// blocks its range overlaps), and flush marks a write-back of the whole
// model or of a file (a recall, a migration, the final flush). Calls that
// only delete, invalidate, fsync or advance the cleaner insert nothing.
// The client is current for the call.
func (b *Broadcast) visit(client uint32, span int, flush bool, fn func(cache.Model)) {
	b.cur = client
	// split may append classes; the ones it appends need no second split.
	for i := 0; i < len(b.classes[client]); i++ {
		cl := b.classes[client][i]
		if cl.shared {
			b.split(client, cl, span, flush)
		}
		fn(cl.m)
		b.calls.Made++
		b.calls.PerCell += int64(len(cl.members))
	}
}

// split peels off the members of a class with a shared pool at each
// capacity that the pool's occupancy plus the call's insert bound (see
// visit) could reach, appending their classes to the client's.
func (b *Broadcast) split(client uint32, cl *class, span int, flush bool) {
	vol, nv := cl.m.Pools()
	ins := [2]int{span, span}
	if flush && b.cfg.Model == cache.ModelUnified {
		// A unified flush may move each NVRAM block it writes back into
		// the volatile cache; the other models' flushes only write back
		// or drop.
		ins[0] = nv.Len()
	}
	for p, pool := range [2]*cache.Pool{vol, nv} {
		for pool != nil && pool.Shared() && pool.Len()+ins[p] >= pool.Capacity() {
			b.classes[client] = append(b.classes[client], b.peel(cl, p, pool.Capacity()))
		}
	}
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

// touch records that a client read or wrote a file and, when grow is set,
// that the file extends to at least end. It returns the file's size.
func (b *Broadcast) touch(client uint32, file uint64, end int64, grow bool) int64 {
	fs := b.files[file]
	if fs.touched.has(client) && (!grow || end <= fs.size) {
		return fs.size
	}
	fs.touched.add(client)
	if grow {
		fs.size = max(fs.size, end)
	}
	b.files[file] = fs
	return fs.size
}

// Apply applies one operation to every cell, running the shared protocol
// and bookkeeping once and each class's model once. With a fault stage,
// the stage first catches up to the op's time.
func (b *Broadcast) Apply(op prep.Op) error {
	b.now = op.Time
	t := op.Time
	if b.fault != nil {
		b.fault.Advance(t)
	}
	if err := b.addClient(op.Client); err != nil {
		return err
	}
	if !b.noAdvance {
		b.visit(op.Client, 0, false, func(m cache.Model) { m.Advance(t) })
	}
	hooks := b.cfg.Cache.Hooks

	switch op.Kind {
	case prep.Open:
		res := b.server.Open(op.Client, op.File, op.WriteMode)
		if res.RecallFrom != consist.NoClient {
			if err := b.addClient(res.RecallFrom); err != nil {
				return err
			}
			b.visit(res.RecallFrom, 0, true, func(m cache.Model) {
				m.Advance(t)
				m.FlushFile(t, op.File, cache.CauseCallback)
			})
		}
		if res.JustDisabled {
			// Concurrent write-sharing: every cached copy is flushed and
			// invalidated; subsequent I/O bypasses the caches.
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
		// A read under concurrent write-sharing bypasses the cache and
		// leaves the size alone.
		disabled := b.server.Disabled(op.File)
		size := b.touch(op.Client, op.File, op.Range.End, !disabled)
		if disabled {
			b.visit(op.Client, 0, false, func(m cache.Model) { m.NoteConcurrent(true, op.Range.Len()) })
			if hooks != nil && hooks.Read != nil {
				hooks.Read(t, op.File, op.Range)
			}
			break
		}
		b.visit(op.Client, b.blocksIn(op.Range), false, func(m cache.Model) { m.Read(t, op.File, op.Range, size) })

	case prep.Write:
		b.touch(op.Client, op.File, op.Range.End, true)
		if b.server.Disabled(op.File) {
			b.visit(op.Client, 0, false, func(m cache.Model) { m.NoteConcurrent(false, op.Range.Len()) })
			if hooks != nil && hooks.Write != nil {
				hooks.Write(t, op.File, op.Range, cache.CauseConcurrent, b.cfg.Model.StagesWritesInNVRAM())
			}
		} else {
			b.visit(op.Client, b.blocksIn(op.Range), false, func(m cache.Model) { m.Write(t, op.File, op.Range) })
		}
		b.server.Write(op.Client, op.File)

	case prep.DeleteRange:
		// Deletion is cluster-visible: every client's cached copy of the
		// dead bytes is discarded, and the writer's dirty bytes die in
		// place (absorption). Every client's clock still advances at the
		// delete timestamp; the block walk runs only where blocks can
		// exist. Client order, not map order: the models' hooks feed a
		// shared server whose replay must be deterministic.
		if !b.noAdvance {
			for _, c := range b.clients {
				b.visit(c, 0, false, func(m cache.Model) { m.Advance(t) })
			}
		}
		fs := b.files[op.File]
		fs.touched.each(func(c uint32) {
			b.visit(c, 0, false, func(m cache.Model) { m.DeleteRange(t, op.File, op.Range) })
		})
		b.cur = op.Client
		if hooks != nil && hooks.Delete != nil {
			hooks.Delete(t, op.File, op.Range)
		}
		if op.Range.Start == 0 && op.Range.End >= fs.size {
			// No cache holds a byte of the file now.
			delete(b.files, op.File)
			b.server.Deleted(op.File)
		} else if op.Range.End >= fs.size {
			fs.size = op.Range.Start
			b.files[op.File] = fs
		}

	case prep.Fsync:
		b.visit(op.Client, 0, false, func(m cache.Model) { m.Fsync(t, op.File) })
		// Volatile caches flush to the server's disk on fsync.
		if b.volatile {
			b.server.Flushed(op.Client, op.File)
		}

	case prep.MigrateFlush:
		b.visit(op.Client, 0, true, func(m cache.Model) { m.FlushAll(t, cache.CauseMigration) })
		b.server.FlushedClient(op.Client)

	default:
		return fmt.Errorf("sim: unknown op kind %v", op.Kind)
	}
	b.cur = op.Client
	return nil
}

// Finish ends the trace — every cache advances to the last op's time and
// flushes its remaining dirty bytes (counted pessimistically as server
// traffic, as the paper's figures do), and a fault stage drains — and
// returns one Result per cell, in configuration order, each with its own
// copy of its classes' traffic. Call Release afterwards to recycle the
// blocks.
func (b *Broadcast) Finish() []*Result {
	for _, c := range b.clients {
		b.visit(c, 0, true, func(m cache.Model) {
			m.Advance(b.now)
			m.FlushAll(b.now, cache.CauseEnd)
		})
	}
	var st *faults.Stats
	if b.fault != nil {
		b.fault.Close(b.now)
		s := b.fault.Stats()
		st = &s
	}
	out := make([]*Result, len(b.caps))
	for i := range out {
		out[i] = &Result{
			PerClient:      make(map[uint32]*cache.Traffic, len(b.clients)),
			Recalls:        b.server.Recalls,
			DisableEvents:  b.server.DisableEvents,
			ReplayedWrites: b.server.ReplayedWrites,
			Faults:         st,
			EndTime:        b.now,
		}
	}
	for _, c := range b.clients {
		for _, cl := range b.classes[c] {
			for _, i := range cl.members {
				t := *cl.m.Traffic()
				out[i].PerClient[c] = &t
				out[i].Traffic.Add(&t)
			}
		}
	}
	return out
}

// Release returns every model's blocks to the arena. The Broadcast must
// not be used afterwards.
func (b *Broadcast) Release() {
	for _, c := range b.clients {
		for _, cl := range b.classes[c] {
			cl.m.Release()
		}
	}
}
