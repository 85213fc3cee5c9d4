package cache

import (
	"fmt"
	"slices"
)

// Pool is a fixed-capacity collection of cache blocks with a replacement
// policy. It indexes blocks by id and chains each file's blocks in index
// order (threaded through the blocks' filePrev/fileNext links, heads held
// in the file index) so whole-file operations (flush, invalidate) are
// cheap and need no sorting. Both indexes are the open-addressing tables
// of index.go; keeping each chain sorted incrementally (inserts walk from
// the tail, where append-order workloads land immediately) replaces the
// old map-then-sort path.
type Pool struct {
	capacity int // in blocks; 0 means the pool holds nothing
	// shared marks a pool whose model also stands for cells of larger
	// capacity (sim.Broadcast's capacity classes): it must never fill.
	shared bool
	policy Policy
	blocks blockIndex
	files  fileIndex

	fileScratch []uint64 // reused by ForEachBlock for file ordering
}

// NewPool returns a pool holding at most capBlocks blocks. The indexes
// start empty and grow on demand: a simulation builds one pool per client,
// and most clients cache only a handful of blocks, so pre-sizing for the
// capacity would allocate far more table than is ever probed.
func NewPool(capBlocks int, p Policy) *Pool {
	return &Pool{capacity: capBlocks, policy: p}
}

// Capacity returns the pool's capacity in blocks.
func (p *Pool) Capacity() int { return p.capacity }

// Shared reports whether the pool stands for several capacities (see
// SetCapacity).
func (p *Pool) Shared() bool { return p.shared }

// SetCapacity resizes the pool to capBlocks, which must hold its current
// blocks. shared marks a pool whose model stands for several cells of
// which this is the smallest capacity: the cells agree only while the
// pool is not full, so the caller must split them off before it can
// fill, and Full panics if it does.
func (p *Pool) SetCapacity(capBlocks int, shared bool) {
	if p.blocks.n > capBlocks {
		panic(fmt.Sprintf("cache: SetCapacity(%d) below the %d cached blocks", capBlocks, p.blocks.n))
	}
	p.capacity, p.shared = capBlocks, shared
}

// Len returns the number of cached blocks.
func (p *Pool) Len() int { return p.blocks.n }

// Full reports whether inserting another block requires an eviction.
func (p *Pool) Full() bool {
	if p.blocks.n < p.capacity {
		return false
	}
	if p.shared {
		panic("cache: a pool shared by several capacities filled")
	}
	return true
}

// Get returns the cached block, or nil.
func (p *Pool) Get(id BlockID) *Block { return p.blocks.get(id) }

// Put inserts a block, which must not already be present. The caller must
// have made room; Put panics if the pool is over capacity, since that is
// always a simulator bug. (Duplicate insertion is not probed for — the
// randomized reference tests cover the callers — because the extra miss
// probe per insert was measurable in the sweep hot path.)
func (p *Pool) Put(b *Block, now int64) {
	if p.blocks.n >= p.capacity {
		panic(fmt.Sprintf("cache: Put into full pool (cap %d)", p.capacity))
	}
	p.blocks.put(b)
	p.chainInsert(b)
	p.policy.Insert(b, now)
}

// chainInsert links b into its file's chain at the slot keeping the chain
// sorted by block index. Sequential writes append past the tail, so the
// backward walk from the tail is O(1) for the common case.
func (p *Pool) chainInsert(b *Block) {
	c := p.files.ensure(b.ID.File)
	after := c.tail
	for after != nil && after.ID.Index > b.ID.Index {
		after = after.filePrev
	}
	if after == nil {
		b.fileNext = c.head
		if c.head != nil {
			c.head.filePrev = b
		}
		c.head = b
		if c.tail == nil {
			c.tail = b
		}
	} else {
		b.filePrev = after
		b.fileNext = after.fileNext
		if after.fileNext != nil {
			after.fileNext.filePrev = b
		} else {
			c.tail = b
		}
		after.fileNext = b
	}
}

// chainRemove unlinks b from its file's chain.
func (p *Pool) chainRemove(b *Block) {
	i := p.files.find(b.ID.File)
	c := &p.files.slots[i]
	if b.filePrev != nil {
		b.filePrev.fileNext = b.fileNext
	} else {
		c.head = b.fileNext
	}
	if b.fileNext != nil {
		b.fileNext.filePrev = b.filePrev
	} else {
		c.tail = b.filePrev
	}
	b.filePrev, b.fileNext = nil, nil
	if c.head == nil {
		p.files.del(i)
	}
}

// Remove deletes the block from the pool and returns it (nil if absent).
func (p *Pool) Remove(id BlockID) *Block {
	b := p.blocks.del(id)
	if b == nil {
		return nil
	}
	p.chainRemove(b)
	p.policy.Remove(b)
	return b
}

// Touch notes an access for the replacement policy.
func (p *Pool) Touch(b *Block, now int64) { p.policy.Touch(b, now) }

// Modify notes a write for the replacement policy.
func (p *Pool) Modify(b *Block, now int64) { p.policy.Modify(b, now) }

// Victim returns the policy's replacement candidate without removing it.
func (p *Pool) Victim() *Block {
	b, ok := p.policy.Victim()
	if !ok {
		return nil
	}
	return b
}

// EvictVictim removes and returns the policy's replacement candidate, or
// nil if the pool is empty.
func (p *Pool) EvictVictim() *Block {
	b, ok := p.policy.Victim()
	if !ok {
		return nil
	}
	return p.Remove(b.ID)
}

// orderedPolicy is implemented by policies that can enumerate victims in
// replacement order (currently LRU).
type orderedPolicy interface {
	victims(yield func(*Block) bool)
}

// VictimPreferring returns the first block in replacement order satisfying
// pred, falling back to the plain victim when none does (or when the
// policy cannot enumerate). Sprite's real caches use this to replace the
// first clean block on the LRU list before any dirty block.
func (p *Pool) VictimPreferring(pred func(*Block) bool) *Block {
	if op, ok := p.policy.(orderedPolicy); ok {
		var found *Block
		op.victims(func(b *Block) bool {
			if pred(b) {
				found = b
				return false
			}
			return true
		})
		if found != nil {
			return found
		}
	}
	return p.Victim()
}

// ForEachFileBlock calls fn for each cached block of one file in index
// order, without allocating. fn may remove the block it was handed (and no
// other) from the pool.
func (p *Pool) ForEachFileBlock(file uint64, fn func(*Block)) {
	i := p.files.find(file)
	if i < 0 {
		return
	}
	b := p.files.slots[i].head
	for b != nil {
		next := b.fileNext
		fn(b)
		b = next
	}
}

// ForEachBlock calls fn for each cached block in (file, index) order. The
// order is part of the contract: callers flush these blocks through hooks
// into shared downstream models, so it must not vary run to run. Only the
// file keys are sorted (into a reused scratch slice); within a file the
// chain is already ordered. fn may remove the block it was handed.
func (p *Pool) ForEachBlock(fn func(*Block)) {
	fs := p.fileScratch[:0]
	for i := range p.files.slots {
		if p.files.slots[i].head != nil {
			fs = append(fs, p.files.slots[i].file)
		}
	}
	slices.Sort(fs)
	p.fileScratch = fs
	for _, f := range fs {
		p.ForEachFileBlock(f, fn)
	}
}

// Blocks returns all cached blocks in (file, index) order (see ForEachBlock
// for why the order is fixed). Prefer ForEachBlock in hot paths.
func (p *Pool) Blocks() []*Block {
	out := make([]*Block, 0, p.blocks.n)
	p.ForEachBlock(func(b *Block) { out = append(out, b) })
	return out
}

// Drain removes every block from the pool and hands it to the arena. It is
// called once at the end of a run, so enumeration order does not matter
// (nothing observes the arena's free-list order).
func (p *Pool) Drain(arena *BlockArena) {
	for _, b := range p.blocks.slots {
		if b == nil {
			continue
		}
		p.chainRemove(b)
		p.policy.Remove(b)
		arena.Put(b)
	}
	clear(p.blocks.slots)
	p.blocks.n = 0
	p.blocks.last = nil
}

// fork returns a deep copy of the pool holding capBlocks blocks: each
// block is cloned into the same index slot, and the copies keep the
// original's per-file chains and replacement order.
func (p *Pool) fork(capBlocks int) *Pool {
	q := &Pool{}
	q.blocks.slots = make([]*Block, len(p.blocks.slots))
	q.blocks.n = p.blocks.n
	for i, b := range p.blocks.slots {
		if b != nil {
			q.blocks.slots[i] = b.clone()
		}
	}
	q.files.slots = make([]fileSlot, len(p.files.slots))
	q.files.n = p.files.n
	for i, s := range p.files.slots {
		if s.head == nil {
			continue
		}
		c := &q.files.slots[i]
		c.file = s.file
		for b := s.head; b != nil; b = b.fileNext {
			nb := q.blocks.get(b.ID)
			nb.filePrev = c.tail
			if c.tail != nil {
				c.tail.fileNext = nb
			} else {
				c.head = nb
			}
			c.tail = nb
		}
	}
	q.policy = p.policy.fork(func(b *Block) *Block { return q.blocks.get(b.ID) })
	q.SetCapacity(capBlocks, false)
	return q
}
