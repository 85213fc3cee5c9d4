package cache

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"nvramfs/internal/heapq"
)

// PolicyKind selects a block replacement policy for the NVRAM.
type PolicyKind uint8

// Replacement policies studied in Section 2.5 of the paper.
const (
	// LRU replaces the least-recently used (accessed or modified) block.
	LRU PolicyKind = iota
	// Random replaces a uniformly random block, gauging how sensitive the
	// traffic reduction is to the particular policy.
	Random
	// Omniscient replaces the block whose next modify time is furthest in
	// the future (requires a Schedule derived from a prior trace pass).
	Omniscient
)

func (k PolicyKind) String() string {
	switch k {
	case LRU:
		return "lru"
	case Random:
		return "random"
	case Omniscient:
		return "omniscient"
	}
	return fmt.Sprintf("policy(%d)", uint8(k))
}

// Schedule provides future-knowledge for the omniscient policy.
type Schedule interface {
	// NextModify returns the earliest time strictly after now at which the
	// block is written again, or math.MaxInt64 if it never is.
	NextModify(id BlockID, now int64) int64
}

// Policy selects replacement victims among a pool's blocks. Implementations
// are informed of every insertion, access, modification, and removal, and
// track membership intrusively through the Block's link/index fields, so no
// policy operation allocates.
type Policy interface {
	Insert(b *Block, now int64)
	Touch(b *Block, now int64)
	Modify(b *Block, now int64)
	Remove(b *Block)
	// Victim returns the block the policy would replace next; ok is false
	// when the policy tracks no blocks.
	Victim() (b *Block, ok bool)
	Len() int
	// fork returns a copy tracking the blocks copyOf maps this policy's
	// blocks to, in the same replacement order.
	fork(copyOf func(*Block) *Block) Policy
}

// newPolicy constructs the configured policy. A random policy draws from a
// drawSource seeded with cfg.Seed, which Fork can copy; an omniscient
// policy requires cfg.Schedule.
func newPolicy(cfg Config) (Policy, error) {
	switch cfg.Policy {
	case LRU:
		return newLRUPolicy(), nil
	case Random:
		return newRandomPolicy(cfg.Seed), nil
	case Omniscient:
		if cfg.Schedule == nil {
			return nil, fmt.Errorf("cache: omniscient policy requires a schedule")
		}
		op := &omniscientPolicy{sched: cfg.Schedule}
		op.times, _ = cfg.Schedule.(timesSchedule)
		return op, nil
	default:
		return nil, fmt.Errorf("cache: unknown policy kind %d", cfg.Policy)
	}
}

// --- LRU ---
//
// An intrusive circular doubly-linked list threaded through the blocks'
// lruPrev/lruNext fields: root.lruNext is the most recently used block,
// root.lruPrev the replacement victim. Membership is encoded by the links
// themselves (non-nil while tracked), so there is no side map and no
// per-block list node.

type lruPolicy struct {
	root Block // sentinel, never a member
	n    int
}

func newLRUPolicy() *lruPolicy {
	p := &lruPolicy{}
	p.root.lruNext = &p.root
	p.root.lruPrev = &p.root
	return p
}

// pushFront links an untracked block at the MRU end.
func (p *lruPolicy) pushFront(b *Block) {
	b.lruPrev = &p.root
	b.lruNext = p.root.lruNext
	b.lruPrev.lruNext = b
	b.lruNext.lruPrev = b
	p.n++
}

func (p *lruPolicy) unlink(b *Block) {
	b.lruPrev.lruNext = b.lruNext
	b.lruNext.lruPrev = b.lruPrev
	b.lruPrev, b.lruNext = nil, nil
	p.n--
}

func (p *lruPolicy) Insert(b *Block, now int64) {
	if b.lruNext != nil {
		p.Touch(b, now)
		return
	}
	p.pushFront(b)
}

func (p *lruPolicy) Touch(b *Block, now int64) {
	if b.lruNext == nil || p.root.lruNext == b {
		return
	}
	p.unlink(b)
	p.pushFront(b)
}

func (p *lruPolicy) Modify(b *Block, now int64) { p.Touch(b, now) }

func (p *lruPolicy) Remove(b *Block) {
	if b.lruNext != nil {
		p.unlink(b)
	}
}

func (p *lruPolicy) Victim() (*Block, bool) {
	if p.n == 0 {
		return nil, false
	}
	return p.root.lruPrev, true
}

// victims yields the tracked blocks from least- to most-recently used,
// stopping when yield returns false. It powers dirty-preference victim
// selection (Sprite replaces the first *clean* block on the LRU list).
func (p *lruPolicy) victims(yield func(*Block) bool) {
	for b := p.root.lruPrev; b != &p.root; b = b.lruPrev {
		if !yield(b) {
			return
		}
	}
}

func (p *lruPolicy) Len() int { return p.n }

func (p *lruPolicy) fork(copyOf func(*Block) *Block) Policy {
	q := newLRUPolicy()
	for b := p.root.lruPrev; b != &p.root; b = b.lruPrev {
		q.pushFront(copyOf(b))
	}
	return q
}

// --- Random ---
//
// A flat member slice with swap-removal; each block stores its own slot in
// polIdx, replacing the old id->index map.

type randomPolicy struct {
	rng  *rand.Rand
	src  *drawSource // rng's source
	blks []*Block
}

func newRandomPolicy(seed int64) *randomPolicy {
	src := newDrawSource(seed)
	return &randomPolicy{rng: rand.New(src), src: src}
}

// drawSource is a seeded math/rand source that counts its draws. A
// math/rand source cannot be copied, but one re-seeded and advanced by the
// same number of draws is in the same state; rand.Rand's Intn reads the
// source only through Int63, so the count is all a copy needs.
type drawSource struct {
	seed  int64
	draws int64
	src   rand.Source
}

func newDrawSource(seed int64) *drawSource {
	return &drawSource{seed: seed, src: rand.NewSource(seed)}
}

func (s *drawSource) Int63() int64 {
	s.draws++
	return s.src.Int63()
}

func (s *drawSource) Seed(seed int64) {
	s.src.Seed(seed)
	s.seed, s.draws = seed, 0
}

// fork returns a source in s's state.
func (s *drawSource) fork() *drawSource {
	c := newDrawSource(s.seed)
	for range s.draws {
		c.Int63()
	}
	return c
}

func (p *randomPolicy) Insert(b *Block, now int64) {
	if b.polIdx >= 0 {
		return
	}
	b.polIdx = len(p.blks)
	p.blks = append(p.blks, b)
}

func (p *randomPolicy) Touch(*Block, int64)  {}
func (p *randomPolicy) Modify(*Block, int64) {}

func (p *randomPolicy) Remove(b *Block) {
	i := b.polIdx
	if i < 0 {
		return
	}
	last := len(p.blks) - 1
	p.blks[i] = p.blks[last]
	p.blks[i].polIdx = i
	p.blks = p.blks[:last]
	b.polIdx = -1
}

func (p *randomPolicy) Victim() (*Block, bool) {
	if len(p.blks) == 0 {
		return nil, false
	}
	return p.blks[p.rng.Intn(len(p.blks))], true
}

func (p *randomPolicy) Len() int { return len(p.blks) }

func (p *randomPolicy) fork(copyOf func(*Block) *Block) Policy {
	src := p.src.fork()
	q := &randomPolicy{rng: rand.New(src), src: src, blks: make([]*Block, len(p.blks))}
	for i, b := range p.blks {
		q.blks[i] = copyOf(b)
	}
	return q
}

// --- Omniscient ---
//
// A max-heap keyed by each block's next modify time, stored in the block's
// nextMod field with its heap slot in polIdx. A block's key is (re)computed
// when it is inserted or modified: between modifications the "next modify
// after the last write" remains the correct next modify time, so no decay
// pass is needed.

// timesSchedule is the fast path a Schedule may offer: direct access to a
// block's (sorted, read-only) modification times, letting the policy keep
// a forward cursor in the block instead of binary-searching the schedule
// on every insert and write (see Block.schedTimes).
type timesSchedule interface {
	ModifyTimes(id BlockID) []int64
}

type omniscientPolicy struct {
	sched Schedule
	times timesSchedule // non-nil when sched exposes its time slices
	heap  heapq.Heap[*Block, omniscientOrder]
}

// omniscientOrder puts the furthest next modify on top and keeps each
// block's heap slot in polIdx.
type omniscientOrder struct{}

func (omniscientOrder) Less(a, b *Block) bool { return a.nextMod > b.nextMod }
func (omniscientOrder) Moved(b *Block, i int) { b.polIdx = i }

// nextModify is sched.NextModify through the block's cursor when the
// schedule supports it: simulation time is non-decreasing, so the cursor
// only moves forward, and equals sort.Search's first-strictly-greater
// answer at every step.
func (p *omniscientPolicy) nextModify(b *Block, now int64) int64 {
	if p.times == nil {
		return p.sched.NextModify(b.ID, now)
	}
	if !b.schedOK {
		ts := p.times.ModifyTimes(b.ID)
		b.schedTimes = ts
		b.schedPos = sort.Search(len(ts), func(i int) bool { return ts[i] > now })
		b.schedOK = true
	}
	ts := b.schedTimes
	i := b.schedPos
	for i < len(ts) && ts[i] <= now {
		i++
	}
	b.schedPos = i
	if i == len(ts) {
		return NeverModified
	}
	return ts[i]
}

func (p *omniscientPolicy) Len() int { return len(p.heap) }

func (p *omniscientPolicy) Insert(b *Block, now int64) {
	b.nextMod = p.nextModify(b, now)
	if b.polIdx >= 0 {
		p.heap.Fix(b.polIdx)
		return
	}
	p.heap.Push(b)
}

func (p *omniscientPolicy) Touch(*Block, int64) {}

func (p *omniscientPolicy) Modify(b *Block, now int64) {
	if b.polIdx >= 0 {
		b.nextMod = p.nextModify(b, now)
		p.heap.Fix(b.polIdx)
	}
}

func (p *omniscientPolicy) Remove(b *Block) {
	if b.polIdx >= 0 {
		p.heap.Remove(b.polIdx)
		b.polIdx = -1
	}
}

func (p *omniscientPolicy) Victim() (*Block, bool) {
	if len(p.heap) == 0 {
		return nil, false
	}
	return p.heap[0], true
}

func (p *omniscientPolicy) fork(copyOf func(*Block) *Block) Policy {
	q := &omniscientPolicy{sched: p.sched, times: p.times, heap: make([]*Block, len(p.heap))}
	for i, b := range p.heap {
		q.heap[i] = copyOf(b)
	}
	return q
}

// NeverModified is the schedule key for blocks with no future writes.
const NeverModified = math.MaxInt64
