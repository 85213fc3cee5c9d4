// Package nvram models the non-volatile memory hardware the paper builds
// on: an in-memory battery-backed store whose contents survive crashes
// (the recovery discussion of Section 4), a durable file-backed image
// that the fault stage's parked deliveries and the LFS write buffer
// (Section 3) mirror into, and the buffered-and-sorted write analysis the
// paper cites from [20], in which 1000 buffered random I/Os (four
// megabytes of NVRAM) raise disk bandwidth utilization from a few percent
// to tens of percent.
package nvram

import (
	"errors"
	"math"

	"nvramfs/internal/disk"
)

// Store is a client memory holding a volatile and a non-volatile region,
// for crash/recovery modeling: Crash clears the volatile region only. The
// paper's Section 4 points out that an NVRAM component must be removable so
// a crashed client's dirty data can be recovered from another machine;
// Detach models that.
type Store struct {
	volatile    map[string][]byte
	nonVolatile map[string][]byte
	// Batteries is the number of lithium batteries backing the NVRAM
	// (Table 1 components carry one to three; most have at least one
	// spare).
	Batteries int
	detached  bool
}

// NewStore returns a store backed by the given number of batteries.
func NewStore(batteries int) *Store {
	return &Store{
		volatile:    make(map[string][]byte),
		nonVolatile: make(map[string][]byte),
		Batteries:   batteries,
	}
}

// errDetached is returned when using a store after Detach.
var errDetached = errors.New("nvram: store is detached")

// PutVolatile stores data in the volatile region.
func (s *Store) PutVolatile(key string, data []byte) error {
	if s.detached {
		return errDetached
	}
	s.volatile[key] = append([]byte(nil), data...)
	return nil
}

// PutNonVolatile stores data in the battery-backed region.
func (s *Store) PutNonVolatile(key string, data []byte) error {
	if s.detached {
		return errDetached
	}
	if s.Batteries <= 0 {
		return errors.New("nvram: no working battery; contents would not survive")
	}
	s.nonVolatile[key] = append([]byte(nil), data...)
	return nil
}

// Get reads a key from either region; non-volatile wins on conflicts. A
// detached store refuses reads — the board is physically gone, matching
// the errDetached contract the Put methods enforce — and the returned
// slice is a copy, so callers cannot mutate "non-volatile" contents in
// place without going through a Put.
func (s *Store) Get(key string) ([]byte, bool) {
	if s.detached {
		return nil, false
	}
	if d, ok := s.nonVolatile[key]; ok {
		return append([]byte(nil), d...), true
	}
	if d, ok := s.volatile[key]; ok {
		return append([]byte(nil), d...), true
	}
	return nil, false
}

// Crash models a machine failure: the volatile region is lost; the
// battery-backed region survives — but only if a battery is actually
// holding it up. A store whose last battery already died loses the
// non-volatile region too (consistent with PutNonVolatile's refusal to
// accept data such a store could not keep). Crashing a detached store is
// a no-op: there is no machine around the board to fail.
func (s *Store) Crash() {
	if s.detached {
		return
	}
	s.volatile = make(map[string][]byte)
	if s.Batteries <= 0 {
		s.nonVolatile = make(map[string][]byte)
	}
}

// FailBattery removes one battery; when the last fails, the non-volatile
// region is lost too (Table 1's components carry spares for this reason).
func (s *Store) FailBattery() {
	if s.Batteries > 0 {
		s.Batteries--
	}
	if s.Batteries == 0 {
		s.nonVolatile = make(map[string][]byte)
	}
}

// Detach removes the NVRAM component from a (crashed) client, returning a
// store containing only the surviving non-volatile contents, which can be
// attached to another client to retrieve its data. The original store
// becomes unusable.
func (s *Store) Detach() *Store {
	moved := &Store{
		volatile:    make(map[string][]byte),
		nonVolatile: s.nonVolatile,
		Batteries:   s.Batteries,
	}
	s.nonVolatile = nil
	s.detached = true
	return moved
}

// SortedBufferUtilization estimates the disk bandwidth utilization achieved
// when nWrites random writes of writeSize bytes each are buffered in NVRAM,
// sorted, and issued in disk order — the analysis the paper cites from
// [20]: writing dirty data randomly uses only ~7% of disk bandwidth, while
// buffering and sorting 1000 I/Os (four megabytes of NVRAM) reaches ~40%.
//
// Model: issuing writes in sorted order divides the positioning cost by
// ln(n) — scheduling gains grow logarithmically with queue depth, a
// standard result for shortest-seek-first service of uniformly distributed
// requests. With n = 1 this degenerates to the random-write utilization.
func SortedBufferUtilization(p disk.Params, nWrites int, writeSize int64) float64 {
	if nWrites < 1 {
		nWrites = 1
	}
	transfer := p.TransferTime(writeSize)
	position := p.PositioningTime()
	gain := math.Log(float64(nWrites))
	if gain < 1 {
		gain = 1
	}
	effPosition := float64(position) / gain
	total := effPosition + float64(transfer)
	if total <= 0 {
		return 0
	}
	return float64(transfer) / total
}

// BufferForWrites returns the NVRAM bytes needed to buffer n writes of the
// given size (the "1000 I/O's, requiring four megabytes of NVRAM" figure).
func BufferForWrites(n int, writeSize int64) int64 {
	return int64(n) * writeSize
}
