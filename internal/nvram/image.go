package nvram

// This file implements the durable, mmap-backed NVRAM image: a fixed-size
// file mapped into memory holding a checksummed, versioned record log. It
// is the "make the simulated NVRAM real" upgrade of ROADMAP item 3: state
// that the simulators previously kept in Go maps and *called* non-volatile
// (parked write-back bytes, the LFS write buffer, checkpoint state) lives
// here in an actual persistent file, so a crash harness can kill the
// process and recover from the bytes on disk.
//
// Layout (all integers little-endian):
//
//	[0, 4096)        header: magic "NVIMG001", version, capacity,
//	                 generation, CRC32 of the preceding fields
//	[4096, capacity) append-only record log, 8-byte-aligned records
//
// Record:
//
//	u32 bodyLen   length of the body that follows (16 + keyLen + payloadLen)
//	u64 seq       strictly increasing by one within a generation
//	u8  kind      1=put 2=delete 3=clear-namespace
//	u8  ns        namespace byte (see the NS* constants)
//	u16 keyLen
//	u32 payloadLen
//	... key, payload
//	u32 crc       CRC32 over everything from bodyLen through payload
//	u8  commit    0xC1 once the record is committed
//	    zero padding to the next 8-byte boundary
//
// Commit protocol (the crash-consistency core): records are written with
// commit = 0; a commit barrier msyncs every record appended since the last
// barrier, then sets their commit bytes and msyncs those. A record is
// durable if and only if its commit byte reached the file — a crash
// between the two syncs leaves fully written but uncommitted records, and
// a crash mid-write leaves a torn one; reopen discards either (bad CRC,
// missing commit mark, or out-of-sequence seq) along with everything
// after it, exactly the "write payload → sync → commit marker" discipline
// the write-ahead-log literature prescribes. The barrier runs once per
// batch (Begin/Commit); a Put, Delete or ClearNamespace outside a batch
// is a batch of one. A crash inside a batch therefore reopens to a prefix
// of it, and reopen zeroes the whole discarded tail so that a committed
// record stranded behind the break can never be replayed after a later
// append fills the gap (DESIGN.md §11).
//
// When an append does not fit, the live set is compacted into a fresh
// image file (grown as needed) written beside the original and atomically
// renamed over it — a crash mid-compaction leaves the original untouched
// plus a leftover .compact file that the next open removes.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"sort"
	"time"
)

// Namespace bytes partition an image between the subsystems that share it.
// Each key lives under exactly one namespace.
const (
	// NSStore holds generic keyed records that belong to no subsystem;
	// the image tests and bench/layers.go write it.
	NSStore byte = 1
	// NSParked holds the fault stage's parked write-back deliveries.
	NSParked byte = 2
	// NSLFSBuffer holds the LFS NVRAM write buffer's parked blocks.
	NSLFSBuffer byte = 3
	// NSLFSCheckpoint holds the LFS checkpoint region.
	NSLFSCheckpoint byte = 4
)

const (
	imageMagic   = "NVIMG001"
	imageVersion = 1
	headerSize   = 4096
	// MinImageCapacity is the smallest image the package will create.
	MinImageCapacity = 64 << 10
	// DefaultImageCapacity is used when ImageOptions.Capacity is zero.
	DefaultImageCapacity = 1 << 20

	commitMark = 0xC1

	recPut    = 1
	recDelete = 2
	recClear  = 3

	// recFixed is the fixed portion of a record body (seq + kind + ns +
	// keyLen + payloadLen); recOverhead is everything around the body
	// (length prefix + crc + commit byte).
	recFixed    = 16
	recOverhead = 4 + 4 + 1

	maxKeyLen     = 1 << 16
	maxPayloadLen = 1 << 28
)

// mapping abstracts the platform file mapping (see mmap_linux.go and the
// portable fallback); sync makes a byte range power-failure durable.
type mapping interface {
	bytes() []byte
	sync(off, end int64) error
	close() error
}

// ImageOptions parameterize OpenImage.
type ImageOptions struct {
	// Capacity is the image file size when creating a new image; ignored
	// (read from the header) when the file exists. Zero selects
	// DefaultImageCapacity; values below MinImageCapacity are raised.
	Capacity int64
	// TrackShadow maintains an in-memory copy of the bytes known to be
	// durable (updated only when an msync completes). DurableSnapshot
	// returns it, letting the crash harness simulate a power failure —
	// which, unlike a process kill, loses un-synced page-cache writes —
	// without actually pulling the plug.
	TrackShadow bool
}

// ImageStats counts an image's activity since open.
type ImageStats struct {
	Puts, Deletes, Clears int64
	// Records is how many log records were appended (puts, deletes and
	// clears, plus compaction rewrites).
	Records int64
	// Msyncs and MsyncNanos price the durability barrier on the hot path.
	Msyncs     int64
	MsyncNanos int64
	// AppendedBytes is total log bytes written, padding included.
	AppendedBytes int64
	Compactions   int64
}

// ImageRecovery describes what OpenImage found.
type ImageRecovery struct {
	// Created reports a fresh image (no prior state).
	Created bool
	// Records is how many committed records were replayed.
	Records int
	// LiveKeys is the number of live keys after replay.
	LiveKeys int
	// DiscardedTailBytes is the length of the torn or uncommitted log
	// tail that reopen discarded (zero after a clean shutdown).
	DiscardedTailBytes int64
	// Generation counts compactions over the image's lifetime.
	Generation uint64
}

var errImageClosed = errors.New("nvram: image is closed")

// LockedError reports that another process (or another Image in this
// process) holds the exclusive lock on an image file. Callers detect it
// with errors.As or errors.Is(err, ErrImageLocked).
type LockedError struct{ Path string }

func (e *LockedError) Error() string {
	return fmt.Sprintf("nvram: image %s is locked by another owner", e.Path)
}

func (e *LockedError) Is(target error) bool { return target == ErrImageLocked }

// ErrImageLocked is the sentinel LockedError matches against.
var ErrImageLocked = errors.New("nvram: image is locked by another owner")

// Image is an open durable NVRAM image. Not safe for concurrent use: like
// the hardware it models, one machine owns the component at a time.
type Image struct {
	path       string
	m          mapping
	capacity   int64
	generation uint64
	off        int64 // append offset
	// pending is the offset of the first appended record whose commit
	// mark is still owed (== off when there is none); depth counts the
	// open Begin calls.
	pending   int64
	depth     int
	page      int64 // msync granularity
	seq       uint64
	live      map[string][]byte // ns-prefixed key -> payload
	liveBytes int64             // log bytes needed to rewrite the live set
	lock      *os.File          // exclusive sidecar flock, held until Close
	shadow    []byte
	err       error
	closed    bool
	stats     ImageStats
}

// recordSize is the padded log footprint of a record.
func recordSize(keyLen, payloadLen int) int64 {
	n := int64(recOverhead + recFixed + keyLen + payloadLen)
	return (n + 7) &^ 7
}

func compositeKey(ns byte, key string) string {
	return string([]byte{ns}) + key
}

// OpenImage opens (or creates) the durable image at path, replaying its
// record log into the live state and discarding any torn tail. The
// returned ImageRecovery says what was found; errors leave no image open.
func OpenImage(path string, opts ImageOptions) (*Image, *ImageRecovery, error) {
	// The exclusive lock comes first: everything below (stale-compact
	// cleanup included) assumes this process is the image's only owner.
	lock, err := acquireLock(path)
	if err != nil {
		return nil, nil, err
	}
	im, info, err := openImageLocked(path, opts)
	if err != nil {
		releaseLock(lock)
		return nil, nil, err
	}
	im.lock = lock
	return im, info, nil
}

func openImageLocked(path string, opts ImageOptions) (*Image, *ImageRecovery, error) {
	// A leftover .compact file is an interrupted compaction: the rename
	// never happened, so the original is intact and the temp is garbage.
	if tmp := path + ".compact"; tmp != "" {
		if _, err := os.Stat(tmp); err == nil {
			if err := os.Remove(tmp); err != nil {
				return nil, nil, fmt.Errorf("nvram: removing stale %s: %w", tmp, err)
			}
		}
	}

	capacity := opts.Capacity
	if capacity <= 0 {
		capacity = DefaultImageCapacity
	}
	if capacity < MinImageCapacity {
		capacity = MinImageCapacity
	}
	capacity = (capacity + headerSize - 1) &^ (headerSize - 1)

	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, nil, err
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, nil, err
	}
	created := st.Size() == 0
	if created {
		if err := f.Truncate(capacity); err != nil {
			f.Close()
			return nil, nil, err
		}
	} else {
		if st.Size() < headerSize {
			f.Close()
			return nil, nil, fmt.Errorf("nvram: %s: %d bytes is too small for an image", path, st.Size())
		}
		capacity = st.Size()
	}
	m, err := openMapping(f, capacity)
	if err != nil {
		f.Close()
		return nil, nil, err
	}

	im := &Image{
		path:     path,
		m:        m,
		capacity: capacity,
		off:      headerSize,
		page:     int64(os.Getpagesize()),
		live:     make(map[string][]byte),
	}
	info := &ImageRecovery{}
	b := m.bytes()
	if !created && headerIsZero(b) {
		// The file was truncated to size but the header never landed (a
		// crash inside a previous create): treat it as fresh.
		created = true
	}
	if created {
		im.writeHeader()
		if err := im.msync(0, headerSize); err != nil {
			m.close()
			return nil, nil, err
		}
		info.Created = true
	} else {
		if err := im.readHeader(); err != nil {
			m.close()
			return nil, nil, fmt.Errorf("nvram: %s: %w", path, err)
		}
		if err := im.replayLog(info); err != nil {
			m.close()
			return nil, nil, fmt.Errorf("nvram: %s: %w", path, err)
		}
	}
	im.pending = im.off
	if opts.TrackShadow {
		im.shadow = append([]byte(nil), b...)
	}
	info.LiveKeys = len(im.live)
	info.Generation = im.generation
	return im, info, nil
}

func headerIsZero(b []byte) bool {
	for _, c := range b[:headerSize] {
		if c != 0 {
			return false
		}
	}
	return true
}

func (im *Image) writeHeader() {
	b := im.m.bytes()
	copy(b[0:8], imageMagic)
	binary.LittleEndian.PutUint32(b[8:], imageVersion)
	binary.LittleEndian.PutUint64(b[12:], uint64(im.capacity))
	binary.LittleEndian.PutUint64(b[20:], im.generation)
	binary.LittleEndian.PutUint32(b[28:], crc32.ChecksumIEEE(b[0:28]))
}

func (im *Image) readHeader() error {
	b := im.m.bytes()
	if string(b[0:8]) != imageMagic {
		return errors.New("not an NVRAM image (bad magic)")
	}
	if v := binary.LittleEndian.Uint32(b[8:]); v != imageVersion {
		return fmt.Errorf("image version %d, this build reads %d", v, imageVersion)
	}
	if c := binary.LittleEndian.Uint32(b[28:]); c != crc32.ChecksumIEEE(b[0:28]) {
		return errors.New("image header checksum mismatch")
	}
	if c := int64(binary.LittleEndian.Uint64(b[12:])); c != im.capacity {
		return fmt.Errorf("header capacity %d disagrees with file size %d", c, im.capacity)
	}
	im.generation = binary.LittleEndian.Uint64(b[20:])
	return nil
}

// replayLog scans committed records into the live state. The scan stops at
// the first record that is absent (zero length), torn (bad CRC),
// uncommitted (commit byte never synced), implausible (bounds), or out of
// sequence (stale bytes from an earlier log overwrite); everything from
// there on is the discarded tail.
func (im *Image) replayLog(info *ImageRecovery) error {
	b := im.m.bytes()
	off := int64(headerSize)
	var prevSeq uint64
	for off+recordSize(0, 0) <= im.capacity {
		body := int64(binary.LittleEndian.Uint32(b[off:]))
		if body == 0 {
			break // clean end of log
		}
		if body < recFixed || off+int64(recOverhead)+body > im.capacity {
			break // torn: implausible length
		}
		crcOff := off + 4 + body
		if binary.LittleEndian.Uint32(b[crcOff:]) != crc32.ChecksumIEEE(b[off:crcOff]) {
			break // torn: payload corrupt
		}
		if b[crcOff+4] != commitMark {
			break // written but never committed
		}
		seq := binary.LittleEndian.Uint64(b[off+4:])
		if seq != prevSeq+1 {
			break // stale record from an overwritten log tail
		}
		kind := b[off+12]
		ns := b[off+13]
		keyLen := int64(binary.LittleEndian.Uint16(b[off+14:]))
		payloadLen := int64(binary.LittleEndian.Uint32(b[off+16:]))
		if recFixed+keyLen+payloadLen != body {
			break
		}
		ck := compositeKey(ns, string(b[off+20:off+20+keyLen]))
		switch kind {
		case recPut:
			payload := append([]byte(nil), b[off+20+keyLen:off+20+keyLen+payloadLen]...)
			im.applyPut(ck, payload)
		case recDelete:
			im.applyDelete(ck)
		case recClear:
			im.applyClear(ns)
		default:
			return fmt.Errorf("record %d has unknown kind %d", seq, kind)
		}
		prevSeq = seq
		info.Records++
		off += recordSize(int(keyLen), int(payloadLen))
	}
	im.seq = prevSeq
	im.off = off

	// Anything non-zero past the last committed record is un-replayable
	// tail; zero all of it so the next scan (and the next append) sees a
	// clean end of log even if this process also dies. All of it, not just
	// the length prefix at off: a batch torn in phase 2 can leave record k
	// unmarked and k+1 marked, and a marked k+1 left in place would rejoin
	// the log as soon as a new record of k's size fills the gap. A crash
	// mid-zeroing is harmless — nothing is appended until the zeros are
	// synced, and the next open starts over from the same off.
	var tail int64
	for i := im.capacity - 1; i >= off; i-- {
		if b[i] != 0 {
			tail = i + 1 - off
			break
		}
	}
	info.DiscardedTailBytes = tail
	if tail > 0 {
		clear(b[off : off+tail])
		if err := im.msync(off, off+tail); err != nil {
			return err
		}
	}
	return nil
}

// applyPut and applyDelete take the composite (namespace-prefixed) key.
func (im *Image) applyPut(ck string, payload []byte) {
	if old, ok := im.live[ck]; ok {
		im.liveBytes -= recordSize(len(ck)-1, len(old))
	}
	im.live[ck] = payload
	im.liveBytes += recordSize(len(ck)-1, len(payload))
}

func (im *Image) applyDelete(ck string) {
	if old, ok := im.live[ck]; ok {
		im.liveBytes -= recordSize(len(ck)-1, len(old))
		delete(im.live, ck)
	}
}

func (im *Image) applyClear(ns byte) {
	for ck, v := range im.live {
		if ck[0] == ns {
			im.liveBytes -= recordSize(len(ck)-1, len(v))
			delete(im.live, ck)
		}
	}
}

// fail records the image's first error; once failed, every later mutation
// returns it (a half-written image must not keep absorbing state the
// caller believes is durable).
func (im *Image) fail(err error) error {
	if im.err == nil {
		im.err = err
	}
	return err
}

// Err returns the first write or sync error the image has hit, if any.
func (im *Image) Err() error { return im.err }

// msync makes [off, end) durable. The start is widened down to the page
// boundary msync needs, here rather than in the platform code, so the
// shadow records exactly the range the platform was asked to sync.
func (im *Image) msync(off, end int64) error {
	off &^= im.page - 1
	start := time.Now()
	err := im.m.sync(off, end)
	im.stats.Msyncs++
	im.stats.MsyncNanos += time.Since(start).Nanoseconds()
	if err == nil && im.shadow != nil {
		copy(im.shadow[off:end], im.m.bytes()[off:end])
	}
	return err
}

// Begin opens a batch: records appended until the matching Commit share
// one commit barrier instead of paying one each. Batches nest, and only
// the outermost Commit runs the barrier, so a layer can batch its own
// entry points and still be batched by its caller. Reads (Get, ForEach,
// Len) see a batch's records as soon as they are appended; a crash sees
// only a prefix of them until Commit returns.
func (im *Image) Begin() { im.depth++ }

// Commit closes the batch the matching Begin opened; the outermost one
// returns once every record appended inside it is durable (see Flush).
func (im *Image) Commit() error {
	im.depth--
	if im.depth > 0 {
		return im.err
	}
	return im.Flush()
}

// Flush runs the commit barrier now, batch open or not, over every record
// appended since the last barrier: one msync over their bodies, then
// every commit mark, then one msync over the marks. It is the only place
// a record becomes durable. An owner of a long batch calls it before it
// blocks on anything, so nothing waits for durability on something other
// than the barrier itself.
func (im *Image) Flush() error {
	if im.closed {
		return errImageClosed
	}
	if im.err != nil {
		return im.err
	}
	from, to := im.pending, im.off
	if from == to {
		return nil
	}
	// Phase 1: every record body must be durable before any commit mark.
	if err := im.msync(from, to); err != nil {
		return im.fail(err)
	}
	// Phase 2: the commit marks make them real. Pages reach the file in
	// any order, so a crash here keeps an arbitrary subset of the marks;
	// replay stops at the first one missing, which leaves a prefix.
	first, last := im.setMarks(from, to, commitMark)
	if err := im.msync(first, last+1); err != nil {
		// The caller is about to be told the batch failed: take the marks
		// back so a reopen of whatever the kernel still holds agrees.
		im.setMarks(from, to, 0)
		return im.fail(err)
	}
	im.pending = to
	return nil
}

// setMarks writes mark into the commit byte of every record in [from, to)
// and returns the offsets of the first and last one.
func (im *Image) setMarks(from, to int64, mark byte) (first, last int64) {
	b := im.m.bytes()
	first = -1
	for o := from; o < to; {
		body := int64(binary.LittleEndian.Uint32(b[o:]))
		last = o + 4 + body + 4
		if first < 0 {
			first = last
		}
		b[last] = mark
		o += (recOverhead + body + 7) &^ 7
	}
	return first, last
}

// appendRecord writes one record, commit mark clear, under the composite
// key ck (namespace byte, then key). Outside a batch it commits at once.
func (im *Image) appendRecord(kind byte, ck string, payload []byte) error {
	if im.closed {
		return errImageClosed
	}
	if im.err != nil {
		return im.err
	}
	key := ck[1:]
	if len(key) >= maxKeyLen {
		return im.fail(fmt.Errorf("nvram: key length %d exceeds %d", len(key), maxKeyLen-1))
	}
	if len(payload) > maxPayloadLen {
		return im.fail(fmt.Errorf("nvram: payload length %d exceeds %d", len(payload), maxPayloadLen))
	}
	need := recordSize(len(key), len(payload))
	if im.off+need > im.capacity {
		// Compaction replaces the file and the mapping. Commit what the
		// batch has appended so far first: the rewrite then carries those
		// records over as committed, and no mark is owed to the old file.
		if err := im.Flush(); err != nil {
			return err
		}
		if err := im.compact(need); err != nil {
			return im.fail(err)
		}
	}
	b := im.m.bytes()
	o := im.off
	body := int64(recFixed + len(key) + len(payload))
	binary.LittleEndian.PutUint32(b[o:], uint32(body))
	binary.LittleEndian.PutUint64(b[o+4:], im.seq+1)
	b[o+12] = kind
	b[o+13] = ck[0]
	binary.LittleEndian.PutUint16(b[o+14:], uint16(len(key)))
	binary.LittleEndian.PutUint32(b[o+16:], uint32(len(payload)))
	copy(b[o+20:], key)
	copy(b[o+20+int64(len(key)):], payload)
	crcOff := o + 4 + body
	binary.LittleEndian.PutUint32(b[crcOff:], crc32.ChecksumIEEE(b[o:crcOff]))
	clear(b[crcOff+4 : o+need]) // commit byte and padding
	im.seq++
	im.off += need
	im.stats.Records++
	im.stats.AppendedBytes += need
	if im.depth == 0 {
		return im.Flush()
	}
	return nil
}

// Put stores key -> payload in the namespace; payload is copied. Outside a
// batch it returns only after the record's commit mark is synced; inside
// one, the record is durable once the batch commits.
func (im *Image) Put(ns byte, key string, payload []byte) error {
	ck := compositeKey(ns, key)
	if err := im.appendRecord(recPut, ck, payload); err != nil {
		return err
	}
	im.applyPut(ck, append([]byte(nil), payload...))
	im.stats.Puts++
	return nil
}

// Delete removes a key, durably on the same terms as Put; deleting an
// absent key is a no-op (no record is spent on it).
func (im *Image) Delete(ns byte, key string) error {
	if im.closed {
		return errImageClosed
	}
	ck := compositeKey(ns, key)
	if _, ok := im.live[ck]; !ok {
		return im.err
	}
	if err := im.appendRecord(recDelete, ck, nil); err != nil {
		return err
	}
	im.applyDelete(ck)
	im.stats.Deletes++
	return nil
}

// ClearNamespace removes every key in the namespace with a single record,
// for an owner that drops its whole namespace at once.
func (im *Image) ClearNamespace(ns byte) error {
	if im.closed {
		return errImageClosed
	}
	if im.Len(ns) == 0 {
		return im.err
	}
	if err := im.appendRecord(recClear, compositeKey(ns, ""), nil); err != nil {
		return err
	}
	im.applyClear(ns)
	im.stats.Clears++
	return nil
}

// Get returns a copy of the payload stored under key, and whether it
// exists. (A copy, deliberately: handing out the live slice would let
// callers mutate "durable" contents without a Put — the aliasing bug the
// in-memory Store used to have.)
func (im *Image) Get(ns byte, key string) ([]byte, bool) {
	v, ok := im.live[compositeKey(ns, key)]
	if !ok {
		return nil, false
	}
	return append([]byte(nil), v...), true
}

// Len returns the number of live keys in the namespace.
func (im *Image) Len(ns byte) int {
	n := 0
	for ck := range im.live {
		if ck[0] == ns {
			n++
		}
	}
	return n
}

// LiveKeys returns the total live key count across namespaces.
func (im *Image) LiveKeys() int { return len(im.live) }

// ForEach visits the namespace's live entries in ascending key order with
// copies of the payloads.
func (im *Image) ForEach(ns byte, fn func(key string, payload []byte)) {
	keys := make([]string, 0, len(im.live))
	for ck := range im.live {
		if ck[0] == ns {
			keys = append(keys, ck)
		}
	}
	sort.Strings(keys)
	for _, ck := range keys {
		fn(ck[1:], append([]byte(nil), im.live[ck]...))
	}
}

// compact rewrites the live set into a fresh image file — grown so that
// extraNeed fits with at least half the log free — and atomically renames
// it over the original. A crash anywhere before the rename leaves the old
// image intact.
func (im *Image) compact(extraNeed int64) error {
	need := headerSize + im.liveBytes + extraNeed
	newCap := im.capacity
	for newCap < 2*need {
		newCap *= 2
	}

	tmpPath := im.path + ".compact"
	f, err := os.Create(tmpPath)
	if err != nil {
		return err
	}
	defer os.Remove(tmpPath) // no-op after a successful rename
	if err := f.Truncate(newCap); err != nil {
		f.Close()
		return err
	}

	// Build header + records in a buffer and stream it out. Keys are
	// written in sorted order so the rewritten log is deterministic.
	keys := make([]string, 0, len(im.live))
	for ck := range im.live {
		keys = append(keys, ck)
	}
	sort.Strings(keys)

	w := newImageWriter(newCap, im.generation+1)
	for _, ck := range keys {
		w.record(recPut, ck[0], ck[1:], im.live[ck])
	}
	if _, err := f.WriteAt(w.buf, 0); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmpPath, im.path); err != nil {
		return err
	}
	if err := syncDir(im.path); err != nil {
		return err
	}

	// Swap the mapping to the new file.
	if err := im.m.close(); err != nil {
		return err
	}
	nf, err := os.OpenFile(im.path, os.O_RDWR, 0o644)
	if err != nil {
		return err
	}
	m, err := openMapping(nf, newCap)
	if err != nil {
		nf.Close()
		return err
	}
	im.m = m
	im.capacity = newCap
	im.generation++
	im.off = int64(len(w.buf))
	im.pending = im.off
	im.seq = uint64(len(keys))
	im.stats.Compactions++
	if im.shadow != nil {
		im.shadow = append([]byte(nil), m.bytes()...)
	}
	return nil
}

// imageWriter serializes a fresh, fully committed image (compaction).
type imageWriter struct {
	buf []byte
	n   uint64 // records written; seq numbers are 1-based
}

func newImageWriter(capacity int64, generation uint64) *imageWriter {
	buf := make([]byte, headerSize)
	copy(buf[0:8], imageMagic)
	binary.LittleEndian.PutUint32(buf[8:], imageVersion)
	binary.LittleEndian.PutUint64(buf[12:], uint64(capacity))
	binary.LittleEndian.PutUint64(buf[20:], generation)
	binary.LittleEndian.PutUint32(buf[28:], crc32.ChecksumIEEE(buf[0:28]))
	return &imageWriter{buf: buf}
}

func (w *imageWriter) record(kind, ns byte, key string, payload []byte) {
	body := recFixed + len(key) + len(payload)
	rec := make([]byte, recordSize(len(key), len(payload)))
	binary.LittleEndian.PutUint32(rec, uint32(body))
	binary.LittleEndian.PutUint64(rec[4:], w.n+1)
	rec[12] = kind
	rec[13] = ns
	binary.LittleEndian.PutUint16(rec[14:], uint16(len(key)))
	binary.LittleEndian.PutUint32(rec[16:], uint32(len(payload)))
	copy(rec[20:], key)
	copy(rec[20+len(key):], payload)
	crcOff := 4 + body
	binary.LittleEndian.PutUint32(rec[crcOff:], crc32.ChecksumIEEE(rec[:crcOff]))
	rec[crcOff+4] = commitMark
	w.buf = append(w.buf, rec...)
	w.n++
}

// Sync forces the whole image durable (a graceful shutdown barrier; every
// committed batch already synced itself).
func (im *Image) Sync() error {
	if im.closed {
		return errImageClosed
	}
	if err := im.msync(0, im.capacity); err != nil {
		return im.fail(err)
	}
	return nil
}

// Close commits anything a batch left open, syncs and unmaps the image.
// The Image is unusable afterwards.
func (im *Image) Close() error {
	if im.closed {
		return nil
	}
	err := im.Flush()
	im.closed = true
	if cerr := im.m.close(); err == nil {
		err = cerr
	}
	if lerr := releaseLock(im.lock); err == nil {
		err = lerr
	}
	im.lock = nil
	return err
}

// Stats returns a snapshot of the activity counters.
func (im *Image) Stats() ImageStats { return im.stats }

// Path returns the image file's path.
func (im *Image) Path() string { return im.path }

// Capacity returns the image file size in bytes.
func (im *Image) Capacity() int64 { return im.capacity }

// AppendOffset returns the current end of the record log — where the next
// record will land. The crash harness uses it to plant torn-write garbage.
func (im *Image) AppendOffset() int64 { return im.off }

// Generation returns the compaction generation.
func (im *Image) Generation() uint64 { return im.generation }

// DurableSnapshot returns a copy of the bytes guaranteed durable right
// now — the file as a power failure at this instant would leave it. Only
// available when the image was opened with TrackShadow.
func (im *Image) DurableSnapshot() ([]byte, error) {
	if im.shadow == nil {
		return nil, errors.New("nvram: image opened without TrackShadow")
	}
	return append([]byte(nil), im.shadow...), nil
}

// syncDir fsyncs the directory containing path, making a rename durable.
func syncDir(path string) error {
	dir := "."
	if i := lastSlash(path); i >= 0 {
		dir = path[:i+1]
	}
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	closeErr := d.Close()
	if err != nil {
		return err
	}
	return closeErr
}

func lastSlash(s string) int {
	for i := len(s) - 1; i >= 0; i-- {
		if s[i] == '/' || s[i] == os.PathSeparator {
			return i
		}
	}
	return -1
}
