package lfs

// Durable NVRAM backing for the write buffer and checkpoint region: when
// an image is attached, every block parked in the NVRAM buffer is
// committed to the on-disk image (namespace NSLFSBuffer) and removed when
// it drains into a segment, and every Checkpoint also writes its snapshot
// into the image (namespace NSLFSCheckpoint). A crash harness can then
// SIGKILL the process and run recovery from the file:
// SimulateCrashAndRecoverFromImage is SimulateCrashAndRecover with the
// NVRAM-resident inputs (buffered set, checkpoint) read from a reopened
// image instead of process memory.

import (
	"encoding/binary"
	"fmt"
	"sort"

	"nvramfs/internal/nvram"
)

// BlockRef identifies one file block, exported for harness comparisons.
type BlockRef struct {
	File  uint64
	Index int64
}

// checkpointKey is the single key the checkpoint region lives under: like
// Sprite's alternating checkpoint regions, a new checkpoint atomically
// replaces the old one (the image's record commit is the atomicity).
const checkpointKey = "ckpt"

// AttachImage durably mirrors the FS's NVRAM state (write buffer and
// checkpoint region) into the image. Attach to a freshly created FS,
// before the first operation. Image errors latch in the image (img.Err()).
func (fs *FS) AttachImage(img *nvram.Image) {
	fs.img = img
}

// bufKey encodes a block ID as a 16-byte big-endian key, so the image's
// sorted iteration yields (file, index) order.
func bufKey(id blockID) string {
	var b [16]byte
	binary.BigEndian.PutUint64(b[0:], id.File)
	binary.BigEndian.PutUint64(b[8:], uint64(id.Index))
	return string(b[:])
}

func decodeBufKey(key string) (blockID, error) {
	if len(key) != 16 {
		return blockID{}, fmt.Errorf("lfs: buffered-block key is %d bytes, want 16", len(key))
	}
	return blockID{
		File:  binary.BigEndian.Uint64([]byte(key[0:8])),
		Index: int64(binary.BigEndian.Uint64([]byte(key[8:16]))),
	}, nil
}

// bufferAdd parks a block in the NVRAM buffer (and the image, if attached).
func (fs *FS) bufferAdd(id blockID) {
	fs.buffered.Put(id, struct{}{})
	if fs.img != nil {
		fs.img.Put(nvram.NSLFSBuffer, bufKey(id), nil)
	}
}

// bufferRemove drops a block from the NVRAM buffer (and the image).
func (fs *FS) bufferRemove(id blockID) {
	fs.buffered.Del(id)
	if fs.img != nil {
		fs.img.Delete(nvram.NSLFSBuffer, bufKey(id))
	}
}

// encodeCheckpoint serializes a checkpoint record deterministically
// (sorted maps, little-endian).
func encodeCheckpoint(cp *checkpointRec) []byte {
	blocks := make([]blockID, 0, len(cp.blockSeg))
	for id := range cp.blockSeg {
		blocks = append(blocks, id)
	}
	sortBlockIDs(blocks)
	files := make([]uint64, 0, len(cp.files))
	for f := range cp.files {
		files = append(files, f)
	}
	sort.Slice(files, func(i, j int) bool { return files[i] < files[j] })

	size := 8 + 4 + 20*len(blocks) + 4 + 16*len(files) + 4 + 4*len(cp.segLive) + 4 + 4*len(cp.free)
	b := make([]byte, 0, size)
	var tmp [20]byte
	binary.LittleEndian.PutUint64(tmp[0:], uint64(cp.seq))
	b = append(b, tmp[:8]...)

	binary.LittleEndian.PutUint32(tmp[0:], uint32(len(blocks)))
	b = append(b, tmp[:4]...)
	for _, id := range blocks {
		binary.LittleEndian.PutUint64(tmp[0:], id.File)
		binary.LittleEndian.PutUint64(tmp[8:], uint64(id.Index))
		binary.LittleEndian.PutUint32(tmp[16:], uint32(cp.blockSeg[id]))
		b = append(b, tmp[:20]...)
	}

	binary.LittleEndian.PutUint32(tmp[0:], uint32(len(files)))
	b = append(b, tmp[:4]...)
	for _, f := range files {
		binary.LittleEndian.PutUint64(tmp[0:], f)
		binary.LittleEndian.PutUint64(tmp[8:], uint64(cp.files[f]))
		b = append(b, tmp[:16]...)
	}

	binary.LittleEndian.PutUint32(tmp[0:], uint32(len(cp.segLive)))
	b = append(b, tmp[:4]...)
	for _, v := range cp.segLive {
		binary.LittleEndian.PutUint32(tmp[0:], uint32(v))
		b = append(b, tmp[:4]...)
	}

	binary.LittleEndian.PutUint32(tmp[0:], uint32(len(cp.free)))
	b = append(b, tmp[:4]...)
	for _, v := range cp.free {
		binary.LittleEndian.PutUint32(tmp[0:], uint32(v))
		b = append(b, tmp[:4]...)
	}
	return b
}

func decodeCheckpoint(b []byte) (*checkpointRec, error) {
	cp := &checkpointRec{
		blockSeg: make(map[blockID]int32),
		files:    make(map[uint64]int64),
	}
	off := 0
	need := func(n int) error {
		if off+n > len(b) {
			return fmt.Errorf("lfs: checkpoint record truncated at byte %d", off)
		}
		return nil
	}
	if err := need(12); err != nil {
		return nil, err
	}
	cp.seq = int64(binary.LittleEndian.Uint64(b[off:]))
	off += 8
	nBlocks := int(binary.LittleEndian.Uint32(b[off:]))
	off += 4
	if err := need(20 * nBlocks); err != nil {
		return nil, err
	}
	for i := 0; i < nBlocks; i++ {
		id := blockID{
			File:  binary.LittleEndian.Uint64(b[off:]),
			Index: int64(binary.LittleEndian.Uint64(b[off+8:])),
		}
		cp.blockSeg[id] = int32(binary.LittleEndian.Uint32(b[off+16:]))
		off += 20
	}
	if err := need(4); err != nil {
		return nil, err
	}
	nFiles := int(binary.LittleEndian.Uint32(b[off:]))
	off += 4
	if err := need(16 * nFiles); err != nil {
		return nil, err
	}
	for i := 0; i < nFiles; i++ {
		f := binary.LittleEndian.Uint64(b[off:])
		cp.files[f] = int64(binary.LittleEndian.Uint64(b[off+8:]))
		off += 16
	}
	if err := need(4); err != nil {
		return nil, err
	}
	nLive := int(binary.LittleEndian.Uint32(b[off:]))
	off += 4
	if err := need(4 * nLive); err != nil {
		return nil, err
	}
	for i := 0; i < nLive; i++ {
		cp.segLive = append(cp.segLive, int32(binary.LittleEndian.Uint32(b[off:])))
		off += 4
	}
	if err := need(4); err != nil {
		return nil, err
	}
	nFree := int(binary.LittleEndian.Uint32(b[off:]))
	off += 4
	if err := need(4 * nFree); err != nil {
		return nil, err
	}
	for i := 0; i < nFree; i++ {
		cp.free = append(cp.free, int32(binary.LittleEndian.Uint32(b[off:])))
		off += 4
	}
	if off != len(b) {
		return nil, fmt.Errorf("lfs: checkpoint record has %d trailing bytes", len(b)-off)
	}
	return cp, nil
}

// bufferedIDs returns the NVRAM write buffer's contents in (file, index)
// order.
func (fs *FS) bufferedIDs() []blockID {
	ids := make([]blockID, 0, fs.buffered.Len())
	fs.buffered.Each(func(id blockID, _ struct{}) { ids = append(ids, id) })
	sortBlockIDs(ids)
	return ids
}

// BufferedBlockRefs returns the NVRAM write buffer's contents in
// (file, index) order — the oracle side of the harness comparison.
func (fs *FS) BufferedBlockRefs() []BlockRef {
	ids := fs.bufferedIDs()
	out := make([]BlockRef, len(ids))
	for i, id := range ids {
		out[i] = BlockRef{File: id.File, Index: id.Index}
	}
	return out
}

// CheckpointSeq returns the log position of the most recent checkpoint,
// or 0 when the file system has never checkpointed.
func (fs *FS) CheckpointSeq() int64 {
	if fs.checkpoint == nil {
		return 0
	}
	return fs.checkpoint.seq
}

// RecoverBufferedRefs reads the parked write-buffer blocks out of a
// reopened image in (file, index) order.
func RecoverBufferedRefs(img *nvram.Image) ([]BlockRef, error) {
	var out []BlockRef
	var firstErr error
	img.ForEach(nvram.NSLFSBuffer, func(key string, payload []byte) {
		id, err := decodeBufKey(key)
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			return
		}
		out = append(out, BlockRef{File: id.File, Index: id.Index})
	})
	if firstErr != nil {
		return nil, firstErr
	}
	return out, nil
}

// RecoverCheckpointSeq reads the checkpoint log position out of a
// reopened image; ok is false when no checkpoint was ever written.
func RecoverCheckpointSeq(img *nvram.Image) (seq int64, ok bool, err error) {
	raw, found := img.Get(nvram.NSLFSCheckpoint, checkpointKey)
	if !found {
		return 0, false, nil
	}
	cp, err := decodeCheckpoint(raw)
	if err != nil {
		return 0, false, err
	}
	return cp.seq, true, nil
}

// SimulateCrashAndRecoverFromImage is SimulateCrashAndRecover with the
// NVRAM-resident recovery inputs — the buffered-block set and the
// checkpoint region — read from a (typically just reopened) durable image
// instead of this process's memory. The receiver supplies only the
// disk-resident state (segment log, summaries, logged deletions), which a
// crash never destroys. Recovering the same FS both ways must yield equal
// DurableFingerprints; the crash harness asserts exactly that.
func (fs *FS) SimulateCrashAndRecoverFromImage(now int64, img *nvram.Image) (*FS, RecoveryReport, error) {
	var buffered []blockID
	var firstErr error
	img.ForEach(nvram.NSLFSBuffer, func(key string, payload []byte) {
		id, err := decodeBufKey(key)
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			return
		}
		buffered = append(buffered, id)
	})
	if firstErr != nil {
		return nil, RecoveryReport{}, firstErr
	}
	var cp *checkpointRec
	if raw, found := img.Get(nvram.NSLFSCheckpoint, checkpointKey); found {
		var err error
		cp, err = decodeCheckpoint(raw)
		if err != nil {
			return nil, RecoveryReport{}, err
		}
	}
	return fs.recoverWith(now, buffered, cp)
}
