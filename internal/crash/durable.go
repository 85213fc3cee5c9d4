package crash

// Durable kill/reopen harness: the in-memory loss model in crash.go
// *simulates* what NVRAM preserves; this file checks the real thing. A
// simulation runs with its NVRAM state mirrored into an on-disk image
// (sim.Config.DurableImage / lfs.FS.AttachImage), the process (or, in the
// in-process variant, the power) dies at a deterministic event boundary,
// and verification reopens the image file and compares what recovery
// finds against an in-memory oracle replay of the same prefix:
//
//   - cache/fault mode: the parked write-back backlog recovered from the
//     image must equal the oracle injector's NVRAM backlog element-wise
//     (same deliveries, same sequence numbers, same redelivery schedule);
//   - LFS mode: the buffered-block set and checkpoint position must
//     match, and recovering the oracle with image-sourced NVRAM inputs
//     must yield the same durable fingerprint as recovering it from
//     process memory.
//
// Kill points sit at op boundaries, where every completed Put/Delete has
// both commit phases synced — so recovery must be exact, not merely
// prefix-consistent. Torn in-flight writes are modeled separately by
// planting garbage past the append offset before verification.

import (
	"fmt"
	"os"
	"reflect"

	"nvramfs/internal/disk"
	"nvramfs/internal/faults"
	"nvramfs/internal/lfs"
	"nvramfs/internal/nvram"
	"nvramfs/internal/prep"
	"nvramfs/internal/sim"
)

// DurableOutcome describes one kill/reopen verification.
type DurableOutcome struct {
	// Index is the op boundary the process died at.
	Index int
	// Records and DiscardedTailBytes summarize what reopen found in the
	// image (committed records replayed; torn tail discarded).
	Records            int
	DiscardedTailBytes int64
	// ParkedDeliveries and ParkedBytes are the write-back backlog
	// recovered from the image (cache mode).
	ParkedDeliveries int
	ParkedBytes      int64
	// RecoveredBlocks and CheckpointSeq summarize LFS-mode recovery.
	RecoveredBlocks int
	CheckpointSeq   int64
	// Violations lists every way the image diverged from the oracle;
	// empty means the durable state was exact.
	Violations []string
}

func (o *DurableOutcome) violate(format string, args ...any) {
	o.Violations = append(o.Violations, fmt.Sprintf(format, args...))
}

// RunDurableCacheTo simulates the first k ops of src (the whole stream
// when k < 0) with the fault stage's NVRAM backlog mirrored into img.
// It neither closes the image nor releases the stepper: the caller is a
// kill harness that dies here, or a verifier that inspects the stepper.
func RunDurableCacheTo(src prep.Source, cfg sim.Config, img *nvram.Image, k int) (*sim.Stepper, error) {
	if cfg.Faults == nil {
		return nil, fmt.Errorf("crash: durable cache run requires a fault profile (the image holds the parked backlog)")
	}
	cfg.DurableImage = img
	s := sim.NewStepper(src, cfg)
	if k < 0 {
		if err := s.StepAll(); err != nil {
			return nil, err
		}
		return s, nil
	}
	if err := s.StepTo(k); err != nil {
		return nil, err
	}
	return s, nil
}

// VerifyDurableCache reopens the image a killed durable cache run left at
// path and checks it against an in-memory oracle: a fresh replay of the
// same k-op prefix under the same configuration. The parked backlog
// recovered from the file must equal the oracle injector's NVRAM backlog
// element-wise. Volatile-organization runs must leave the image empty.
func VerifyDurableCache(rp prep.Replayable, cfg sim.Config, path string, k int) (*DurableOutcome, error) {
	img, info, err := nvram.OpenImage(path, nvram.ImageOptions{})
	if err != nil {
		return nil, fmt.Errorf("crash: reopening image: %w", err)
	}
	defer img.Close()
	out := &DurableOutcome{
		Index:              k,
		Records:            info.Records,
		DiscardedTailBytes: info.DiscardedTailBytes,
	}
	if info.Created {
		out.violate("image at %s was empty: the killed run never created it", path)
		return out, nil
	}
	got, err := faults.RecoverParked(img)
	if err != nil {
		out.violate("decoding parked backlog: %v", err)
		return out, nil
	}
	out.ParkedDeliveries = len(got)
	for _, p := range got {
		out.ParkedBytes += p.D.End - p.D.Start
	}

	// Oracle: replay the same prefix entirely in memory.
	src, err := rp.Ops()
	if err != nil {
		return nil, err
	}
	ocfg := cfg
	ocfg.DurableImage = nil
	s := sim.NewStepper(src, ocfg)
	if k < 0 {
		if err := s.StepAll(); err != nil {
			return nil, err
		}
	} else if err := s.StepTo(k); err != nil {
		return nil, err
	}
	inj := s.Faults()
	if inj == nil {
		return nil, fmt.Errorf("crash: oracle run has no fault stage")
	}
	want := inj.ParkedDeliveries()

	if len(got) != len(want) {
		out.violate("image holds %d parked deliveries, oracle has %d", len(got), len(want))
	} else {
		for i := range want {
			if !reflect.DeepEqual(got[i], want[i]) {
				out.violate("parked delivery %d diverges: image %+v, oracle %+v", i, got[i], want[i])
			}
		}
	}
	var wantBytes int64
	for _, p := range want {
		wantBytes += p.D.End - p.D.Start
	}
	if out.ParkedBytes != wantBytes {
		out.violate("image backlog %d bytes, oracle %d: committed-byte loss", out.ParkedBytes, wantBytes)
	}
	s.Release()
	return out, nil
}

// KillReopenCache is the in-process power-loss variant, exercising the
// same recovery path without subprocesses (so `go test -race` covers it):
// the run mirrors into a TrackShadow image, the durable snapshot at op
// boundary k — the file exactly as a power failure would leave it — is
// written to a sibling path, optionally with torn-write garbage planted
// past the append offset, and verification runs on that file.
func KillReopenCache(rp prep.Replayable, cfg sim.Config, dir string, k int, tailGarbage []byte) (*DurableOutcome, error) {
	deadPath, err := powerCut(rp, dir, tailGarbage, func(src prep.Source, img *nvram.Image) error {
		s, err := RunDurableCacheTo(src, cfg, img, k)
		if err != nil {
			return err
		}
		s.Release()
		return nil
	})
	if err != nil {
		return nil, err
	}
	return VerifyDurableCache(rp, cfg, deadPath, k)
}

// powerCut is the kill half of the in-process kill/reopen harness: run
// drives a fresh replay of rp into a TrackShadow image at dir/live.img,
// and the image's durable snapshot, with tailGarbage planted past the
// append offset when it fits, is written to dir/dead.img, whose path it
// returns for verification.
func powerCut(rp prep.Replayable, dir string, tailGarbage []byte, run func(prep.Source, *nvram.Image) error) (string, error) {
	src, err := rp.Ops()
	if err != nil {
		return "", err
	}
	livePath := dir + "/live.img"
	if err := os.Remove(livePath); err != nil && !os.IsNotExist(err) {
		return "", err
	}
	img, _, err := nvram.OpenImage(livePath, nvram.ImageOptions{TrackShadow: true})
	if err != nil {
		return "", err
	}
	defer img.Close()
	if err := run(src, img); err != nil {
		return "", err
	}
	if err := img.Err(); err != nil {
		return "", fmt.Errorf("crash: image failed during run: %w", err)
	}
	snap, err := img.DurableSnapshot()
	if err != nil {
		return "", err
	}
	if len(tailGarbage) > 0 {
		off := img.AppendOffset()
		if off+int64(len(tailGarbage)) <= int64(len(snap)) {
			copy(snap[off:], tailGarbage)
		}
	}
	deadPath := dir + "/dead.img"
	if err := os.WriteFile(deadPath, snap, 0o644); err != nil {
		return "", err
	}
	return deadPath, nil
}

// RunDurableLFSTo feeds the first k ops of src (the whole stream when
// k < 0) to a fresh LFS whose NVRAM state mirrors into img. Like its
// cache counterpart it leaves the image open for the caller to kill or
// inspect. It returns the file system and the last applied op's time.
func RunDurableLFSTo(src prep.Source, cfg LFSConfig, img *nvram.Image, k int) (*lfs.FS, int64, error) {
	fs := lfs.New(cfg.FS, disk.New(disk.DefaultParams()))
	fs.AttachImage(img)
	fed, now, err := feedLFS(fs, src, 0, k, cfg.CheckpointEvery)
	if err != nil {
		return nil, 0, err
	}
	if k >= 0 && fed < k {
		return nil, 0, fmt.Errorf("crash: durable LFS index %d outside [0, %d]", k, fed)
	}
	return fs, now, nil
}

// VerifyDurableLFS reopens the image a killed durable LFS run left at
// path and checks it against an in-memory oracle replay of the same
// prefix: the buffered-block set and checkpoint position must match
// exactly, and recovery seeded from the image must reach the same durable
// fingerprint as recovery from the oracle's memory.
func VerifyDurableLFS(rp prep.Replayable, cfg LFSConfig, path string, k int) (*DurableOutcome, error) {
	img, info, err := nvram.OpenImage(path, nvram.ImageOptions{})
	if err != nil {
		return nil, fmt.Errorf("crash: reopening image: %w", err)
	}
	defer img.Close()
	out := &DurableOutcome{
		Index:              k,
		Records:            info.Records,
		DiscardedTailBytes: info.DiscardedTailBytes,
	}
	if info.Created {
		out.violate("image at %s was empty: the killed run never created it", path)
		return out, nil
	}
	gotBuf, err := lfs.RecoverBufferedRefs(img)
	if err != nil {
		out.violate("decoding buffered blocks: %v", err)
		return out, nil
	}
	out.RecoveredBlocks = len(gotBuf)
	gotSeq, gotCkpt, err := lfs.RecoverCheckpointSeq(img)
	if err != nil {
		out.violate("decoding checkpoint: %v", err)
		return out, nil
	}
	out.CheckpointSeq = gotSeq

	// Oracle: replay the same prefix entirely in memory.
	osrc, err := rp.Ops()
	if err != nil {
		return nil, err
	}
	oracle := lfs.New(cfg.FS, disk.New(disk.DefaultParams()))
	_, now, err := feedLFS(oracle, osrc, 0, k, cfg.CheckpointEvery)
	if err != nil {
		return nil, err
	}
	wantBuf := oracle.BufferedBlockRefs()
	if len(gotBuf) != len(wantBuf) {
		out.violate("image holds %d buffered blocks, oracle has %d", len(gotBuf), len(wantBuf))
	} else {
		for i := range wantBuf {
			if gotBuf[i] != wantBuf[i] {
				out.violate("buffered block %d diverges: image %+v, oracle %+v", i, gotBuf[i], wantBuf[i])
			}
		}
	}
	wantSeq := oracle.CheckpointSeq()
	wantCkpt := oracle.Stats().Checkpoints > 0
	if gotCkpt != wantCkpt || gotSeq != wantSeq {
		out.violate("image checkpoint seq %d (present=%v), oracle seq %d (present=%v)",
			gotSeq, gotCkpt, wantSeq, wantCkpt)
	}

	// Fingerprint equality: recovery seeded from the image must land on
	// the identical durable state as recovery from oracle memory.
	recMem, _, err := oracle.SimulateCrashAndRecover(now)
	if err != nil {
		out.violate("oracle recovery failed: %v", err)
		return out, nil
	}
	recImg, _, err := oracle.SimulateCrashAndRecoverFromImage(now, img)
	if err != nil {
		out.violate("image recovery failed: %v", err)
		return out, nil
	}
	if err := recImg.CheckConsistent(); err != nil {
		out.violate("image-recovered state inconsistent: %v", err)
	}
	if a, b := recMem.DurableFingerprint(), recImg.DurableFingerprint(); a != b {
		out.violate("durable fingerprint diverges: memory %#x, image %#x", a, b)
	}
	return out, nil
}

// KillReopenLFS is the in-process power-loss variant for LFS, mirroring
// KillReopenCache.
func KillReopenLFS(rp prep.Replayable, cfg LFSConfig, dir string, k int, tailGarbage []byte) (*DurableOutcome, error) {
	deadPath, err := powerCut(rp, dir, tailGarbage, func(src prep.Source, img *nvram.Image) error {
		_, _, err := RunDurableLFSTo(src, cfg, img, k)
		return err
	})
	if err != nil {
		return nil, err
	}
	return VerifyDurableLFS(rp, cfg, deadPath, k)
}
