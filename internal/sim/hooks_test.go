package sim

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"testing"

	"nvramfs/internal/cache"
	"nvramfs/internal/faults"
	"nvramfs/internal/interval"
	"nvramfs/internal/prep"
)

// hookRecorder installs ServerHooks that hash every call, with the
// stepper's CurrentClient at the moment of the call, into one digest.
type hookRecorder struct {
	s     *Stepper
	h     hash.Hash
	calls int
}

func (r *hookRecorder) hooks() *cache.ServerHooks {
	return &cache.ServerHooks{
		Write: func(now int64, file uint64, rg interval.Range, cause cache.Cause, stable bool) {
			r.record("W %d %d %d-%d %d %v", now, file, rg.Start, rg.End, cause, stable)
		},
		Read: func(now int64, file uint64, rg interval.Range) {
			r.record("R %d %d %d-%d", now, file, rg.Start, rg.End)
		},
		Delete: func(now int64, file uint64, rg interval.Range) {
			r.record("D %d %d %d-%d", now, file, rg.Start, rg.End)
		},
	}
}

func (r *hookRecorder) record(format string, args ...any) {
	r.calls++
	fmt.Fprintf(r.h, format, args...)
	fmt.Fprintf(r.h, " c%d\n", r.s.CurrentClient())
}

// TestHookStreamDigest pins the sequence of ServerHooks calls a one-cell
// Stepper makes, and the client CurrentClient reports at each. The live
// daemon and the benchmark's write-back replica attribute write-backs by
// CurrentClient inside their Write hook, so both the order of the calls
// and the attribution are part of the simulator's contract; the report
// goldens see neither. Each digest covers every call of a run over one
// generated trace, without faults and under a lossy wire with an outage
// (where the Write hook fires from the fault stage's commits).
func TestHookStreamDigest(t *testing.T) {
	ops := traceOps(t, 3, 0.02)
	lossy, err := faults.ParseSpec("drop=0.2,outage=120s+60s")
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]string{
		"volatile/none":     "41953:adde76d9ffb5649d",
		"volatile/lossy":    "41953:68ac0562407c90dd",
		"write-aside/none":  "35427:12bfea5f2191809e",
		"write-aside/lossy": "35427:2047f9cfb0a0ad38",
		"unified/none":      "33053:76edf0e9a4142f46",
		"unified/lossy":     "33053:c5cbb47a1d7ab646",
		"hybrid/none":       "33681:b0ba5d37c0e00a3e",
		"hybrid/lossy":      "33681:f67c3826e369d294",
	}
	for _, kind := range []cache.ModelKind{cache.ModelVolatile, cache.ModelWriteAside, cache.ModelUnified, cache.ModelHybrid} {
		for _, prof := range []struct {
			name string
			p    *faults.Profile
		}{{"none", nil}, {"lossy", lossy}} {
			name := kind.String() + "/" + prof.name
			rec := &hookRecorder{h: sha256.New()}
			cfg := Config{
				Model:  kind,
				Cache:  cache.Config{VolatileBlocks: 128, NVRAMBlocks: 32, Hooks: rec.hooks()},
				Seed:   1,
				Faults: prof.p,
			}
			rec.s = NewStepper(prep.NewSliceSource(ops), cfg)
			if err := rec.s.StepAll(); err != nil {
				t.Fatal(err)
			}
			rec.s.Finish()
			rec.s.Release()
			got := fmt.Sprintf("%d:%s", rec.calls, hex.EncodeToString(rec.h.Sum(nil))[:16])
			if got != want[name] {
				t.Errorf("%s: hook stream digest %s, want %s", name, got, want[name])
			}
		}
	}
}

// TestRecallAttributesCleanerWriteBack: a recall first runs the recalled
// client's cleaner up to the open, and the write-backs it fires belong to
// the recalled client, not to the opener.
func TestRecallAttributesCleanerWriteBack(t *testing.T) {
	ops := []prep.Op{
		openOp(0, 1, 5, true),
		wop(1_000_000, 1, prep.Write, 5, 0, 4096),
		{Time: 2_000_000, Client: 1, Kind: prep.Close, File: 5},
		openOp(40_000_000, 2, 5, false), // past the 30 s write-back
	}
	var s *Stepper
	var got []string
	hooks := &cache.ServerHooks{
		Write: func(now int64, file uint64, r interval.Range, cause cache.Cause, stable bool) {
			got = append(got, fmt.Sprintf("%v by client %d", cause, s.CurrentClient()))
		},
	}
	s = NewStepper(prep.NewSliceSource(ops), Config{
		Model: cache.ModelVolatile,
		Cache: cache.Config{VolatileBlocks: 8, Hooks: hooks},
	})
	if err := s.StepAll(); err != nil {
		t.Fatal(err)
	}
	s.Release()
	if want := fmt.Sprintf("%v by client 1", cache.CauseCleaner); len(got) != 1 || got[0] != want {
		t.Fatalf("write-backs %q, want [%s]", got, want)
	}
}
