package cache

import (
	"bufio"
	"crypto/sha256"
	"flag"
	"fmt"
	"hash"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"nvramfs/internal/interval"
)

// update rewrites the checked-in per-op digests:
//
//	go test -run TestModelDigests ./internal/cache -update
var update = flag.Bool("update", false, "rewrite testdata/digests.txt from this run")

const digestFile = "testdata/digests.txt"

// digestCase is one model configuration driven through one seeded mix.
type digestCase struct {
	kind      ModelKind
	pol       PolicyKind
	vol, nv   int
	dirtyPref bool
	seed      int64
	advance   bool // the mix's last slot runs the cleaner, not Invalidate
}

func (c digestCase) String() string {
	return fmt.Sprintf("%v/%v/vol%d/nv%d/pref=%t/seed%d/advance=%t",
		c.kind, c.pol, c.vol, c.nv, c.dirtyPref, c.seed, c.advance)
}

// digestCases covers every organization under every policy it allows, on
// capacity pairs that include an empty volatile pool for the models that
// allow one, and the volatile model with and without DirtyPreference.
func digestCases() []digestCase {
	type shape struct {
		vol, nv   int
		dirtyPref bool
	}
	orgs := []struct {
		kind   ModelKind
		pols   []PolicyKind
		shapes []shape
	}{
		{ModelVolatile, []PolicyKind{LRU}, []shape{{4, 0, false}, {8, 0, false}, {4, 0, true}, {8, 0, true}}},
		{ModelWriteAside, []PolicyKind{LRU, Random, Omniscient}, []shape{{8, 4, false}, {4, 8, false}}},
		{ModelUnified, []PolicyKind{LRU, Random, Omniscient}, []shape{{6, 4, false}, {0, 4, false}, {2, 8, false}}},
		{ModelHybrid, []PolicyKind{LRU, Random, Omniscient}, []shape{{6, 3, false}, {0, 4, false}, {2, 8, false}}},
	}
	var cases []digestCase
	for _, o := range orgs {
		for _, pol := range o.pols {
			for _, s := range o.shapes {
				for seed := int64(0); seed < 3; seed++ {
					for _, advance := range []bool{false, true} {
						cases = append(cases, digestCase{o.kind, pol, s.vol, s.nv, s.dirtyPref, seed, advance})
					}
				}
			}
		}
	}
	return cases
}

// digest runs the case's mix and hashes, after every op, the traffic
// counters, the resident block count, the dirty byte count and every hook
// call the op made, then the final stateOf.
func (c digestCase) digest(t *testing.T) string {
	ops := randomMix(c.seed, 2000)
	h := sha256.New()
	m, err := NewModel(c.kind, Config{
		BlockSize:       mixBlockSize,
		VolatileBlocks:  c.vol,
		NVRAMBlocks:     c.nv,
		Policy:          c.pol,
		Schedule:        newMixSchedule(ops),
		Seed:            c.seed,
		DirtyPreference: c.dirtyPref,
		Hooks:           hashHooks(h),
	})
	if err != nil {
		t.Fatalf("%v: %v", c, err)
	}
	for _, op := range ops {
		op.apply(m, c.advance)
		fmt.Fprintf(h, "%v %d %d\n", *m.Traffic(), m.CachedBlocks(), m.DirtyBytes())
	}
	fmt.Fprintf(h, "%+v\n", stateOf(m))
	return fmt.Sprintf("%x", h.Sum(nil))
}

// hashHooks writes every hook call into h.
func hashHooks(h hash.Hash) *ServerHooks {
	return &ServerHooks{
		Write: func(now int64, file uint64, r interval.Range, cause Cause, stable bool) {
			fmt.Fprintf(h, "w %d %d %v %v %t\n", now, file, r, cause, stable)
		},
		Read: func(now int64, file uint64, r interval.Range) {
			fmt.Fprintf(h, "r %d %d %v\n", now, file, r)
		},
	}
}

// TestModelDigests pins every model's observable behaviour op by op:
// traffic, residency, dirt and the server hook stream, on each case of
// digestCases, against testdata/digests.txt. A change that means to move
// any of them reruns it with -update and says which lines moved.
func TestModelDigests(t *testing.T) {
	var got []string
	for _, c := range digestCases() {
		got = append(got, c.String()+" "+c.digest(t))
	}
	if *update {
		if err := os.MkdirAll(filepath.Dir(digestFile), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(digestFile, []byte(strings.Join(got, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	f, err := os.Open(digestFile)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	defer f.Close()
	var want []string
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		want = append(want, sc.Text())
	}
	if len(want) != len(got) {
		t.Fatalf("%s has %d cases, the run %d", digestFile, len(want), len(got))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("digest moved:\n got %s\nwant %s", got[i], want[i])
		}
	}
}
