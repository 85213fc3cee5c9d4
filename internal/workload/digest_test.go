package workload

import (
	"bufio"
	"crypto/sha256"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"nvramfs/internal/trace"
)

// update rewrites the checked-in generator digests:
//
//	go test -run TestGeneratorDigests ./internal/workload -update
var update = flag.Bool("update", false, "rewrite testdata/digests.txt from this run")

const digestFile = "testdata/digests.txt"

// errEnough stops a generation once a digest has seen its prefix.
var errEnough = errors.New("enough events")

// traceDigest hashes the NVFT encoding of p's trace, or of its first
// limit events when limit > 0, labelled with the event count.
func traceDigest(t *testing.T, p Profile, limit int64) string {
	t.Helper()
	h := sha256.New()
	w, err := trace.NewWriter(h, p.Header())
	if err != nil {
		t.Fatal(err)
	}
	_, err = Generate(p, func(e trace.Event) error {
		if limit > 0 && w.Count() == limit {
			return errEnough
		}
		return w.Write(e)
	})
	if err != nil && err != errEnough {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return fmt.Sprintf("events=%d sha256=%x", w.Count(), h.Sum(nil))
}

// TestGeneratorDigests pins every byte the generator emits: the encoded
// standard traces 1-8 at scale 0.02, and the first 100k events of trace 7
// at paper scale (the live daemon mix's source), against
// testdata/digests.txt. The generator's internals may change freely; its
// output may not, since every offline result and the live mixes start
// from it.
func TestGeneratorDigests(t *testing.T) {
	var got []string
	for i := 1; i <= NumStandardTraces; i++ {
		got = append(got, fmt.Sprintf("trace%d/scale0.02 %s", i, traceDigest(t, StandardProfile(i, 0.02), 0)))
	}
	got = append(got, "trace7/scale1/first100000 "+traceDigest(t, StandardProfile(7, 1.0), 100_000))
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
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(got) {
		t.Fatalf("%s has %d lines, the run %d", digestFile, len(want), len(got))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("digest moved:\n got %s\nwant %s", got[i], want[i])
		}
	}
}
