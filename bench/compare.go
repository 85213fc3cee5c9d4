package main

// bench -compare A.json B.json: is B no worse than A? Counts and
// sim_digest compare exactly, end-to-end timings against each metric's
// bound from BENCHMARK.json, and a larger share of failed operations is
// a failure whatever the timings say.

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

func readRecord(path string) (*record, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r record
	if err := json.Unmarshal(b, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

// verdict of one metric on one workload.
type verdict string

const (
	verdictOK         verdict = "ok"
	verdictRegression verdict = "REGRESSION"
	verdictUnresolved verdict = "unresolved"
)

// judge compares b against a for a metric where lower (or higher) is
// better. worse is the share of a's value by which b is worse (negative
// when b is better). A spread wider than the bound on either side cannot
// resolve a difference of the bound's size, unless b is no worse at all.
func judge(a, b metric, higherBetter bool, bound float64) (worse float64, v verdict) {
	if a.Value == 0 {
		return 0, verdictUnresolved
	}
	worse = (b.Value - a.Value) / a.Value
	if higherBetter {
		worse = -worse
	}
	switch {
	case worse <= 0:
		return worse, verdictOK
	case a.Spread > bound || b.Spread > bound:
		return worse, verdictUnresolved
	case worse > bound:
		return worse, verdictRegression
	}
	return worse, verdictOK
}

// failShare is failed operations as a share of attempted.
func failShare(r *result) float64 {
	if r.Attempted == 0 {
		return 1
	}
	return float64(r.Failed) / float64(r.Attempted)
}

// compareResults writes one row per pairing of workload and metric and
// returns how many regressions (failures included) it found, and how
// many pairings the recorded spreads left unresolved.
func compareResults(spec *benchmarkFile, a, b *record, w io.Writer) (bad, unresolved int) {
	sameInputs := a.Env.Seed == b.Env.Seed && a.Env.Seconds == b.Env.Seconds
	if !sameInputs {
		fmt.Fprintf(w, "note: seeds or run lengths differ (%d/%ds vs %d/%ds): counts and digests are not compared\n",
			a.Env.Seed, a.Env.Seconds, b.Env.Seed, b.Env.Seconds)
	}
	byName := map[string]*result{}
	for _, r := range b.Results {
		byName[r.Workload] = r
	}
	for _, ra := range a.Results {
		rb := byName[ra.Workload]
		if rb == nil {
			fmt.Fprintf(w, "%-13s missing from B                                     REGRESSION\n", ra.Workload)
			bad++
			continue
		}
		if !rb.Correct {
			fmt.Fprintf(w, "%-13s B failed its correctness checks                    REGRESSION\n", ra.Workload)
			bad++
		}
		if fa, fb := failShare(ra), failShare(rb); fb > fa {
			fmt.Fprintf(w, "%-13s failed share %d/%d -> %d/%d                        REGRESSION\n",
				ra.Workload, ra.Failed, ra.Attempted, rb.Failed, rb.Attempted)
			bad++
		}
		if sameInputs {
			if ra.SimDigest != rb.SimDigest {
				fmt.Fprintf(w, "%-13s sim_digest %.12s -> %.12s                      REGRESSION\n", ra.Workload, ra.SimDigest, rb.SimDigest)
				bad++
			}
			if ra.InputDigest != rb.InputDigest {
				fmt.Fprintf(w, "%-13s input_digest %.12s -> %.12s                    REGRESSION\n", ra.Workload, ra.InputDigest, rb.InputDigest)
				bad++
			}
			for _, name := range sortedNames(ra.Counts) {
				if ca, cb := ra.Counts[name], rb.Counts[name]; ca != cb {
					fmt.Fprintf(w, "%-13s count %-24s %d -> %d   REGRESSION\n", ra.Workload, name, ca, cb)
					bad++
				}
			}
		}
		for _, m := range spec.EndToEnd {
			ma, okA := ra.Metrics[m.Name]
			mb, okB := rb.Metrics[m.Name]
			if !okA || !okB {
				continue // a traced record carries no end-to-end metrics
			}
			worse, v := judge(ma, mb, m.Better == "higher", *m.Bound)
			fmt.Fprintf(w, "%-13s %-12s %14.4f -> %14.4f %-5s %+6.1f%% worse (bound %2.0f%%, spread %4.1f%%/%4.1f%%)  %s\n",
				ra.Workload, m.Name, ma.Value, mb.Value, m.Unit, 100*worse, 100**m.Bound, 100*ma.Spread, 100*mb.Spread, v)
			switch v {
			case verdictRegression:
				bad++
			case verdictUnresolved:
				unresolved++
			}
		}
		for _, m := range spec.PerLayer {
			ma, okA := ra.Metrics[m.Name]
			mb, okB := rb.Metrics[m.Name]
			if !okA || !okB || (ma.Value == 0 && mb.Value == 0) {
				continue
			}
			fmt.Fprintf(w, "%-13s %-34s %16.4f -> %16.4f %s\n", ra.Workload, m.Name, ma.Value, mb.Value, m.Unit)
		}
		for _, name := range sortedNames(ra.Diagnostics) {
			if vb, ok := rb.Diagnostics[name]; ok {
				fmt.Fprintf(w, "%-13s %-34s %16.4f -> %16.4f (diagnostic)\n", ra.Workload, name, ra.Diagnostics[name], vb)
			}
		}
	}
	return bad, unresolved
}

// compareFiles is the -compare command; its return value is the exit code.
func compareFiles(root, pathA, pathB string, w io.Writer) int {
	spec, err := loadBenchmarkFile(root)
	var a, b *record
	if err == nil {
		a, err = readRecord(pathA)
	}
	if err == nil {
		b, err = readRecord(pathB)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 2
	}
	fmt.Fprintf(w, "A: commit %s seed %d   B: commit %s seed %d\n", a.Env.Commit, a.Env.Seed, b.Env.Commit, b.Env.Seed)
	bad, unresolved := compareResults(spec, a, b, w)
	fmt.Fprintf(w, "%d regression(s), %d unresolved\n", bad, unresolved)
	if bad > 0 {
		return 1
	}
	return 0
}
