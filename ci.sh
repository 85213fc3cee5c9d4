#!/bin/sh
# Tier-1 gate (see ROADMAP.md): formatting, vet, build, and the full test
# suite under the race detector. Everything must pass before a merge.
set -eu

cd "$(dirname "$0")"

unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
	echo "gofmt needed on:" >&2
	echo "$unformatted" >&2
	exit 1
fi

go vet ./...
go build ./...

# Doc lint: every package of the root module (the facade, internal/, cmd/
# and examples/; the nested bench/ module is outside ./...) must carry a
# package comment — godoc and pkgsite render these as the package
# synopsis, and a silent empty synopsis is how documentation rot starts.
undocumented=$(go list -f '{{if not .Doc}}{{.ImportPath}}{{end}}' ./...)
if [ -n "$undocumented" ]; then
	echo "packages missing a package comment:" >&2
	echo "$undocumented" >&2
	exit 1
fi

# Quick path first: the plain -short suite (including the crash-injection
# sweeps and the live nvramd kill/restart test) finishes in about a minute
# and catches most breakage before the full -race pass, which takes
# about 10 minutes on a 2-CPU box (this whole script about 15).
go test -short ./...

# The benchmark is a nested module (bench/go.mod, replace => ..) that the
# ./... patterns above do not reach, and it compiles against internal
# packages: build and test it here so an API change cannot break it unseen.
(cd bench && go vet ./... && go test ./...)

# And run it, briefly: the live workloads exit non-zero on any broken
# conservation, corpse-image, RECOVERED= or zero-records check, and a change
# that breaks one should fail here, not as a rejected benchmark run;
# sweep_client and sweep_server check that repeated sweeps hash alike.
# About 30 s in all; the benchmark refuses to run on fewer than two CPUs.
if [ "$(nproc)" -ge 2 ]; then
	for w in daemon_park daemon_mix daemon_open sweep_server sweep_client; do
		bash bench/run.sh --workload "$w" --seed 1 --seconds 2 --trace 0
	done
	bash bench/run.sh --workload daemon_park --seed 1 --seconds 2 --trace 1
fi

# The bounded-memory gate (heap_test.go) holds the peak live heap within
# 2x when a trace grows 10x. The one-worker run of nvreport's golden checks
# the digests that the suites above check at two and eight workers. Both
# skip under -short and under the race detector, so they run here by name.
go test -count=1 -run 'HeapBound' .
go test -count=1 -run 'TestGoldenOutput/j1' ./cmd/nvreport

# The fuzz budget, outside the race pass: each fuzz target runs for a
# fixed time (its seed corpus already ran in the suites above). A crasher
# is written under the package's testdata/fuzz and fails the gate. The
# fuzzer also minimizes every input that finds new coverage, for up to
# -fuzzminimizetime (60 s by default); on these inputs of a few hundred
# bytes that stalled the 20 s budget after a few dozen runs, so it is 1 s.
go test -run '^$' -fuzz '^FuzzBroadcastMatchesRuns$' -fuzztime 20s -fuzzminimizetime 1s ./internal/sim
go test -run '^$' -fuzz '^FuzzCacheModels$' -fuzztime 10s -fuzzminimizetime 1s ./internal/cache
go test -run '^$' -fuzz '^FuzzPendingQueue$' -fuzztime 10s -fuzzminimizetime 1s ./internal/workload
go test -run '^$' -fuzz '^FuzzTableMatchesMap$' -fuzztime 10s -fuzzminimizetime 1s ./internal/blockmap
go test -run '^$' -fuzz '^FuzzHeapMatchesContainerHeap$' -fuzztime 10s -fuzzminimizetime 1s ./internal/heapq
go test -run '^$' -fuzz '^FuzzRunsMatchMap$' -fuzztime 10s -fuzzminimizetime 1s ./internal/lfs
go test -run '^$' -fuzz '^FuzzAgeQueueMatchesHeap$' -fuzztime 10s -fuzzminimizetime 1s ./internal/lfs
go test -run '^$' -fuzz '^FuzzVictimsMatchSort$' -fuzztime 10s -fuzzminimizetime 1s ./internal/lfs

# The report package simulates every figure's grid at test scale several
# times over (the golden render at one and eight workers, the call-order
# and concurrency tests), which under the race detector's ~10x slowdown
# can push it past go test's default 10m timeout.
go test -race -timeout 30m ./...

# Bench smoke: one iteration of every benchmark under the race detector, so
# benchmarks can't rot (and the allocation-budget tests above can't drift
# from what the benchmarks actually exercise).
go test -race -run '^$' -bench . -benchtime 1x ./...
