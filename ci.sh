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

# Doc lint: every internal package must carry a package comment (the doc.go
# convention) — godoc and pkgsite render these as the package synopsis, and
# a silent empty synopsis is how documentation rot starts.
undocumented=$(go list -f '{{if not .Doc}}{{.ImportPath}}{{end}}' ./internal/...)
if [ -n "$undocumented" ]; then
	echo "internal packages missing a package comment:" >&2
	echo "$undocumented" >&2
	exit 1
fi

# Quick path first: the plain -short suite (including the crash-injection
# sweeps and the live nvramd kill/restart test) finishes in about a minute
# and catches most breakage before the full -race pass, which takes
# about 12 minutes on a 2-CPU box.
go test -short ./...

# The benchmark is a nested module (bench/go.mod, replace => ..) that the
# ./... patterns above do not reach, and it compiles against internal
# packages: build and test it here so an API change cannot break it unseen.
(cd bench && go vet ./... && go test ./...)

# And run it, briefly: the live workloads exit non-zero on any broken
# conservation, corpse-image, RECOVERED= or zero-records check, and a change
# that breaks one should fail here, not as a rejected benchmark run. About
# 12 s in all; the benchmark refuses to run on fewer than two CPUs.
if [ "$(nproc)" -ge 2 ]; then
	for w in daemon_park daemon_mix daemon_open; do
		bash bench/run.sh --workload "$w" --seed 1 --seconds 2 --trace 0
	done
	bash bench/run.sh --workload daemon_park --seed 1 --seconds 2 --trace 1
fi

# The bounded-memory gates (heap_test.go): peak live heap within 2x when a
# trace grows 10x and when a fleet grows from 10k to 100k clients. They
# skip under -short and under the race detector, so they run here by name.
go test -count=1 -run 'HeapBound' .

# The report sweeps re-canonicalize each trace per pass (the streaming
# pipeline's CPU-for-memory tradeoff), which under the race detector's
# ~10x slowdown can push the package past go test's default 10m timeout.
go test -race -timeout 30m ./...

# Bench smoke: one iteration of every benchmark under the race detector, so
# benchmarks can't rot (and the allocation-budget tests above can't drift
# from what the benchmarks actually exercise).
go test -race -run '^$' -bench . -benchtime 1x ./...
