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
# sweeps) finishes in seconds and catches most breakage before the full
# -race pass, which takes ~15 minutes on a 1-CPU box.
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

# Fault-injection gate: every fault-stage and degraded-mode test by name
# (injector semantics, outage degradation per organization, crash
# composition, determinism across worker counts), without the race
# detector so it stays quick.
go test -run 'Fault|Degraded' -count=1 ./...

# The report sweeps re-canonicalize each trace per pass (the streaming
# pipeline's CPU-for-memory tradeoff), which under the race detector's
# ~10x slowdown pushes the package past go test's default 10m timeout on
# the 1-CPU CI box.
go test -race -timeout 30m ./...

# Bench smoke: one iteration of every benchmark under the race detector, so
# benchmarks can't rot (and the allocation-budget tests above can't drift
# from what the benchmarks actually exercise).
go test -race -run '^$' -bench . -benchtime 1x ./...

# Streaming-memory smoke: peak heap while simulating a steady-live-set
# trace must stay within 2x when the trace is grown 10x longer. Fails
# loudly if any pipeline stage regresses to materializing the trace (or
# retaining per-file state past deletion).
go run ./cmd/nvbench -stream-smoke

# Sharded-pipeline smoke: the Figure 2/3 sweeps rendered sharded at -j 4
# must be byte-identical to the sequential render, and on a box with
# >= 4 CPUs the sharded run must be at least 1.5x faster (the speedup
# gate self-skips on smaller boxes; the divergence gate always runs).
go run ./cmd/nvbench -shard-smoke

# Durable kill/reopen gate: SIGKILL a child process (and cut the power via
# the durable snapshot) at trace-event boundaries, reopen the image file,
# and require recovery to match the in-memory oracle exactly. The -short
# sweep above already runs the sampled version; this runs the durable
# tests by name so a filtered test run can't silently drop them, then the
# nvbench smoke drives the same harness through the public facade.
go test -short -run 'Durable|Image' -count=1 ./internal/crash/ ./internal/nvram/ ./internal/lfs/ ./internal/faults/
go run ./cmd/nvbench -durable-smoke

# Fleet population gate: a 100k-client, 16-shard fleet run must hold peak
# heap within 2x of the 10k-client run (per-client and per-segment state
# has to retire), and the fleet experiment must render byte-identical
# output at -j 1 and -j 8.
go run ./cmd/nvbench -fleet-smoke

# Live-service gate: the daemon's protocol/admission/panic-isolation
# tests, the image lock and corruption-fuzz tests, the wall-clock seam,
# and the live kill/reconnect harness, all by name so a filtered run
# can't silently drop them; then the full cycle against a real nvramd
# binary — load it over TCP under an outage, SIGKILL it mid-backlog,
# restart it, and require the parked backlog to drain with zero
# committed-byte loss (recording the replay ops/s + p99 baseline).
go test -run 'Daemon|Live|Lock|Corrupt|Clock|Frame|Reservoir' -count=1 \
	./internal/daemon/ ./internal/crash/ ./internal/nvram/ ./internal/faults/ ./internal/trace/ ./internal/stats/
go run ./cmd/nvbench -daemon-smoke
