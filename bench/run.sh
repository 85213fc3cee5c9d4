#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Everything it writes —
# Go build cache, binaries, daemon state directories — stays under
# .bench_build/ in the checkout.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomod" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export GOPROXY=off GOTOOLCHAIN=local
# The go command's own settings and telemetry counters live under the
# user's configuration directory; keep that inside the checkout too.
export XDG_CONFIG_HOME="$build/config"
(cd "$root/bench" && go build -o "$build/bench" .)
cd "$root"
exec "$build/bench" "$@"
