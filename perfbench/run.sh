#!/usr/bin/env bash
# Builds the benchmark from source and runs it, passing every argument on:
#
#   bash perfbench/run.sh --workload serve-read --seed 1 --seconds 30 --trace 0
#
# Everything the build and the run write stays under .bench_build/ at the
# repository root: the Go build cache, the binary, span dumps and the
# temporary WAL directories (removed when the run ends).
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
(cd "$root/perfbench" && go build -o "$build/perfbench" .)
cd "$root"
exec "$build/perfbench" --workdir "$build" "$@"
