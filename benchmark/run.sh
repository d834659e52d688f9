#!/usr/bin/env bash
# Builds the benchmark from the sources of this checkout and runs it, e.g.
#
#   bash benchmark/run.sh --workload chat-ft2 --seed 1 --seconds 50 --trace 0
#
# The Go build cache and the binary live in .bench_build/ at the checkout
# root, so nothing is read or written outside the checkout.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/go-cache" GOTOOLCHAIN=local GOFLAGS= GOWORK=off
(cd "$root/benchmark" && go build -o "$build/ft2-benchmark" .) >&2
cd "$root"
exec "$build/ft2-benchmark" "$@"
