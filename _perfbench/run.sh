#!/usr/bin/env bash
# Builds the benchmark from the checkout it sits in and runs it; every
# argument is passed on. Run from the checkout's root:
#
#   bash _perfbench/run.sh --workload fig10-grid --seed 1 --seconds 20 --trace 0
#
# The Go build cache, temporary files, the binary and run scratch all live
# under .bench_build/perfbench, so nothing is written outside the checkout.
set -euo pipefail

root="$(pwd)"
src="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="$root/.bench_build/perfbench"
mkdir -p "$out/gocache" "$out/gotmp"

export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOMODCACHE="$out/gomodcache"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-buildvcs=false GOWORK=off

(cd "$src" && go build -o "$out/perfbench" .)
exec "$out/perfbench" -work "$out" "$@"
