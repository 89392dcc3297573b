#!/usr/bin/env bash
# Builds qosbench from source and runs it with the given flags, e.g.
#
#   bash bench/run.sh --workload paper-agents --seed 7 --seconds 12 --trace 0
#
# Run it from the repository root. Every build artefact (binary, Go build
# cache, temporary files) stays under .bench_build/ in that directory, and
# the Go toolchain is kept offline: the benchmark module depends only on
# the simulator's source one directory up.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/go-cache" "$out/go-tmp" "$out/go-mod"
export GOCACHE="$out/go-cache" GOTMPDIR="$out/go-tmp" GOMODCACHE="$out/go-mod"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off GOENV=off

(cd "$root/bench" && go build -o "$out/qosbench" ./qosbench)
exec "$out/qosbench" "$@"
