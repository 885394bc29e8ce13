#!/usr/bin/env bash
# Builds the benchmark from source and runs it:
#
#   bash lbsqbench/run.sh --workload knn_warm_city --seed 1 --seconds 20 --trace 0
#
# Run from the repository root. Everything the build and the run write
# (compiler cache, binary, CPU profiles) stays under .bench_build/.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/home"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" HOME="$out/home"
export XDG_CONFIG_HOME="$out/home" XDG_CACHE_HOME="$out/home"
export GOPATH="$out/gopath" GOFLAGS=-mod=readonly GOPROXY=off GOTOOLCHAIN=local
(cd "$root/lbsqbench" && go build -o "$out/lbsqbench" .) >&2
exec "$out/lbsqbench" "$@"
