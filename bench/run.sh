#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the root of a
# checkout:
#
#   bash bench/run.sh --workload live-paced --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write — Go's build cache and temporary
# files, the binary, broker state, span files — stays under .bench_build in
# the checkout.
set -euo pipefail
root=$PWD
build=$root/.bench_build
mkdir -p "$build/tmp"
export GOCACHE=$build/gocache
export GOTMPDIR=$build/tmp
export GOFLAGS=-mod=mod
export GOTOOLCHAIN=local
go build -C "$root/bench" -o "$build/bench" . >&2
exec "$build/bench" -data "$build/data" "$@"
