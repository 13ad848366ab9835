#!/usr/bin/env bash
# Builds the benchmark (a Go module of its own in this directory) and the
# server under test from source, keeping every build product inside the
# checkout, then runs the benchmark with the arguments given:
#
#   bash bench/run.sh --workload v4-batch --seed 1 --seconds 10 --trace 0
#
# See README.md in this directory.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gotmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp" GOFLAGS=-buildvcs=false GOPROXY=off GOTOOLCHAIN=local
cd "$here"
go build -o "$build/bench" .
exec "$build/bench" "$@"
