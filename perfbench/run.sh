#!/usr/bin/env bash
# Builds the benchmark and the tmedbd daemon from the checkout it runs
# in, then runs one benchmark invocation with the given arguments:
#
#   bash perfbench/run.sh --workload plan-cold --seed 1 --seconds 20 --trace 0
#
# Run from the repository root. Build outputs and the Go build cache stay
# under .bench_build in that directory.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gopath" "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp"
export GOENV=off GOFLAGS= GOPROXY=off GOTOOLCHAIN=local GOWORK=off
go build -o "$out/tmedbd" ./cmd/tmedbd
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" --tmedbd "$out/tmedbd" "$@"
