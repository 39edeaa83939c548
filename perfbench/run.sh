#!/usr/bin/env bash
# Builds the benchmark harness and wccserve from this checkout, then runs
# one workload. Run from the repository root:
#
#   bash perfbench/run.sh --workload query-storm --seed 1 --seconds 30 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in the
# checkout: the Go build cache, temp files, binaries, data directories and
# the per-seed determinism records.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp" "$out/config"
export GOCACHE="$out/go-cache"
export GOPATH="$out/gopath"
export GOTMPDIR="$out/tmp"
export TMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOWORK=off GOPROXY=off GOFLAGS=-mod=mod

go -C perfbench build -o "$out/perfbench" .
go -C perfbench build -o "$out/wccserve" repro/cmd/wccserve
exec "$out/perfbench" -root "$root" -server "$out/wccserve" -out "$out" "$@"
