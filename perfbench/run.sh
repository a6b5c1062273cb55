#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it is run in and
# runs it with the given arguments:
#
#   bash perfbench/run.sh --workload attach --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root. Build outputs, the Go build cache, Go's
# own config and telemetry files, and span files stay under .bench_build/
# in the checkout.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOMODCACHE="$out/gomod" GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/config"
export GOFLAGS=-mod=mod GOPROXY=off GOTOOLCHAIN=local GOWORK=off

go -C perfbench build -o "$out/perfbench" . >&2
exec "$out/perfbench" "$@"
