#!/usr/bin/env bash
# Builds the benchmark from the checkout it sits in and runs it with the
# arguments given, e.g.
#
#   bash perfbench/run.sh --workload fanout --seed 1 --seconds 30 --trace 0
#
# Run from the root of the checkout. Everything the build and the run
# write lands under .bench_build/ in that checkout.
set -euo pipefail
root="$(pwd)"
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath"
export GOTOOLCHAIN=local GOFLAGS=-mod=mod GOWORK=off GOENV=off GOPROXY=off GOSUMDB=off
# The go command keeps telemetry counters under the user config directory.
export XDG_CONFIG_HOME="$out/config"
go -C "$root/perfbench" build -o "$out/perfbench/perfbench" .
exec "$out/perfbench/perfbench" "$@"
