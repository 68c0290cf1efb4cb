#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given flags, from
# the root of a checkout:
#
#   bash bench/run.sh --workload replay-raw --seed 1 --seconds 25 --trace 0
#
# The Go build cache, module cache, temporary build files and toolchain
# settings live under .bench_build/ in the checkout, so a run writes
# nothing outside it. The build fails (and so does this script) when the
# checkout lacks the slscost module the benchmark imports.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"

export GOCACHE="$build/gocache"
export GOTMPDIR="$build/tmp"
export GOPATH="$build/gopath"
export GOMODCACHE="$build/gopath/pkg/mod"
export XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local
export GOWORK=off
export GOFLAGS=
export GOTELEMETRY=off

(cd "$root/bench" && go build -o "$build/slsbench" .)
exec "$build/slsbench" "$@"
