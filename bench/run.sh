#!/usr/bin/env bash
# Builds the benchmark from source and runs it from the checkout's
# root. The benchmark is a module of its own (bench/go.mod replaces
# spreadnshare with ../), so it is built from inside bench/. Everything
# the build writes stays under .bench_build/ in the checkout: the Go
# build cache, temporary files and GOPATH are pointed there because a
# run may read and write only inside its checkout and may have no HOME.
# The benchmark itself writes only bench/out/. Arguments go to the
# benchmark unchanged:
#
#   bash bench/run.sh --workload fig20_sns --seed 42 --seconds 15 --trace 0
#   bash bench/run.sh selfcheck
set -euo pipefail
root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
cd "$root"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/go-cache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" GOTOOLCHAIN=local GOPROXY=off
go build -C bench -o "$build/bench" .
exec "$build/bench" "$@"
