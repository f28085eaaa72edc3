#!/usr/bin/env bash
# Builds the benchmark inside the checkout and runs it from the repository
# root. Everything the build and the run write goes under .bench_build/ and
# bench/out/, both ignored by git.
set -euo pipefail
root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
build="$root/.bench_build"
mkdir -p "$build/bin" "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export GOFLAGS=-mod=readonly GOTOOLCHAIN=local GOPROXY=off
cd "$root"
go -C bench build -o "$build/bin/bench" .
exec "$build/bin/bench" "$@"
