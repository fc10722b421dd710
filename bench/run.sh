#!/usr/bin/env bash
# Entry point named by BENCHMARK.json: build lockd-bench from source and
# run it with the caller's flags. The toolchain's caches, its temp files
# and the binary all stay under .bench_build/ at the root of the checkout,
# and the benchmark's own files under bench/out/, so a run reads and
# writes nothing outside the checkout.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$(dirname "$here")/.bench_build"
mkdir -p "$build/home" "$build/tmp"
export HOME="$build/home" GOCACHE="$build/go-cache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp"
export GOPROXY=off GOTOOLCHAIN=local GOFLAGS=-buildvcs=false
unset XDG_CACHE_HOME XDG_CONFIG_HOME
cd "$here"
go build -o "$build/lockd-bench" .
exec "$build/lockd-bench" "$@"
