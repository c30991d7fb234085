#!/usr/bin/env bash
# Builds the benchmark and the server from this checkout and runs the
# benchmark. Everything the build writes stays inside the checkout: the Go
# build cache, temporary files and binaries live in .bench_build/.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
build="$root/.bench_build"
mkdir -p "$build/bin" "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath"
export GOFLAGS=-mod=mod GOTOOLCHAIN=local GOWORK=off CGO_ENABLED=0
go build -C benchmark -o "$build/bin/astra-benchmark" .
exec "$build/bin/astra-benchmark" "$@"
