#!/usr/bin/env bash
# Entry point for a driver that must keep every byte inside the checkout:
# builds the benchmark with Go's build cache and temp files under .bench_build/
# at the repository root, then runs it with the arguments given. A human can
# just `go run ./bench`.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOTOOLCHAIN=local
go build -o "$build/bench" ./bench
exec "$build/bench" "$@"
