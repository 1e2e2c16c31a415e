#!/usr/bin/env bash
# Hermetic entry point named by BENCHMARK.json: builds the harness with the
# Go build cache and temp files inside the checkout, then runs it. Every
# argument is passed through (see `go run -C bench . -h`).
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" GOTOOLCHAIN=local
cd "$root/bench"
go build -o "$build/senn-bench" .
exec "$build/senn-bench" -root "$root" "$@"
