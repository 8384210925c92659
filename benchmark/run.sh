#!/usr/bin/env bash
# Builds the harness from source and runs it, keeping every build output in
# .bench_build/ at the root of the checkout (the Go build cache included, so
# nothing is read or written outside the checkout). Run from the root:
#
#   bash benchmark/run.sh --workload scan_shift --seed 7 --seconds 20 --trace 0
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$(dirname "$here")/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod"
export GOTOOLCHAIN=local GOWORK=off GOFLAGS=
(cd "$here" && go build -o "$build/progopt-benchmark" .)
exec "$build/progopt-benchmark" "$@"
