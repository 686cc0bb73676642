#!/usr/bin/env bash
# Builds the benchmark and the quokka-worker binary into .bench_build/ at
# the root of the checkout, then runs the benchmark with the given flags.
# Everything the Go toolchain and the benchmark write (build cache, temp
# files, worker spill directories) stays under .bench_build/.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$(dirname "$here")/.bench_build"
mkdir -p "$build/bin" "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export GOPROXY=off GOTOOLCHAIN=local
go build -C "$here" -o "$build/bin/quokka-benchmark" .
go build -C "$here" -o "$build/bin/quokka-worker" quokka/cmd/quokka-worker
exec "$build/bin/quokka-benchmark" -worker-bin "$build/bin/quokka-worker" "$@"
