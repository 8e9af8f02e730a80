#!/usr/bin/env bash
# Builds the benchmark from the checkout it lives in and runs it with the
# given arguments. Run it from the checkout's root:
#
#   bash perfbench/run.sh --workload circuit-build --seed 1 --seconds 30 --trace 0
#
# Build caches, temporary files, the binary and the traced runs' span files
# all stay under .bench_build in the checkout.
set -euo pipefail
here=$(cd "$(dirname "$0")" && pwd)
out="$(pwd)/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOPATH="$out/gopath"
export GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOFLAGS=-buildvcs=false GOENV=off
(cd "$here" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
