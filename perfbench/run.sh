#!/usr/bin/env bash
# Builds the benchmark from the sources in this checkout and runs it:
#   bash perfbench/run.sh --workload ring-be --seed 1 --seconds 20 --trace 0
# Run from the root of the checkout. The Go build cache, the binary,
# service state directories, spans and profiles all stay under
# .bench_build/ in the checkout.
set -euo pipefail
out="$PWD/.bench_build/perfbench"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTOOLCHAIN=local GOFLAGS= GOENV=off
(cd perfbench && go build -buildvcs=false -o "$out/perfbench" .) >&2
exec "$out/perfbench" --out "$out" "$@"
