#!/usr/bin/env bash
# Builds the end-to-end benchmark from the checkout's sources and runs it.
# Run from the repository root:
#
#   bash e2ebench/run.sh --workload slice-int8 --seed 1 --seconds 15 --trace 0
#   bash e2ebench/run.sh compare base.json new.json
#
# Everything the build and the run write stays under the build directory
# ($CARGO_TARGET_DIR, default .bench_build), including the Go build cache.
set -euo pipefail

root="$(pwd)"
bench="$(cd "$(dirname "$0")" && pwd)"
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in
/*) ;;
*) out="$root/$out" ;;
esac
mkdir -p "$out/gocache" "$out/gopath" "$out/tmp"

export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off

(cd "$bench" && go build -o "$out/e2ebench" .)
exec "$out/e2ebench" -outdir "$out/e2ebench-results" "$@"
