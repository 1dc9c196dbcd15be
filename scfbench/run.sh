#!/usr/bin/env bash
# Builds the benchmark from the checkout's own sources and runs it with the
# arguments given, e.g.
#
#   bash scfbench/run.sh --workload golden --seed 1 --seconds 15 --trace 0
#   bash scfbench/run.sh --steady 10 --seconds 15 --workload feed
#
# The binary, the Go build cache, Go's temporary files and the traced runs'
# span files all stay under .bench_build at the checkout root (or under
# $CARGO_TARGET_DIR when that is set). Nothing is fetched: the module has no
# dependencies outside the standard library and the checkout itself.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in
/*) ;;
*) out="$root/$out" ;;
esac
mkdir -p "$out/gocache" "$out/tmp"

export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath"
export GOENV=off GOFLAGS= GOWORK=off GOPROXY=off GOSUMDB=off GOTOOLCHAIN=local CGO_ENABLED=0
export SCFBENCH_OUT="$out"

go -C scfbench build -o "$out/scfbench" .
exec "$out/scfbench" "$@"
