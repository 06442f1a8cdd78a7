#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments:
#
#   bash perfbench/run.sh --workload proto-delay --seed 1 --seconds 10 --trace 0
#
# Run it from the repository root. The binary and the Go build cache live
# under $CARGO_TARGET_DIR (default .bench_build), so the build reads and
# writes nothing outside the checkout but the Go toolchain itself.
set -euo pipefail

root="$(pwd)"
out="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$out"
out="$(cd "$out" && pwd)"

sha=unknown
if [ -e "$root/.git" ] && command -v git >/dev/null 2>&1; then
	sha="$(git -C "$root" rev-parse --short=12 HEAD 2>/dev/null || echo unknown)"
fi

mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod" \
	GOTMPDIR="$out/tmp" GOTOOLCHAIN=local GOWORK=off GOFLAGS=-buildvcs=false
go -C perfbench build -o "$out/perfbench" .
exec "$out/perfbench" --git-sha "$sha" "$@"
