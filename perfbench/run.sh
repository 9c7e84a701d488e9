#!/usr/bin/env bash
# Builds topk-serve, topk-snap and the benchmark from the checkout this
# script sits in, then runs the benchmark with the given arguments:
#
#   bash perfbench/run.sh --workload serve-interval --seed 1 --seconds 10 --trace 0
#
# Every build output, the Go build cache and every temporary file stay in
# the checkout, under $CARGO_TARGET_DIR (default .bench_build).
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
out="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$out/bin" "$out/tmp" "$out/home"
out="$(cd "$out" && pwd)"

export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
# The go command keeps telemetry counters under the user config directory.
export HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config"
export GOTOOLCHAIN=local GOENV=off GOWORK=off GOFLAGS= CGO_ENABLED=0

go build -o "$out/bin/" ./cmd/topk-serve ./cmd/topk-snap
(cd perfbench && go build -o "$out/bin/perfbench" .)
exec "$out/bin/perfbench" --bin-dir "$out/bin" --out "$out" "$@"
