#!/usr/bin/env bash
# Builds the benchmark from the checkout it is run in and runs it with
# the given arguments, e.g.
#
#   bash perfbench/run.sh --workload fleet-open --seed 1 --seconds 10 --trace 0
#
# Run it from the repository root. Every build product, the Go caches
# and the traced runs' Chrome traces stay under .bench_build (or
# $CARGO_TARGET_DIR when set).
set -euo pipefail

out="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$out/tmp"
out="$(cd "$out" && pwd)"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOPATH="$out/gopath" \
	GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod GOTELEMETRY=off

go build -C perfbench -o "$out/perfbench" .
exec "$out/perfbench" "$@"
