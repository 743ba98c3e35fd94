#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it from the
# checkout root:
#   bash perfbench/run.sh --workload local_soe --seed 1 --seconds 30 --trace 0
# Everything the build writes (binary, Go build and module caches, Go's
# telemetry counters) stays under .bench_build; run outputs (data dirs, span
# files) go to .bench_out. The module has no dependencies outside the
# checkout, so the build needs no network.
set -euo pipefail
out="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$out"
out="$(cd "$out" && pwd)"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" XDG_CONFIG_HOME="$out/config" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod
go build -C perfbench -o "$out/perfbench" .
exec "$out/perfbench" "$@"
