#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Call it from the root of
# a checkout; everything it writes stays under .bench_build there.
#
#   bash perfbench/run.sh --workload stream-bulk --seed 1 --seconds 10 --trace 0
set -euo pipefail
out="$PWD/.bench_build/perfbench"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOENV=off \
	GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOTELEMETRY=off
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
