#!/usr/bin/env bash
# Builds the benchmark from source and runs one measurement:
#
#   bash perfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
#
# Everything the build and the run write stays under .bench_build at the
# checkout root: the Go build cache, the binary, trace files and the
# cross-run work-count records.
set -euo pipefail
root=$(cd "$(dirname "$0")/.." && pwd)
build="$root/.bench_build"
mkdir -p "$build/perfbench" "$build/go-tmp" "$build/go-config"
export GOCACHE="$build/go-cache" GOTMPDIR="$build/go-tmp" GOPATH="$build/go-path" \
	XDG_CONFIG_HOME="$build/go-config" GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
go -C "$root/perfbench" build -o "$build/perfbench/perfbench" .
cd "$root"
exec "$build/perfbench/perfbench" "$@"
