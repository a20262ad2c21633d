#!/usr/bin/env bash
# Builds the benchmark from the checkout it is run in and runs it with
# the given arguments, e.g.
#
#   bash perfbench/run.sh --workload ite --seed 1 --seconds 30 --trace 0
#
# Run it from the repository root. Build outputs, the Go build cache and
# the Go tool's own configuration stay under .bench_build/ in that
# directory.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build/perfbench"
mkdir -p "$out/cache" "$out/tmp" "$out/config"
export GOCACHE="$out/cache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" GOFLAGS=-mod=readonly GOPROXY=off \
	GOTOOLCHAIN=local GOWORK=off
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
