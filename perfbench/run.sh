#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it. Run from the
# root of the repository:
#
#   bash perfbench/run.sh --workload contract-bigstate --seed 1 --seconds 15 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in the
# checkout: the Go build cache, temporary files, the binary, miner stores,
# spans and results.
set -euo pipefail

root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gopath" "$out/tmp"

# The Go toolchain keeps its telemetry counters under the user config
# directory; pointing that at the checkout keeps the build's writes there.
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config" XDG_CACHE_HOME="$out/cache"
export GOFLAGS= GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOENV=off

(cd "$root/perfbench" && go build -o "$out/perfbench-bin" .)
cd "$root"
exec "$out/perfbench-bin" --workdir "$out/perfbench" "$@"
