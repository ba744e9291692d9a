#!/usr/bin/env bash
# Builds the benchmark driver from the checkout's sources and runs it
# with the given arguments, for example:
#
#   bash perfbench/run.sh --workload price-file --seed 1 --seconds 15 --trace 0
#
# Run it from the root of a checkout. Every file the build and the run
# write (Go build cache, the binary, temporary traces and stores) stays
# under .bench_build/ in that checkout.
set -euo pipefail

root=$(pwd)
src=$(cd "$(dirname "$0")" && pwd)
out=$root/.bench_build
mkdir -p "$out/tmp"

export GOCACHE="$out/gocache"
export GOMODCACHE="$out/gomodcache"
export XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local
export GOPROXY=off
export GOFLAGS=
export TMPDIR="$out/tmp"

(cd "$src" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
