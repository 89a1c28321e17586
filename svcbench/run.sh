#!/usr/bin/env bash
# Builds the service benchmark from this checkout and runs it with the
# given arguments, for example:
#
#   bash svcbench/run.sh --workload interactive --seed 1 --seconds 10 --trace 0
#
# Run it from the root of the repository. Build outputs, the Go build cache
# and the run reports stay under .bench_build/ and .bench_out/ there.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/home" "$build/tmp"
export HOME="$build/home" XDG_CONFIG_HOME="$build/home" XDG_CACHE_HOME="$build/home"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export GOTOOLCHAIN=local GOPROXY=off

(cd "$root/svcbench" && go build -o "$build/svcbench" .)
exec "$build/svcbench" "$@"
