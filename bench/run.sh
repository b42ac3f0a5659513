#!/usr/bin/env bash
# Builds the serving benchmark from source and runs it with the given
# arguments. Run from the repository root:
#
#   bash bench/run.sh --workload walk --seed 1 --seconds 20 --trace 0
#
# The build cache and binary live in .bench_build/ under the current
# directory, so the benchmark reads and writes nothing outside the
# checkout. The build fails (and nothing runs) unless the repository's
# own sources sit next to bench/.
set -euo pipefail

root=$(pwd)
build="${CARGO_TARGET_DIR:-.bench_build}"
case "$build" in
/*) ;;
*) build="$root/$build" ;;
esac
mkdir -p "$build/tmp"

export GOCACHE="$build/gocache"
export GOMODCACHE="$build/gomodcache"
export GOPATH="$build/gopath"
export GOTMPDIR="$build/tmp"
export XDG_CONFIG_HOME="$build/config" # the go command's env file and telemetry counters
export GOTOOLCHAIN=local
export GOPROXY=off
export GOFLAGS=

(cd "$root/bench" && go build -o "$build/uniloc-bench" .)
exec "$build/uniloc-bench" "$@"
