#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository
# root:
#
#   bash perfbench/run.sh --workload serve|recover|table1 --seed N --seconds S --trace 0|1
#
# Everything the build and the run write stays under the build directory
# ($CARGO_TARGET_DIR, default .bench_build): the Go build cache, the
# binary, checkpoint scratch directories and span dumps.
set -euo pipefail

root=$(pwd)
build=${CARGO_TARGET_DIR:-.bench_build}
case $build in
/*) ;;
*) build=$root/$build ;;
esac
mkdir -p "$build/home"

export GOCACHE=$build/gocache GOMODCACHE=$build/gomodcache GOPATH=$build/gopath
export HOME=$build/home XDG_CONFIG_HOME=$build/home/.config XDG_CACHE_HOME=$build/home/.cache
export GOTOOLCHAIN=local GOWORK=off GOPROXY=off CGO_ENABLED=0

# Build diagnostics go to stderr: the last line of stdout is the result.
go -C perfbench build -o "$build/perfbench" . >&2
export CARGO_TARGET_DIR=$build
exec "$build/perfbench" "$@"
