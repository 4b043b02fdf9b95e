#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository root:
#
#   bash perfbench/run.sh --workload serve-cold --seed 1 --seconds 10 --trace 0
#
# Build outputs, the Go build cache, scratch stores and span files all live
# under $CARGO_TARGET_DIR (default .bench_build), so a run writes nothing
# outside the checkout. Without the repository around this directory the
# build fails and the script exits non-zero without printing a result.
set -euo pipefail

root=$(pwd)
work=${CARGO_TARGET_DIR:-.bench_build}
case $work in /*) ;; *) work=$root/$work ;; esac
mkdir -p "$work/tmp"

# XDG_CONFIG_HOME keeps the go command's own files (telemetry counters) in
# the work directory too.
export GOCACHE=$work/gocache GOPATH=$work/gopath TMPDIR=$work/tmp \
	XDG_CONFIG_HOME=$work/config GOTOOLCHAIN=local
(cd perfbench && go build -o "$work/perfbench" .)
exec "$work/perfbench" -workdir "$work" "$@"
