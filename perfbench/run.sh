#!/bin/bash
# Builds cmd/repro and the benchmark from source into .bench_build/ and
# runs one benchmark workload. Run it from the root of the repository:
#
#   bash perfbench/run.sh --workload campaign-cold --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run write stays under .bench_build/.
set -euo pipefail
out="$(pwd)/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" GOFLAGS=-buildvcs=false GOTOOLCHAIN=local
go build -o "$out/repro" ./cmd/repro >&2
go -C perfbench build -o "$out/perfbench" . >&2
export TMPDIR="$out/tmp"
exec "$out/perfbench" -repro "$out/repro" -work "$out/work" "$@"
