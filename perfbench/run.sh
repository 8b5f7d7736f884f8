#!/usr/bin/env bash
# Builds the end-to-end benchmark from source and runs it. Run it from the
# root of a hiddensky checkout:
#
#   bash perfbench/run.sh --workload discover_local --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run write (Go build cache, binary, job
# snapshots, span dumps) stays under .bench_build/ in the checkout.
set -euo pipefail

if [[ ! -f go.mod || ! -d internal || ! -f perfbench/go.mod ]]; then
	echo "perfbench: run from the root of a hiddensky checkout (go.mod, internal/ and perfbench/ must be present)" >&2
	exit 2
fi

out="$PWD/.bench_build/perfbench"
mkdir -p "$out/gocache" "$out/gotmp" "$out/gopath"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOPATH="$out/gopath"
export GOFLAGS=-mod=readonly GOPROXY=off GOTOOLCHAIN=local GOWORK=off GOENV=off CGO_ENABLED=0

go -C perfbench build -o "$out/perfbench" .
exec "$out/perfbench" --workdir "$out" "$@"
