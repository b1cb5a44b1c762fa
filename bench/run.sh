#!/bin/sh
# Builds the benchmark from source into .bench_build/ under the current
# directory (the root of a checkout) and runs it with the arguments given.
# Nothing is read or written outside the checkout: the Go build cache,
# the binary, scratch files and span files all live in .bench_build/.
#
#   sh bench/run.sh --workload page_hot --seed 1 --seconds 15 --trace 0
set -eu

out="$(pwd)/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache"
export GOPATH="$out/gopath"
export GOTOOLCHAIN=local GOPROXY=off

go build -o "$out/bench" ./bench
exec "$out/bench" "$@"
