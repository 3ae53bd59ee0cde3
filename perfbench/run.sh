#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it is run in and
# runs it with the given arguments. Run it from the repository root:
#
#   bash perfbench/run.sh --workload bulk --seed 1 --seconds 30 --trace 0
#
# Every build product, the Go build cache and the compiler's temporary
# files included, stays under .bench_build/ in the checkout.
set -euo pipefail
out="$PWD/.bench_build"
mkdir -p "$out/tmp"
# /usr/local/go is where the go.dev installer puts the toolchain.
command -v go >/dev/null || PATH="$PATH:/usr/local/go/bin"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" GOENV=off \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS= CGO_ENABLED=0
go -C perfbench build -o "$out/perfbench" .
exec "$out/perfbench" "$@"
