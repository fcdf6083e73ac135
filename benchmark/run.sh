#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it with the
# given arguments (see main.go). Everything the build and the run write
# stays under .bench_build/ in the directory it is started from, which
# must be the repository root.
set -euo pipefail
out="$(pwd)/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath" \
	GOTMPDIR="$out/tmp" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly GOWORK=off
(cd benchmark && go build -o "$out/blobseer-benchmark" .)
exec "$out/blobseer-benchmark" "$@"
