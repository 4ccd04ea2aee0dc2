#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments.
# Everything the Go toolchain writes (build cache, temp files, telemetry)
# goes under .bench_build in the directory the script is called from, so a
# run touches nothing outside its checkout.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="$PWD/.bench_build"
mkdir -p "$out/tmp"

export GOCACHE="$out/go-cache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/config" XDG_CACHE_HOME="$out/cache"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS= CGO_ENABLED=0

go build -C "$here" -o "$out/imitator-benchmark" .
exec "$out/imitator-benchmark" "$@"
