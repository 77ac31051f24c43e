#!/usr/bin/env bash
# Builds the benchmark from the checkout's source and runs it. Everything
# the build writes (Go's build cache included) stays under .bench_build/
# in the checkout; the benchmark itself runs with an empty environment,
# so no variable of the caller's can reach the program under test.
set -euo pipefail
cd "$(dirname "$0")/.."
out="$PWD/.bench_build"
mkdir -p "$out/config/go/telemetry"
# With telemetry in its default mode the go command detaches a child of
# its own that outlives it; the mode file under XDG_CONFIG_HOME turns
# that off, so go build starts nothing it does not wait for.
echo off >"$out/config/go/telemetry/mode"
env GOCACHE="$out/go-cache" GOPATH="$out/go-path" XDG_CONFIG_HOME="$out/config" \
	GOFLAGS=-mod=mod GOTOOLCHAIN=local GOPROXY=off \
	go build -o "$out/benchmark" ./benchmark
exec env -i "$out/benchmark" "$@"
