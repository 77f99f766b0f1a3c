#!/usr/bin/env bash
# Entry point named by BENCHMARK.json: builds the benchmark from source into
# .bench_build/ and runs it with the arguments given. Go's build cache,
# module path, temporary files and per-user config directory (telemetry
# counters) are pointed there too, so nothing is written outside the
# checkout. Run from the repository root, as `go run ./benchmark` is.
#
# Go telemetry is switched off in that config directory before the first
# `go` call: with a fresh config directory the go command otherwise spawns a
# detached telemetry sidecar (its own session, reparented to init) that can
# outlive a quick or failed build, and the benchmark must leave no process
# behind on any path out of it.
set -euo pipefail
if [ ! -f go.mod ] || [ ! -f benchmark/main.go ]; then
    echo "benchmark/run.sh: run from the root of a bepi checkout (go.mod not found)" >&2
    exit 2
fi
build="$PWD/.bench_build"
mkdir -p "$build/tmp" "$build/config/go/telemetry"
echo off > "$build/config/go/telemetry/mode"
export GOCACHE="$build/go-cache" GOPATH="$build/go-path" GOTMPDIR="$build/tmp" GOTOOLCHAIN=local
XDG_CONFIG_HOME="$build/config" go build -o "$build/bepi-benchmark" ./benchmark
exec "$build/bepi-benchmark" "$@"
