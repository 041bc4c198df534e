#!/usr/bin/env bash
# Builds the benchmark from source into bench/out/.build/ and runs it
# from the repository root, where BENCHMARK.json and go.mod are, with the
# arguments given. Go's build cache, its temporary work directory and its
# per-user config directory (telemetry counters) are put there too, so
# nothing is written outside the checkout; the leading dot keeps the
# directory out of ./... patterns. Telemetry is switched off in that config
# directory before the first go command: with a fresh one the go command
# would otherwise detach an upload sidecar process that outlives the run.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
out="$PWD/bench/out/.build"
mkdir -p "$out/tmp" "$out/config/go/telemetry"
echo off >"$out/config/go/telemetry/mode"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local
go build -o "$out/overlaybench" ./bench
exec "$out/overlaybench" "$@"
