#!/usr/bin/env bash
# BENCHMARK.json's command. Run from the repository root:
#
#   bash bench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Builds the benchmark and cmd/prserver from source into .bench_build/
# (build cache, binaries and temp files all stay inside the checkout),
# then runs one measurement; its result is the last line of stdout.
set -euo pipefail

root=$(pwd)
build=$root/.bench_build
mkdir -p "$build/bin" "$build/tmp"
export GOCACHE=$build/gocache TMPDIR=$build/tmp GOTOOLCHAIN=local

go build -C "$root/bench" -o "$build/bin/bench" .
go build -C "$root/bench" -o "$build/bin/prserver" partialrollback/cmd/prserver

exec "$build/bin/bench" -server "$build/bin/prserver" -out "$build/last" "$@"
