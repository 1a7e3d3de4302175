#!/usr/bin/env sh
# Full verification gate: check formatting, build everything, vet, run
# every test with the race detector (the bench/ module included), then
# the micro-benchmark smoke. The node's end-to-end scenarios (10k
# multiplexed streams, out-of-core paging, kill -9 recovery, the admin
# endpoints) are Go tests in internal/node and run in the race pass.
# Run from the repository root:
#
#   ./scripts/check.sh
#
# CI and pre-merge checks should treat any non-zero exit as a failure.
set -eux

test -z "$(gofmt -l .)"
go build ./...
go vet ./...
go test -race -count=1 ./...
(cd bench && go test ./...)

# Micro-benchmarks: one race-enabled iteration each, plus the
# zero-allocation regression tests, so benchmark code cannot rot.
./scripts/bench_smoke.sh
