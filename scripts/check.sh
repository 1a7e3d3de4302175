#!/usr/bin/env sh
# Full verification gate: check formatting, build everything, vet, run
# every test with the race detector (the bench/ module included), run
# every example, then the micro-benchmark smoke. The node's end-to-end
# scenarios (10k multiplexed streams, out-of-core paging, kill -9
# recovery, the admin endpoints) are Go tests in internal/node and run
# in the race pass.
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

# Examples: each must run to completion (all seven take about a second).
# examples/network exits non-zero unless the ordered node reports 0
# deadlocks and 0 aborts.
for ex in examples/*; do
	go run "./$ex" >/dev/null
done

# Micro-benchmarks: one race-enabled iteration each, plus the
# zero-allocation regression tests, so benchmark code cannot rot.
./scripts/bench_smoke.sh
