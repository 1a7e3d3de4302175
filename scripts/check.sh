#!/usr/bin/env sh
# Full verification gate: check formatting, build everything, vet, run
# every test with the race detector (the bench/ module included), then
# each end-to-end smoke script once. Run from the repository root:
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

# 10k concurrent streams over 4 sockets against a race-enabled server,
# with an arithmetic zero-lost-acks check.
./scripts/smoke_mux.sh

# Out-of-core: a paged-backend server over an entity set ~17x its
# buffer pool must evict throughout and still account for every
# acknowledged commit exactly.
./scripts/smoke_paged.sh

# Crash recovery: kill -9 a WAL-backed prserver mid-load (including
# rounds inside in-progress checkpoints and against -store paged),
# restart it over the same log, and verify by arithmetic that every
# acknowledged commit survived.
./scripts/smoke_recovery.sh

# Observability: start prserver with -admin and assert the metrics,
# wait-for-graph and transaction-table endpoints really serve (needs
# curl; skipped where unavailable).
if command -v curl >/dev/null 2>&1; then
    ./scripts/smoke_obs.sh
else
    echo "curl not found; skipping obs smoke test"
fi
