#!/usr/bin/env sh
# Benchmark smoke test: run every micro-benchmark exactly once under
# the race detector, plus the allocation regression tests that pin the
# hot path's alloc-freedom (including the StepBurst path, covered by
# TestStepBurstZeroAlloc and BenchmarkStepBurst in internal/core) and
# the registration path's allocation bound (TestRegisterAllocs and
# BenchmarkRegister in internal/core), and the program decoder's
# allocation bound (TestDecodeAllocs and BenchmarkDecodeProgram in
# internal/wire).
# This does not measure anything — it
# proves the benchmark code itself still builds and runs (benchmarks
# are skipped by plain `go test`, so they otherwise rot). Run from the
# repository root:
#
#   ./scripts/bench_smoke.sh
set -eux

go test -race -count=1 -run 'ZeroAlloc|RegisterAllocs|DecodeAllocs' -bench . -benchtime 1x \
    ./internal/lock ./internal/waitfor ./internal/core ./internal/value ./internal/wire

# The entity-store benchmarks (uniform-store construction, paged-pool
# paths), the server's stream round trip and the log's group commit
# live apart from the zero-alloc pins: they allocate by design.
go test -race -count=1 -run 'NONE' -bench . -benchtime 1x ./internal/entity ./internal/server ./internal/durable
