#!/usr/bin/env sh
# Paged-store smoke test: the fast bounded-memory gate. Start prserver
# on the paged backend with an entity set ~17x the buffer pool (512
# entities over 15-slot pages = 35 pages through a 2-frame pool), drive
# uniform counter increments across all of it, and assert:
#
#   1. every acknowledged commit is accounted for (exact sum check —
#      the backend must be correct while evicting constantly);
#   2. the pool actually evicted (the run genuinely ran out-of-core);
#   3. -store mem on the same workload still works (default unharmed).
#
# Run from the repository root:
#
#   ./scripts/smoke_paged.sh
set -eu

workdir=$(mktemp -d)
server_pid=""
trap 'kill "$server_pid" 2>/dev/null || true; rm -rf "$workdir"' EXIT

go build -o "$workdir/prserver" ./cmd/prserver
go build -o "$workdir/prload" ./cmd/prload

start_server() {
    log=$1
    shift
    "$workdir/prserver" -addr 127.0.0.1:0 -accounts 0 "$@" \
        >"$log" 2>&1 &
    server_pid=$!
    addr=""
    for _ in $(seq 1 50); do
        addr=$(sed -n 's/^prserver: listening on \([^ ]*\) .*/\1/p' "$log")
        [ -n "$addr" ] && break
        kill -0 "$server_pid" 2>/dev/null || { cat "$log"; exit 1; }
        sleep 0.1
    done
    [ -n "$addr" ] || { echo "server never came up"; cat "$log"; exit 1; }
}

# Paged run: entity set far beyond the pool.
start_server "$workdir/server_paged.log" \
    -store paged -pool-pages 2 -page-size 128 -entities 512 \
    -heap "$workdir/heap.dat"
echo "paged server on $addr"

"$workdir/prload" -addr "$addr" -workload counter -entities 512 \
    -clients 8 -txns 500 -seed 3 >"$workdir/load_paged.log" 2>&1 || {
    cat "$workdir/load_paged.log"; exit 1; }

COMMITTED=$(sed -n 's/^committed=\([0-9]*\) .*/\1/p' "$workdir/load_paged.log")
[ -n "$COMMITTED" ] && [ "$COMMITTED" -ge 4000 ] || {
    echo "paged run committed only ${COMMITTED:-0} of 4000"; cat "$workdir/load_paged.log"; exit 1; }

# The loader echoes the server's store counters; the run must have hit
# the disk (misses) and recycled frames (evictions) to be a real
# out-of-core test.
grep '^store: paged' "$workdir/load_paged.log" || {
    echo "loader did not report the paged backend"; cat "$workdir/load_paged.log"; exit 1; }
evictions=$(sed -n 's/.* evictions=\([0-9]*\).*/\1/p' "$workdir/load_paged.log")
[ -n "$evictions" ] && [ "$evictions" -gt 0 ] || {
    echo "no evictions: pool (2 pages) somehow held 35 pages"; cat "$workdir/load_paged.log"; exit 1; }

# Exact accounting across the full entity range while the pool churns.
"$workdir/prload" -addr "$addr" -workload counter -entities 512 \
    -verify-sum-min "$COMMITTED"

kill "$server_pid"
wait "$server_pid" 2>/dev/null || true
server_pid=""
grep -q 'store consistent' "$workdir/server_paged.log" || {
    echo "paged server shutdown unclean"; cat "$workdir/server_paged.log"; exit 1; }

# Control: the default memory backend on the same workload.
start_server "$workdir/server_mem.log" -entities 512
echo "mem server on $addr"
"$workdir/prload" -addr "$addr" -workload counter -entities 512 \
    -clients 8 -txns 100 -seed 4 >"$workdir/load_mem.log" 2>&1 || {
    cat "$workdir/load_mem.log"; exit 1; }
if grep -q '^store: paged' "$workdir/load_mem.log"; then
    echo "-store mem reported paged counters"; exit 1
fi
kill "$server_pid"
wait "$server_pid" 2>/dev/null || true
server_pid=""

echo "paged smoke test passed: $COMMITTED commits exact over 512 entities through a 2-page pool ($evictions evictions)"
