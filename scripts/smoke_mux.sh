#!/usr/bin/env sh
# Stream-multiplexing smoke test. Start a race-enabled prserver, open
# 10,000 concurrent streams over just 4 shared sockets (prload -clients
# 10000 -conns 4), and prove arithmetically that no acknowledged
# commit was lost: each counter commit adds exactly one,
# so after the load sum(e0..eK-1) must be at least the acknowledged
# count. The loader itself fails on any stream that never got a
# terminal reply, so a hung stream — the failure mode multiplexing
# risks — fails the gate, and the race detector watches the server's
# reader/worker-pool/writer handoffs under peak stream concurrency.
#
# The worker cap stays under ThreadSanitizer's ~8k-goroutine limit
# (4 conns x 1500 workers); excess streams queue for a worker, which
# the terminal-reply guarantee must tolerate. Run from the repository
# root:
#
#   ./scripts/smoke_mux.sh
set -eu

CONNS=${CONNS:-4}
STREAMS=${STREAMS:-10000}
COUNTERS=${COUNTERS:-256}

workdir=$(mktemp -d)
server_pid=""
trap 'kill "$server_pid" 2>/dev/null || true; rm -rf "$workdir"' EXIT

go build -race -o "$workdir/prserver" ./cmd/prserver
go build -o "$workdir/prload" ./cmd/prload

"$workdir/prserver" -addr 127.0.0.1:0 -entities "$COUNTERS" -accounts 0 \
    -max-streams 4096 -stream-workers 1500 \
    >"$workdir/server.log" 2>&1 &
server_pid=$!
addr=""
for _ in $(seq 1 50); do
    addr=$(sed -n 's/^prserver: listening on \([^ ]*\) .*/\1/p' "$workdir/server.log")
    [ -n "$addr" ] && break
    kill -0 "$server_pid" 2>/dev/null || { cat "$workdir/server.log"; exit 1; }
    sleep 0.1
done
[ -n "$addr" ] || { echo "server never came up"; cat "$workdir/server.log"; exit 1; }
echo "race-enabled server on $addr"

# One transaction per stream: STREAMS concurrent streams, all in
# flight at once, multiplexed over CONNS sockets.
"$workdir/prload" -addr "$addr" -workload counter -counters "$COUNTERS" \
    -clients "$STREAMS" -conns "$CONNS" -txns 1 -seed 7 \
    | tee "$workdir/load.log"

ACKED=$(sed -n 's/^committed=\([0-9]*\) .*/\1/p' "$workdir/load.log")
[ "$ACKED" = "$STREAMS" ] || {
    echo "acknowledged $ACKED of $STREAMS streams"; exit 1; }
SOCKETS=$(sed -n 's/^sockets=\([0-9]*\) .*/\1/p' "$workdir/load.log")
[ "$SOCKETS" = "$CONNS" ] || {
    echo "load rode $SOCKETS sockets, want $CONNS"; exit 1; }

# Every acknowledged commit must be in the store.
"$workdir/prload" -addr "$addr" -workload counter -counters "$COUNTERS" \
    -verify-sum-min "$ACKED"

# Clean shutdown; any data race would have aborted the server by now.
kill "$server_pid"
wait "$server_pid" 2>/dev/null || true
server_pid=""
grep -q 'store consistent' "$workdir/server.log" || {
    echo "server shutdown unclean"; cat "$workdir/server.log"; exit 1; }
if grep -q 'DATA RACE' "$workdir/server.log"; then
    echo "data race detected"; cat "$workdir/server.log"; exit 1
fi

echo "mux smoke test passed: $ACKED streams over $SOCKETS sockets, zero lost acks"
