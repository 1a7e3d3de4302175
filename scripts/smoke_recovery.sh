#!/usr/bin/env sh
# Crash-recovery smoke test: the durability acceptance gate. Start
# prserver with a WAL, drive acknowledged counter increments at it,
# kill -9 the server mid-load, restart it over the same log directory,
# and prove arithmetically that every acknowledged commit survived:
# each counter commit adds exactly one, so sum(e0..eK-1) after recovery
# must be at least the loader's acknowledged-commit count (retries and
# unacknowledged in-flight commits can only push the sum higher).
# Run from the repository root:
#
#   ./scripts/smoke_recovery.sh
set -eu

workdir=$(mktemp -d)
server_pid=""
trap 'kill "$server_pid" 2>/dev/null || true; rm -rf "$workdir"' EXIT

go build -o "$workdir/prserver" ./cmd/prserver
go build -o "$workdir/prload" ./cmd/prload

WAL="$workdir/wal"

start_server() {
    log=$1
    shift
    "$workdir/prserver" -addr 127.0.0.1:0 -entities 16 -accounts 0 \
        -shards 2 \
        -wal "$WAL" -fsync group -group-window 2ms -group-max 64 \
        "$@" \
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

# Phase 1: load, then die without warning. -attempts 1 and -bail keep
# the acknowledged-commit count exact: no client ever retries a
# transaction whose first attempt might already have committed.
start_server "$workdir/server1.log"
echo "server 1 on $addr (wal=$WAL)"

"$workdir/prload" -addr "$addr" -workload counter -counters 8 \
    -clients 8 -txns 4000 -attempts 1 -bail -seed 7 \
    >"$workdir/load.log" 2>&1 &
load_pid=$!

sleep 2
kill -9 "$server_pid"
wait "$load_pid" 2>/dev/null || true  # the loader dies with the server
wait "$server_pid" 2>/dev/null || true
server_pid=""

ACKED=$(sed -n 's/^committed=\([0-9]*\) .*/\1/p' "$workdir/load.log")
[ -n "$ACKED" ] || { echo "loader report missing"; cat "$workdir/load.log"; exit 1; }
if [ "$ACKED" -lt 100 ]; then
    echo "only $ACKED acknowledged commits before the crash; not a meaningful test"
    cat "$workdir/load.log"
    exit 1
fi
echo "killed server 1 with $ACKED acknowledged commits"

# Phase 2: restart over the same log directory. Recovery must replay
# the log (truncating any torn tail) and the recovered counters must
# account for every acknowledged commit.
start_server "$workdir/server2.log"
echo "server 2 on $addr"

grep '^prserver: wal: recovered' "$workdir/server2.log" || {
    echo "server 2 did not report recovery"; cat "$workdir/server2.log"; exit 1; }
if grep -q 'WARNING: mid-log corruption' "$workdir/server2.log"; then
    echo "recovery reported corruption beyond a torn tail"
    cat "$workdir/server2.log"
    exit 1
fi

"$workdir/prload" -addr "$addr" -workload counter -counters 8 \
    -verify-sum-min "$ACKED"

# Phase 3: clean shutdown and a final recovery over the clean log —
# no torn tail this time, same verified sum.
kill "$server_pid"
wait "$server_pid" 2>/dev/null || true
server_pid=""
grep -q 'store consistent' "$workdir/server2.log" || {
    echo "server 2 shutdown unclean"; cat "$workdir/server2.log"; exit 1; }

start_server "$workdir/server3.log"
echo "server 3 on $addr"
"$workdir/prload" -addr "$addr" -workload counter -counters 8 \
    -verify-sum-min "$ACKED"
kill "$server_pid"
wait "$server_pid" 2>/dev/null || true
server_pid=""

# Phase 4: checkpointed crash rounds. The server now takes fuzzy
# checkpoints every 120ms with -checkpoint-phase-delay widening every
# crash window (post-rotation, between the checkpoint temp file's
# fsync and its rename, post-publication, and between the retention
# pass's removals), so repeated kill -9s land inside in-progress
# checkpoints and mid-truncation. The acknowledged-commit bound must
# keep holding across every round: recovery = checkpoint base + log
# tail, and neither a torn checkpoint nor a half-finished compaction
# may lose an acknowledged increment.
TOTAL=$ACKED
round=0
while [ "$round" -lt 3 ]; do
    round=$((round + 1))
    start_server "$workdir/server_ckpt$round.log" \
        -checkpoint-interval 120ms -retain 2 -checkpoint-phase-delay 30ms
    echo "checkpoint round $round on $addr"

    "$workdir/prload" -addr "$addr" -workload counter -counters 8 \
        -clients 8 -txns 4000 -attempts 1 -bail -seed $((20 + round)) \
        >"$workdir/load_ckpt$round.log" 2>&1 &
    load_pid=$!
    sleep 2
    kill -9 "$server_pid"
    wait "$load_pid" 2>/dev/null || true
    wait "$server_pid" 2>/dev/null || true
    server_pid=""

    acked_round=$(sed -n 's/^committed=\([0-9]*\) .*/\1/p' "$workdir/load_ckpt$round.log")
    [ -n "$acked_round" ] || { echo "round $round loader report missing"; cat "$workdir/load_ckpt$round.log"; exit 1; }
    TOTAL=$((TOTAL + acked_round))
    echo "killed checkpoint round $round with $acked_round more acknowledged commits (total $TOTAL)"

    grep -q '^prserver: checkpoint: wrote' "$workdir/server_ckpt$round.log" || {
        echo "round $round never completed a checkpoint (interval too long for the load window?)"
        cat "$workdir/server_ckpt$round.log"; exit 1; }

    # Restart plainly (no checkpointer) and verify the durable sum.
    start_server "$workdir/server_verify$round.log"
    if grep -q 'WARNING: mid-log corruption\|WARNING: skipped invalid checkpoint' "$workdir/server_verify$round.log"; then
        echo "round $round recovery reported corruption"
        cat "$workdir/server_verify$round.log"; exit 1
    fi
    "$workdir/prload" -addr "$addr" -workload counter -counters 8 \
        -verify-sum-min "$TOTAL"
    kill "$server_pid"
    wait "$server_pid" 2>/dev/null || true
    server_pid=""
done

# The last verify server must have recovered from a checkpoint base
# (bounded recovery), and compaction must have kept the directory
# bounded: at most -retain + 1 checkpoints (one may be mid-publication
# at the kill) and a small number of log segments.
grep -q 'wal: checkpoint base' "$workdir/server_verify3.log" || {
    echo "final recovery did not use a checkpoint base"
    cat "$workdir/server_verify3.log"; exit 1; }
ckpts=$(ls "$WAL" | grep -c '^ckpt-.*\.ckpt$' || true)
files=$(ls "$WAL" | wc -l)
if [ "$ckpts" -gt 3 ] || [ "$files" -gt 48 ]; then
    echo "log directory unbounded: $ckpts checkpoints, $files files"
    ls -l "$WAL"; exit 1
fi
echo "checkpoint rounds passed: dir holds $ckpts checkpoint(s), $files file(s)"

# Phase 5: one checkpointed crash round against -store paged. The heap
# file is a spill area, so a kill -9 landing mid-flush (the phase delay
# widens the checkpoint's flush-all window) must not matter: recovery
# is checkpoint base + WAL tail into a fresh paged store, same
# arithmetic bound. The entity set (64 over 15-slot pages) is ~16x the
# 2-frame pool, so the round evicts and faults throughout.
start_server "$workdir/server_paged.log" \
    -store paged -pool-pages 2 -page-size 128 -entities 64 \
    -checkpoint-interval 120ms -retain 2 -checkpoint-phase-delay 30ms
echo "paged round on $addr"
grep -q 'store: paged backend' "$workdir/server_paged.log" || {
    echo "server did not come up on the paged backend"; cat "$workdir/server_paged.log"; exit 1; }

"$workdir/prload" -addr "$addr" -workload counter -entities 64 \
    -clients 8 -txns 4000 -attempts 1 -bail -seed 31 \
    >"$workdir/load_paged.log" 2>&1 &
load_pid=$!
sleep 2
kill -9 "$server_pid"
wait "$load_pid" 2>/dev/null || true
wait "$server_pid" 2>/dev/null || true
server_pid=""

acked_paged=$(sed -n 's/^committed=\([0-9]*\) .*/\1/p' "$workdir/load_paged.log")
[ -n "$acked_paged" ] || { echo "paged loader report missing"; cat "$workdir/load_paged.log"; exit 1; }
TOTAL=$((TOTAL + acked_paged))
echo "killed paged round with $acked_paged more acknowledged commits (total $TOTAL)"

start_server "$workdir/server_paged_verify.log" \
    -store paged -pool-pages 2 -page-size 128 -entities 64
if grep -q 'WARNING: mid-log corruption\|WARNING: skipped invalid checkpoint' "$workdir/server_paged_verify.log"; then
    echo "paged recovery reported corruption"
    cat "$workdir/server_paged_verify.log"; exit 1
fi
"$workdir/prload" -addr "$addr" -workload counter -entities 64 \
    -verify-sum-min "$TOTAL"
kill "$server_pid"
wait "$server_pid" 2>/dev/null || true
server_pid=""
grep -q 'store consistent' "$workdir/server_paged_verify.log" || {
    echo "paged verify server shutdown unclean"; cat "$workdir/server_paged_verify.log"; exit 1; }

echo "recovery smoke test passed: $TOTAL acknowledged commits survived kill -9 (incl. 3 checkpointed rounds + 1 paged round)"
