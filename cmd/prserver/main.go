// Command prserver serves the partial-rollback engine over TCP using
// the wire protocol in internal/wire. Clients (internal/client, as
// bench/ drives it) ship whole transaction programs; the engine's
// Register takes each program's locks first, in entity-ID order
// (core.Config.OrderLocks), so no transaction can deadlock; a
// transaction aborted at its deadline or at shutdown is rolled back and
// its stream answered with a retryable error. internal/node assembles
// the node; this command parses its flags and handles signals.
//
// The database is a uniform store of -entities entities "e0".."eN-1"
// initialized to -init, plus -accounts bank accounts "acct0".."acctM-1"
// initialized to -balance with a sum-invariant.
//
// Usage:
//
//	prserver -addr :7415 -entities 64 -accounts 16 -max-sessions 128
//
// With -admin ADDR an HTTP admin endpoint additionally serves
// Prometheus/JSON metrics (/metrics), the live wait-for-graph inspector
// (/debug/waitfor, JSON or Graphviz DOT), the active-transaction table
// (/debug/txns), the transaction tracer (-trace N, /debug/trace), and
// net/http/pprof (/debug/pprof/).
//
// SIGINT/SIGTERM trigger a graceful shutdown: in-flight transactions
// get -drain-timeout to commit, the rest are rolled back to their
// initial states, and the final counter snapshot is printed.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"syscall"
	"time"

	"partialrollback/internal/node"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("prserver: ")
	cfg := node.Defaults()
	flag.StringVar(&cfg.Addr, "addr", cfg.Addr, "listen address")
	flag.IntVar(&cfg.Entities, "entities", cfg.Entities, "number of uniform entities e0..eN-1")
	flag.Int64Var(&cfg.Init, "init", cfg.Init, "initial value of each uniform entity")
	flag.IntVar(&cfg.Accounts, "accounts", cfg.Accounts, "number of bank accounts acct0..acctM-1 (0 disables)")
	flag.Int64Var(&cfg.Balance, "balance", cfg.Balance, "initial balance per account")
	flag.IntVar(&cfg.MaxSessions, "max-sessions", cfg.MaxSessions, "maximum concurrent sessions")
	flag.IntVar(&cfg.Backlog, "backlog", cfg.Backlog, "connections allowed to wait for a session slot")
	flag.DurationVar(&cfg.RequestTimeout, "request-timeout", cfg.RequestTimeout, "per-transaction execution deadline")
	flag.DurationVar(&cfg.IdleTimeout, "idle-timeout", cfg.IdleTimeout, "per-message read deadline")
	drain := flag.Duration("drain-timeout", 10*time.Second, "graceful-shutdown drain budget")
	flag.IntVar(&cfg.MaxStreams, "max-streams", cfg.MaxStreams, "maximum concurrently active streams per connection (excess streams are refused with the retryable BUSY)")
	flag.StringVar(&cfg.WAL, "wal", cfg.WAL, "write-ahead log directory: commits are durable and replayed on restart (empty = memory only)")
	flag.StringVar(&cfg.Fsync, "fsync", cfg.Fsync, "wal fsync discipline: always (fsync per commit) | group (batched fsync) | off (write-through, no fsync)")
	flag.DurationVar(&cfg.CheckpointInterval, "checkpoint-interval", cfg.CheckpointInterval, "take a checkpoint (snapshot + log compaction) this often; 0 disables the time trigger (requires -wal)")
	flag.Int64Var(&cfg.CheckpointBytes, "checkpoint-bytes", cfg.CheckpointBytes, "take a checkpoint once this many new log bytes accumulate; 0 disables the byte trigger (requires -wal)")
	flag.IntVar(&cfg.Retain, "retain", cfg.Retain, "checkpoints kept on disk; sealed log segments are deleted only once the oldest retained checkpoint covers them")
	flag.StringVar(&cfg.Store, "store", cfg.Store, "entity store backend: mem (dense in-RAM slices) | paged (heap file + bounded buffer pool; the entity set may exceed RAM)")
	flag.IntVar(&cfg.PoolPages, "pool-pages", cfg.PoolPages, "buffer-pool capacity in pages (-store paged); RAM for entity values is bounded by about page-size*pool-pages plus pages pinned by active transactions")
	flag.IntVar(&cfg.PageSize, "page-size", cfg.PageSize, "heap-file page size in bytes (-store paged)")
	flag.StringVar(&cfg.Heap, "heap", cfg.Heap, "heap file path (-store paged); default <wal-dir>/heap.dat, or a temp file (removed at exit) without -wal. Truncated at startup: the heap is a spill area, state is rebuilt from checkpoint + WAL")
	flag.StringVar(&cfg.Admin, "admin", cfg.Admin, "admin HTTP listen address serving /metrics, /debug/waitfor, /debug/txns and pprof (empty disables)")
	flag.IntVar(&cfg.Trace, "trace", cfg.Trace, "enable transaction tracing, retaining the last N completed traces (0 disables; requires -admin)")
	flag.BoolVar(&cfg.Verbose, "v", cfg.Verbose, "log per-session diagnostics")
	flag.Parse()

	// Install the handler before serving: a SIGINT that arrives right
	// after the first reply must take the shutdown path, not kill us.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	n, err := node.Start(cfg)
	if err != nil {
		log.Fatal(err)
	}
	wal := "off"
	if cfg.WAL != "" {
		wal = fmt.Sprintf("%s(fsync=%s)", cfg.WAL, cfg.Fsync)
	}
	log.Printf("listening on %s (entities=%d accounts=%d wal=%s store=%s)",
		n.Addr(), cfg.Entities, cfg.Accounts, wal, cfg.Store)
	if a := n.AdminAddr(); a != "" {
		log.Printf("admin on http://%s (metrics, debug/waitfor, debug/txns, pprof; trace=%v)", a, cfg.Trace > 0)
	}

	<-sig
	log.Printf("shutting down (drain %v)...", *drain)
	ctx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	err = n.Shutdown(ctx)
	fmt.Println("final counters:")
	for _, c := range n.Counters() {
		fmt.Printf("  %-18s %d\n", c.Name, c.Val)
	}
	if err != nil {
		log.Fatal(err)
	}
	log.Printf("store consistent; bye")
}
