// Command prserver serves the partial-rollback engine over TCP using
// the wire protocol in internal/wire. Clients (cmd/prload, or any
// internal/client user) ship whole transaction programs; the server
// executes them with partial-rollback deadlock removal and streams
// every rollback back as a notification.
//
// The database is a uniform store of -entities entities "e0".."eN-1"
// initialized to -init, plus -accounts bank accounts "acct0".."acctM-1"
// initialized to -balance with a sum-invariant (so both prload
// workloads can run against one server).
//
// Usage:
//
//	prserver -addr :7415 -strategy sdg -policy ordered-min-cost \
//	         -entities 64 -accounts 16 -max-sessions 128
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
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"syscall"
	"time"

	"partialrollback/internal/checkpoint"
	"partialrollback/internal/core"
	"partialrollback/internal/deadlock"
	"partialrollback/internal/durable"
	"partialrollback/internal/entity"
	"partialrollback/internal/intern"
	"partialrollback/internal/obs"
	"partialrollback/internal/server"
	"partialrollback/internal/shard"
	"partialrollback/internal/txn"
)

var (
	addr        = flag.String("addr", "127.0.0.1:7415", "listen address")
	strategy    = flag.String("strategy", "mcs", "rollback strategy: total|mcs|sdg|hybrid")
	policy      = flag.String("policy", "ordered-min-cost", "victim policy: min-cost|ordered-min-cost|requester|youngest-victim|greedy")
	entities    = flag.Int("entities", 64, "number of uniform entities e0..eN-1")
	initVal     = flag.Int64("init", 0, "initial value of each uniform entity")
	accounts    = flag.Int("accounts", 16, "number of bank accounts acct0..acctM-1 (0 disables)")
	balance     = flag.Int64("balance", 100, "initial balance per account")
	maxSessions = flag.Int("max-sessions", 256, "maximum concurrent sessions")
	backlog     = flag.Int("backlog", 32, "connections allowed to wait for a session slot")
	reqTimeout  = flag.Duration("request-timeout", 30*time.Second, "per-transaction execution deadline")
	idleTimeout = flag.Duration("idle-timeout", 2*time.Minute, "per-message read deadline")
	drain       = flag.Duration("drain-timeout", 10*time.Second, "graceful-shutdown drain budget")
	shards      = flag.Int("shards", 1, "engine shards (1 = single engine; >1 partitions the lock/wait-for/detection core)")
	maxStreams  = flag.Int("max-streams", 4096, "maximum concurrently active streams per connection (excess streams are refused with the retryable BUSY)")
	strmWorkers = flag.Int("stream-workers", 0, "per-connection worker pool bound for streams (0 = max-streams)")
	walDir      = flag.String("wal", "", "write-ahead log directory: commits are durable and replayed on restart (empty = memory only)")
	fsyncMode   = flag.String("fsync", "group", "wal fsync discipline: always (fsync per commit) | group (batched fsync) | off (write-through, no fsync)")
	groupWindow = flag.Duration("group-window", 2*time.Millisecond, "group-commit collection window (-fsync group only)")
	groupMax    = flag.Int("group-max", 64, "flush a commit group early once this many commits are pending")
	fsyncDelay  = flag.Duration("fsync-delay", 0, "benchmark knob: artificial latency added after every fsync, modeling slower stable storage (0 disables)")
	ckptIval    = flag.Duration("checkpoint-interval", 0, "take a checkpoint (snapshot + log compaction) this often; 0 disables the time trigger (requires -wal)")
	ckptBytes   = flag.Int64("checkpoint-bytes", 0, "take a checkpoint once this many new log bytes accumulate; 0 disables the byte trigger (requires -wal)")
	ckptRetain  = flag.Int("retain", 2, "checkpoints kept on disk; sealed log segments are deleted only once the oldest retained checkpoint covers them")
	ckptDelay   = flag.Duration("checkpoint-phase-delay", 0, "test knob: sleep between checkpoint phases (rotation, temp fsync, publication, removals) so a kill can land inside any crash window (0 disables)")
	storeKind   = flag.String("store", "mem", "entity store backend: mem (dense in-RAM slices) | paged (heap file + bounded buffer pool; the entity set may exceed RAM)")
	poolPages   = flag.Int("pool-pages", 64, "buffer-pool capacity in pages (-store paged); RAM for entity values is bounded by about page-size*pool-pages plus pages pinned by active transactions")
	pageSize    = flag.Int("page-size", 4096, "heap-file page size in bytes (-store paged)")
	heapPath    = flag.String("heap", "", "heap file path (-store paged); default <wal-dir>/heap.dat, or a file under the OS temp dir without -wal. Truncated at startup: the heap is a spill area, state is rebuilt from checkpoint + WAL")
	admin       = flag.String("admin", "", "admin HTTP listen address serving /metrics, /debug/waitfor, /debug/txns and pprof (empty disables)")
	traceCap    = flag.Int("trace", 0, "enable transaction tracing, retaining the last N completed traces (0 disables; requires -admin)")
	verbose     = flag.Bool("v", false, "log per-session diagnostics")
)

func parseStrategy(s string) (core.Strategy, error) {
	switch s {
	case "total":
		return core.Total, nil
	case "mcs":
		return core.MCS, nil
	case "sdg":
		return core.SDG, nil
	case "hybrid":
		return core.Hybrid, nil
	}
	return 0, fmt.Errorf("unknown strategy %q", s)
}

func parsePolicy(s string) (deadlock.Policy, error) {
	switch s {
	case "min-cost":
		return deadlock.MinCost{}, nil
	case "ordered-min-cost":
		return deadlock.OrderedMinCost{}, nil
	case "requester":
		return deadlock.Requester{}, nil
	case "youngest-victim":
		return deadlock.Oldest{}, nil
	case "greedy":
		return deadlock.Greedy{}, nil
	}
	return nil, fmt.Errorf("unknown policy %q", s)
}

func buildStore(onMiss func(ns int64)) (*entity.Store, error) {
	var store *entity.Store
	switch *storeKind {
	case "mem":
		store = entity.NewUniformStore("e", *entities, *initVal)
	case "paged":
		path := *heapPath
		if path == "" {
			if *walDir != "" {
				path = filepath.Join(*walDir, "heap.dat")
			} else {
				path = filepath.Join(os.TempDir(), fmt.Sprintf("prserver-heap-%d.dat", os.Getpid()))
			}
		}
		var err error
		store, err = entity.NewUniformPagedStore("e", *entities, *initVal, entity.PagedConfig{
			Path:      path,
			PageSize:  *pageSize,
			PoolPages: *poolPages,
			OnMiss:    onMiss,
		})
		if err != nil {
			return nil, err
		}
		log.Printf("store: paged backend (heap=%s page-size=%d pool-pages=%d, ~%d entities/page)",
			path, *pageSize, *poolPages, *pageSize*8/65)
	default:
		return nil, fmt.Errorf("unknown -store %q (want mem or paged)", *storeKind)
	}
	if *accounts > 0 {
		names := make([]string, *accounts)
		for i := range names {
			names[i] = fmt.Sprintf("acct%d", i)
			store.Define(names[i], *balance)
		}
		store.AddConstraint(entity.SumConstraint(
			"balance-sum", int64(*accounts)*(*balance), names...))
	}
	return store, nil
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("prserver: ")
	flag.Parse()

	st, err := parseStrategy(*strategy)
	if err != nil {
		log.Fatal(err)
	}
	pol, err := parsePolicy(*policy)
	if err != nil {
		log.Fatal(err)
	}

	if *shards < 1 {
		log.Fatalf("-shards must be >= 1 (got %d)", *shards)
	}

	// The metrics registry exists before the store so the paged
	// backend's read-miss histogram can observe faults from the first
	// recovery replay onward.
	var registry *obs.Registry
	var onMiss func(ns int64)
	if *admin != "" {
		registry = obs.NewRegistry()
		missDur := registry.NewDurationHistogram("pr_store_read_miss_seconds",
			"Wall time of each buffer-pool read miss (victim selection + flush-before-evict + page read).",
			[]time.Duration{
				time.Microsecond, 5 * time.Microsecond, 10 * time.Microsecond,
				25 * time.Microsecond, 50 * time.Microsecond, 100 * time.Microsecond,
				250 * time.Microsecond, time.Millisecond, 10 * time.Millisecond,
			})
		onMiss = func(ns int64) { missDur.Observe(time.Duration(ns)) }
	}
	store, err := buildStore(onMiss)
	if err != nil {
		log.Fatal(err)
	}
	cfg := server.Config{
		Store:          store,
		Strategy:       st,
		Policy:         pol,
		MaxSessions:    *maxSessions,
		Backlog:        *backlog,
		RequestTimeout: *reqTimeout,
		IdleTimeout:    *idleTimeout,
		Shards:         *shards,
		MaxStreams:     *maxStreams,
		StreamWorkers:  *strmWorkers,
	}
	if *verbose {
		cfg.Logf = log.Printf
	}

	// Observability: the collector and tracer are chained onto the
	// engine's event stream before the server is built, so every event
	// from the first registration onward is counted.
	var (
		collector *obs.Collector
		tracer    *obs.Tracer
	)
	if *admin != "" {
		collector = obs.NewCollector(registry)
		cfg.OnEvent = collector.OnEvent
		cfg.LockWait = collector.ObserveLockWait
		if *traceCap > 0 {
			tracer = obs.NewTracer(*traceCap)
			tracer.SetEnabled(true)
			cfg.OnEvent = func(e core.Event) {
				collector.OnEvent(e)
				tracer.OnEvent(e)
			}
		}
	}

	// Durability: recovery must run before the server is built so the
	// engine interns the recovered store, and the WAL metrics hook onto
	// the registry created above.
	var (
		walSet  *durable.Set
		recInfo *durable.RecoveryInfo
	)
	if *walDir != "" {
		mode, err := durable.ParseSyncMode(*fsyncMode)
		if err != nil {
			log.Fatal(err)
		}
		opts := durable.Options{Mode: mode, Window: *groupWindow, MaxBatch: *groupMax, SyncDelay: *fsyncDelay}
		if *groupWindow <= 0 {
			opts.Window = -1
		}
		if registry != nil {
			appends := registry.NewCounter("pr_wal_appends_total", "Log records made durable.")
			batches := registry.NewCounter("pr_wal_fsync_batches_total", "Durable flush batches (fsyncs, unless -fsync off).")
			groupSize := registry.NewHistogram("pr_wal_group_commit_size",
				"Write-commits per durable flush batch.",
				[]int64{1, 2, 4, 8, 16, 32, 64, 128})
			syncDur := registry.NewDurationHistogram("pr_wal_fsync_seconds",
				"Wall time of each batch fsync.",
				[]time.Duration{
					100 * time.Microsecond, 250 * time.Microsecond, 500 * time.Microsecond,
					time.Millisecond, 2500 * time.Microsecond, 5 * time.Millisecond,
					10 * time.Millisecond, 25 * time.Millisecond, 50 * time.Millisecond,
				})
			opts.OnFlush = func(fi durable.FlushInfo) {
				appends.Add(int64(fi.Records))
				batches.Inc()
				groupSize.Observe(int64(fi.Commits))
				syncDur.Observe(fi.SyncDuration)
			}
		}
		set, rec, err := durable.Open(*walDir, *shards, cfg.Store, opts)
		if err != nil {
			log.Fatal(err)
		}
		walSet = set
		recInfo = rec
		log.Printf("wal: recovered %d records (%d entities) from %d file(s) in %s (max seq %d)",
			rec.Records, rec.Applied, rec.Files, *walDir, rec.MaxSeq)
		if rec.CheckpointFile != "" {
			log.Printf("wal: checkpoint base %s (frontier %d, %d entities); replayed tail of %d record(s)",
				rec.CheckpointFile, rec.CheckpointSeq, rec.CheckpointEntities, rec.TailRecords)
		}
		log.Printf("wal: recovery took %s", rec.Duration)
		if len(rec.SkippedCheckpoints) > 0 {
			log.Printf("wal: WARNING: skipped invalid checkpoint(s) %v (storage damage, not an ordinary crash)", rec.SkippedCheckpoints)
		}
		if rec.TornFiles > 0 || rec.TruncatedBytes > 0 {
			log.Printf("wal: truncated %d torn file tail(s), %d bytes discarded", rec.TornFiles, rec.TruncatedBytes)
		}
		if len(rec.CorruptFiles) > 0 {
			log.Printf("wal: WARNING: mid-log corruption (not a torn tail) in %v; later records were discarded", rec.CorruptFiles)
		}
		if err := cfg.Store.CheckConsistent(); err != nil {
			log.Fatalf("store inconsistent after recovery: %v", err)
		}
		cfg.Durable = walSet
	}
	if (*ckptIval > 0 || *ckptBytes > 0) && walSet == nil {
		log.Fatal("-checkpoint-interval/-checkpoint-bytes require -wal")
	}

	srv := server.New(cfg)

	// Checkpointing: bounded recovery over the WAL. The snapshot
	// adapter copies the store's slices (fast, under engine quiesce)
	// and resolves interned names; the runner handles triggers,
	// crash-safe writes, retention, and sealed-segment compaction.
	// With both triggers zero no checkpointer exists at all and the
	// durability layer behaves byte-identically to a plain -wal run.
	var cp *checkpoint.Checkpointer
	if *ckptIval > 0 || *ckptBytes > 0 {
		quiescer, ok := srv.System().(core.Quiescer)
		if !ok {
			log.Fatal("engine does not support quiesce; cannot checkpoint")
		}
		store := cfg.Store
		var snapVals []int64
		var snapDefined []bool
		snap := checkpoint.SnapshotFunc(func() []checkpoint.Entry {
			// Paged backend: flush the dirty set first (we're under the
			// engine quiesce, so nothing mutates) — the checkpoint is
			// flush-all + snapshot, keeping the heap file a faithful
			// mirror at every checkpoint boundary.
			if store.Paged() {
				if err := store.Flush(); err != nil {
					log.Printf("checkpoint: heap flush: %v", err)
				}
			}
			snapVals, snapDefined, _ = store.SnapshotSlices(snapVals, snapDefined)
			entries := make([]checkpoint.Entry, 0, len(snapVals))
			for i, ok := range snapDefined {
				if !ok {
					continue
				}
				entries = append(entries, checkpoint.Entry{Name: store.NameOf(intern.ID(i)), Val: snapVals[i]})
			}
			return entries
		})
		copts := checkpoint.Options{
			Interval:   *ckptIval,
			Bytes:      *ckptBytes,
			Retain:     *ckptRetain,
			PhaseDelay: *ckptDelay,
			Logf:       log.Printf,
		}
		if registry != nil {
			ckpts := registry.NewCounter("pr_checkpoint_total", "Completed checkpoints.")
			segsRemoved := registry.NewCounter("pr_checkpoint_segments_removed_total", "Sealed log segments compacted away.")
			segBytes := registry.NewCounter("pr_checkpoint_segment_bytes_removed_total", "Log bytes reclaimed by compaction.")
			quiesceDur := registry.NewDurationHistogram("pr_checkpoint_quiesce_seconds",
				"Engine stall per checkpoint (snapshot copy under quiesce).",
				[]time.Duration{
					10 * time.Microsecond, 50 * time.Microsecond, 100 * time.Microsecond,
					500 * time.Microsecond, time.Millisecond, 5 * time.Millisecond,
					25 * time.Millisecond, 100 * time.Millisecond,
				})
			ckptDur := registry.NewDurationHistogram("pr_checkpoint_seconds",
				"End-to-end checkpoint wall time (rotation through compaction).",
				[]time.Duration{
					time.Millisecond, 5 * time.Millisecond, 10 * time.Millisecond,
					25 * time.Millisecond, 50 * time.Millisecond, 100 * time.Millisecond,
					250 * time.Millisecond, time.Second,
				})
			copts.OnCheckpoint = func(ci checkpoint.Info) {
				ckpts.Inc()
				segsRemoved.Add(int64(ci.SegmentsRemoved))
				segBytes.Add(ci.SegmentBytesRemoved)
				quiesceDur.Observe(ci.QuiesceDuration)
				ckptDur.Observe(ci.Duration)
			}
		}
		cp = checkpoint.New(walSet, quiescer, snap, copts)
		cp.Start()
		log.Printf("checkpoint: enabled (interval=%v bytes=%d retain=%d)", *ckptIval, *ckptBytes, *ckptRetain)
	}

	// Install the handler before serving: a SIGINT that arrives right
	// after the first reply must take the shutdown path, not kill us.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	if err := srv.Listen(*addr); err != nil {
		log.Fatal(err)
	}
	log.Printf("listening on %s (strategy=%s policy=%s entities=%d accounts=%d shards=%d wal=%s store=%s)",
		srv.Addr(), *strategy, *policy, *entities, *accounts, *shards, walDesc(), *storeKind)

	var adminSrv *http.Server
	if *admin != "" {
		// The serving-layer counters (sessions, bytes, per-shard stats)
		// ride along as a gauge set read at scrape time.
		registry.NewGaugeSet("pr_server_", "Serving-layer counter snapshot.", func() []obs.KV {
			cs := srv.Counters()
			out := make([]obs.KV, len(cs))
			for i, c := range cs {
				out[i] = obs.KV{Name: c.Name, Val: c.Val}
			}
			return out
		})
		registry.NewGauge("pr_runtime_heap_alloc_bytes",
			"Live Go heap bytes (runtime.ReadMemStats), sampled at scrape time.",
			func() int64 {
				var ms runtime.MemStats
				runtime.ReadMemStats(&ms)
				return int64(ms.HeapAlloc)
			})
		if cfg.Store.Paged() {
			registry.NewGaugeSet("pr_store_", "Paged entity-store buffer pool counters.", func() []obs.KV {
				ps := cfg.Store.PoolStats()
				return []obs.KV{
					{Name: "hits", Val: ps.Hits},
					{Name: "misses", Val: ps.Misses},
					{Name: "evictions", Val: ps.Evictions},
					{Name: "flushes", Val: ps.Flushes},
					{Name: "pinned_pages", Val: ps.PinnedPages},
					{Name: "pool_frames", Val: ps.Frames},
					{Name: "pool_overcap", Val: ps.OverCap},
					{Name: "heap_pages", Val: ps.HeapPages},
				}
			})
		}
		if walSet != nil {
			registry.NewGauge("pr_wal_recovery_duration_us",
				"Startup recovery wall time in microseconds (checkpoint load + tail replay).",
				func() int64 { return recInfo.Duration.Microseconds() })
			registry.NewGauge("pr_wal_sealed_segments",
				"Sealed log segments awaiting compaction.",
				func() int64 { return int64(len(walSet.SealedSegments())) })
		}
		if cp != nil {
			registry.NewGauge("pr_checkpoint_last_frontier",
				"WAL sequence frontier of the newest checkpoint.",
				func() int64 { return int64(cp.Status().LastFrontier) })
			registry.NewGauge("pr_checkpoint_age_seconds",
				"Seconds since the newest checkpoint (0 before the first).",
				func() int64 {
					st := cp.Status()
					if st.LastUnix == 0 {
						return 0
					}
					return int64(time.Since(time.Unix(st.LastUnix, 0)).Seconds())
				})
			registry.NewGauge("pr_checkpoint_errors",
				"Failed checkpoint attempts.",
				func() int64 { return cp.Status().Errors })
		}
		opts := obs.AdminOptions{Registry: registry, Engine: srv.System(), Tracer: tracer,
			Owners: func() map[txn.ID]obs.TxnOwner {
				owners := srv.Owners()
				out := make(map[txn.ID]obs.TxnOwner, len(owners))
				for id, o := range owners {
					out[id] = obs.TxnOwner(o)
				}
				return out
			}}
		if walSet != nil {
			opts.WAL = func() obs.WALStatus {
				ws := obs.WALStatus{Dir: walSet.Dir(), Frontier: walSet.Frontier()}
				for _, sh := range walSet.ShardStatus() {
					ws.Shards = append(ws.Shards, obs.WALShard{
						Shard:          sh.Shard,
						ActiveBytes:    sh.ActiveBytes,
						ActiveLastSeq:  sh.ActiveLastSeq,
						DurableSeq:     sh.DurableSeq,
						PendingRecords: sh.PendingRecords,
						SealedSegments: sh.SealedSegments,
						SealedBytes:    sh.SealedBytes,
					})
				}
				if cp != nil {
					st := cp.Status()
					wc := obs.WALCheckpoint{
						Checkpoints:  st.Checkpoints,
						LastFrontier: st.LastFrontier,
						LastEntities: st.LastEntities,
						LastBytes:    st.LastBytes,
						LastUnix:     st.LastUnix,
						Errors:       st.Errors,
					}
					if st.LastUnix > 0 {
						wc.AgeSeconds = time.Since(time.Unix(st.LastUnix, 0)).Seconds()
					}
					ws.Checkpoint = &wc
				}
				return ws
			}
		}
		if se, ok := srv.System().(*shard.Engine); ok {
			registry.NewGauge("pr_admission_queue_depth",
				"Cross-shard claims queued for placement.",
				func() int64 { return int64(se.QueueDepth()) })
			opts.Queued = func() []obs.KV {
				var out []obs.KV
				for _, q := range se.Queued() {
					out = append(out, obs.KV{Name: fmt.Sprintf("pos%d_%s_txn", q.Position, q.Program), Val: int64(q.Txn)})
				}
				return out
			}
		}
		ln, err := net.Listen("tcp", *admin)
		if err != nil {
			log.Fatalf("admin listen: %v", err)
		}
		adminSrv = &http.Server{Handler: obs.NewAdminMux(opts)}
		go func() {
			if err := adminSrv.Serve(ln); err != nil && err != http.ErrServerClosed {
				log.Printf("admin: %v", err)
			}
		}()
		log.Printf("admin on http://%s (metrics, debug/waitfor, debug/txns, pprof; trace=%v)",
			ln.Addr(), *traceCap > 0)
	}

	<-sig
	log.Printf("shutting down (drain %v)...", *drain)

	ctx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		log.Printf("drain deadline hit; in-flight transactions rolled back (%v)", err)
	}
	if cp != nil {
		// Stop the trigger loop (waiting out any in-flight checkpoint)
		// before the log set closes underneath it.
		cp.Close()
	}
	if walSet != nil {
		// Final sync + close: under -fsync off this is the only fsync
		// the log ever gets, so a clean shutdown still persists tails.
		if err := walSet.Close(); err != nil {
			log.Printf("wal: close: %v", err)
		}
	}
	if adminSrv != nil {
		_ = adminSrv.Shutdown(context.Background())
	}

	fmt.Println("final counters:")
	for _, c := range srv.Counters() {
		fmt.Printf("  %-18s %d\n", c.Name, c.Val)
	}
	if err := srv.System().CheckInvariants(); err != nil {
		log.Fatalf("engine invariants violated: %v", err)
	}
	if err := cfg.Store.CheckConsistent(); err != nil {
		log.Fatalf("store inconsistent after shutdown: %v", err)
	}
	if err := cfg.Store.Close(); err != nil {
		log.Printf("store: close: %v", err)
	}
	log.Printf("store consistent; bye")
}

func walDesc() string {
	if *walDir == "" {
		return "off"
	}
	return fmt.Sprintf("%s(fsync=%s)", *walDir, *fsyncMode)
}
