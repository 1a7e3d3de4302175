// Package node assembles one partial-rollback server node: the entity
// store (memory or paged), the metrics registry, WAL recovery and the
// durable commit pipeline, the network server, the checkpointer and the
// HTTP admin endpoint, plus the ordered shutdown that ends with the
// engine-invariant and store-consistency checks. cmd/prserver is a flag
// front-end over Start; this package's tests drive whole nodes, in
// process or as a killed child process.
//
// The node logs through the standard log package, so the binary's
// prefix applies to every line.
package node

import (
	"context"
	"errors"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"partialrollback/internal/checkpoint"
	"partialrollback/internal/core"
	"partialrollback/internal/durable"
	"partialrollback/internal/entity"
	"partialrollback/internal/intern"
	"partialrollback/internal/obs"
	"partialrollback/internal/server"
	"partialrollback/internal/wire"
)

// Config describes a node. Each exported field is one cmd/prserver flag
// of the same meaning; Defaults returns the flags' defaults.
type Config struct {
	Addr string // listen address

	// The store: Entities uniform entities "e0".."eN-1" initialised to
	// Init, plus Accounts bank accounts "acct0".."acctM-1" at Balance
	// each under a sum constraint.
	Entities, Accounts int
	Init, Balance      int64

	MaxSessions, Backlog        int
	RequestTimeout, IdleTimeout time.Duration
	MaxStreams                  int

	WAL   string // log directory; empty = memory only
	Fsync string // always|group|off

	CheckpointInterval time.Duration // requires WAL
	CheckpointBytes    int64         // requires WAL
	Retain             int

	Store               string // mem|paged
	PoolPages, PageSize int
	Heap                string // paged heap file; default <WAL>/heap.dat, else a temp file

	Admin   string // admin HTTP address; empty disables
	Trace   int    // traces retained; requires Admin
	Verbose bool   // per-session diagnostics

	// phaseDelay sleeps between checkpoint phases so a kill lands inside
	// each crash window; only this package's tests set it.
	phaseDelay time.Duration
}

// Defaults returns cmd/prserver's flag defaults.
func Defaults() Config {
	return Config{
		Addr:           "127.0.0.1:7415",
		Entities:       64,
		Accounts:       16,
		Balance:        100,
		MaxSessions:    256,
		Backlog:        32,
		RequestTimeout: 30 * time.Second,
		IdleTimeout:    2 * time.Minute,
		MaxStreams:     4096,
		Fsync:          "group",
		Retain:         2,
		Store:          "mem",
		PoolPages:      64,
		PageSize:       4096,
	}
}

// Node is a running node.
type Node struct {
	cfg       Config
	store     *entity.Store
	heapTemp  string // a heap file the node chose itself; removed at close
	wal       *durable.Set
	rec       *durable.RecoveryInfo
	srv       *server.Server
	cp        *checkpoint.Checkpointer
	admin     *http.Server
	adminAddr string
}

// Start validates cfg, builds the node, recovers the WAL (if any) and
// starts serving. Conflicting settings are refused before anything is
// created; any later failure releases what was built.
func Start(cfg Config) (*Node, error) {
	switch {
	case cfg.Store != "mem" && cfg.Store != "paged":
		return nil, fmt.Errorf("unknown -store %q (want mem or paged)", cfg.Store)
	case (cfg.CheckpointInterval > 0 || cfg.CheckpointBytes > 0) && cfg.WAL == "":
		return nil, errors.New("-checkpoint-interval/-checkpoint-bytes require -wal")
	case cfg.Trace > 0 && cfg.Admin == "":
		return nil, errors.New("-trace requires -admin")
	}
	n := &Node{cfg: cfg}
	if err := n.start(); err != nil {
		n.release(false)
		return nil, err
	}
	return n, nil
}

func (n *Node) start() error {
	cfg := n.cfg
	// The metrics registry exists before the store so the paged
	// backend's read-miss histogram can observe faults from the first
	// recovery replay onward.
	var registry *obs.Registry
	var onMiss func(ns int64)
	if cfg.Admin != "" {
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
	if err := n.buildStore(onMiss); err != nil {
		return err
	}
	scfg := server.Config{
		Store:          n.store,
		MaxSessions:    cfg.MaxSessions,
		Backlog:        cfg.Backlog,
		RequestTimeout: cfg.RequestTimeout,
		IdleTimeout:    cfg.IdleTimeout,
		MaxStreams:     cfg.MaxStreams,
	}
	if cfg.Verbose {
		scfg.Logf = log.Printf
	}

	// Observability: the collector and tracer are chained onto the
	// engine's event stream before the server is built, so every event
	// from the first registration onward is counted.
	var tracer *obs.Tracer
	if registry != nil {
		collector := obs.NewCollector(registry)
		scfg.OnEvent = collector.OnEvent
		scfg.LockWait = collector.ObserveLockWait
		if cfg.Trace > 0 {
			tracer = obs.NewTracer(cfg.Trace)
			tracer.SetEnabled(true)
			scfg.OnEvent = func(e core.Event) {
				collector.OnEvent(e)
				tracer.OnEvent(e)
			}
		}
	}

	// Durability: recovery must run before the server is built so the
	// engine interns the recovered store, and the WAL metrics hook onto
	// the registry created above.
	if cfg.WAL != "" {
		if err := n.openWAL(registry); err != nil {
			return err
		}
		scfg.Durable = n.wal
	}
	n.srv = server.New(scfg)
	if cfg.CheckpointInterval > 0 || cfg.CheckpointBytes > 0 {
		if err := n.startCheckpointer(registry); err != nil {
			return err
		}
	}
	// The admin endpoint binds before the server listens: nothing fails
	// once the node serves.
	if registry != nil {
		if err := n.startAdmin(registry, tracer); err != nil {
			return err
		}
	}
	return n.srv.Listen(cfg.Addr)
}

func (n *Node) buildStore(onMiss func(ns int64)) error {
	cfg := n.cfg
	if cfg.Store == "mem" {
		n.store = entity.NewUniformStore("e", cfg.Entities, cfg.Init)
	} else {
		path := cfg.Heap
		if path == "" && cfg.WAL != "" {
			path = filepath.Join(cfg.WAL, "heap.dat")
		}
		if path == "" {
			f, err := os.CreateTemp("", "prserver-heap-*.dat")
			if err != nil {
				return err
			}
			f.Close()
			path, n.heapTemp = f.Name(), f.Name()
		}
		store, err := entity.NewUniformPagedStore("e", cfg.Entities, cfg.Init, entity.PagedConfig{
			Path:      path,
			PageSize:  cfg.PageSize,
			PoolPages: cfg.PoolPages,
			OnMiss:    onMiss,
		})
		if err != nil {
			return err
		}
		n.store = store
		log.Printf("store: paged backend (heap=%s page-size=%d pool-pages=%d, ~%d entities/page)",
			path, cfg.PageSize, cfg.PoolPages, cfg.PageSize*8/65)
	}
	if cfg.Accounts > 0 {
		names := make([]string, cfg.Accounts)
		for i := range names {
			names[i] = fmt.Sprintf("acct%d", i)
			n.store.Define(names[i], cfg.Balance)
		}
		n.store.AddConstraint(entity.SumConstraint(
			"balance-sum", int64(cfg.Accounts)*cfg.Balance, names...))
	}
	return nil
}

func (n *Node) openWAL(registry *obs.Registry) error {
	cfg := n.cfg
	mode, err := durable.ParseSyncMode(cfg.Fsync)
	if err != nil {
		return err
	}
	opts := durable.Options{Mode: mode}
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
	set, rec, err := durable.Open(cfg.WAL, 1, n.store, opts)
	if err != nil {
		return err
	}
	n.wal, n.rec = set, rec
	log.Printf("wal: recovered %d records (%d entities) from %d file(s) in %s (max seq %d)",
		rec.Records, rec.Applied, rec.Files, cfg.WAL, rec.MaxSeq)
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
	if err := n.store.CheckConsistent(); err != nil {
		return fmt.Errorf("store inconsistent after recovery: %w", err)
	}
	return nil
}

// startCheckpointer runs bounded recovery over the WAL. The snapshot
// adapter copies the store's slices (fast, under engine quiesce) and
// resolves interned names; the runner handles triggers, crash-safe
// writes, retention, and sealed-segment compaction. With both triggers
// zero no checkpointer exists at all and the durability layer behaves
// byte-identically to a plain WAL run.
func (n *Node) startCheckpointer(registry *obs.Registry) error {
	cfg := n.cfg
	store := n.store
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
		Interval:   cfg.CheckpointInterval,
		Bytes:      cfg.CheckpointBytes,
		Retain:     cfg.Retain,
		PhaseDelay: cfg.phaseDelay,
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
	n.cp = checkpoint.New(n.wal, n.srv.System(), snap, copts)
	n.cp.Start()
	log.Printf("checkpoint: enabled (interval=%v bytes=%d retain=%d)", cfg.CheckpointInterval, cfg.CheckpointBytes, cfg.Retain)
	return nil
}

func (n *Node) startAdmin(registry *obs.Registry, tracer *obs.Tracer) error {
	srv, store, walSet, cp := n.srv, n.store, n.wal, n.cp
	// The serving-layer counters (sessions, bytes, engine stats) ride
	// along as a gauge set read at scrape time.
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
	registry.NewGauge("pr_runtime_goroutines",
		"Live goroutines (runtime.NumGoroutine), sampled at scrape time.",
		func() int64 { return int64(runtime.NumGoroutine()) })
	if store.Paged() {
		registry.NewGaugeSet("pr_store_", "Paged entity-store buffer pool counters.", func() []obs.KV {
			ps := store.PoolStats()
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
			func() int64 { return n.rec.Duration.Microseconds() })
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
			func() int64 { return int64(age(cp.Status().LastUnix)) })
		registry.NewGauge("pr_checkpoint_errors",
			"Failed checkpoint attempts.",
			func() int64 { return cp.Status().Errors })
	}
	opts := obs.AdminOptions{Registry: registry, Engine: srv.System(), Tracer: tracer, Owners: srv.Owners}
	if walSet != nil {
		opts.WAL = func() obs.WALStatus {
			ws := obs.WALStatus{Dir: walSet.Dir(), Frontier: walSet.Frontier(), Log: obs.WALLog(walSet.Status())}
			if cp != nil {
				st := cp.Status()
				ws.Checkpoint = &obs.WALCheckpoint{
					Checkpoints:  st.Checkpoints,
					LastFrontier: st.LastFrontier,
					LastEntities: st.LastEntities,
					LastBytes:    st.LastBytes,
					LastUnix:     st.LastUnix,
					AgeSeconds:   age(st.LastUnix),
					Errors:       st.Errors,
				}
			}
			return ws
		}
	}
	ln, err := net.Listen("tcp", n.cfg.Admin)
	if err != nil {
		return fmt.Errorf("admin listen: %w", err)
	}
	n.adminAddr = ln.Addr().String()
	n.admin = &http.Server{Handler: obs.NewAdminMux(opts)}
	go func() {
		if err := n.admin.Serve(ln); err != nil && err != http.ErrServerClosed {
			log.Printf("admin: %v", err)
		}
	}()
	return nil
}

// age is the seconds since the Unix time t of the newest checkpoint, 0
// before the first.
func age(t int64) float64 {
	if t == 0 {
		return 0
	}
	return time.Since(time.Unix(t, 0)).Seconds()
}

// Addr returns the address the node serves on.
func (n *Node) Addr() string { return n.srv.Addr().String() }

// AdminAddr returns the admin endpoint's address, or "" without one.
func (n *Node) AdminAddr() string { return n.adminAddr }

// Counters returns the STATS counter snapshot, valid after Shutdown too.
func (n *Node) Counters() []wire.Counter { return n.srv.Counters() }

// Shutdown drains the server (in-flight transactions get until ctx
// expires, the rest are rolled back), stops the checkpointer, closes the
// log set and the admin endpoint, checks the engine invariants and the
// store's constraints, and closes the store. It returns the first check
// that failed; a forced drain is logged, not returned.
func (n *Node) Shutdown(ctx context.Context) error {
	if err := n.srv.Shutdown(ctx); err != nil {
		log.Printf("drain deadline hit; in-flight transactions rolled back (%v)", err)
	}
	return n.release(true)
}

// release stops the checkpointer (waiting out any in-flight checkpoint)
// before the log set closes underneath it, then closes the log set —
// under -fsync off the final sync is the only fsync the log ever gets —
// and the admin endpoint. With check it then runs the engine-invariant
// and store-consistency checks. Last it closes the store and removes a
// heap file the node chose itself; a configured heap path or
// <WAL>/heap.dat stays.
func (n *Node) release(check bool) (err error) {
	if n.cp != nil {
		n.cp.Close()
	}
	if n.wal != nil {
		if err := n.wal.Close(); err != nil {
			log.Printf("wal: close: %v", err)
		}
	}
	if n.admin != nil {
		_ = n.admin.Shutdown(context.Background())
	}
	if check {
		if e := n.srv.System().CheckInvariants(); e != nil {
			err = fmt.Errorf("engine invariants violated: %w", e)
		} else if e := n.store.CheckConsistent(); e != nil {
			err = fmt.Errorf("store inconsistent after shutdown: %w", e)
		}
	}
	if n.store != nil {
		if err := n.store.Close(); err != nil {
			log.Printf("store: close: %v", err)
		}
	}
	if n.heapTemp != "" {
		if err := os.Remove(n.heapTemp); err != nil {
			log.Printf("store: %v", err)
		}
	}
	return err
}
