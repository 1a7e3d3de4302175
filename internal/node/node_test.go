package node

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"partialrollback/internal/client"
	"partialrollback/internal/sim"
	"partialrollback/internal/txn"
)

// testConfig is prserver's defaults on an ephemeral port, without bank
// accounts: every entity is a counter.
func testConfig() Config {
	cfg := Defaults()
	cfg.Addr = "127.0.0.1:0"
	cfg.Accounts = 0
	return cfg
}

func start(t *testing.T, cfg Config) *Node {
	t.Helper()
	n, err := Start(cfg)
	if err != nil {
		t.Fatalf("start: %v", err)
	}
	return n
}

// shutdown stops n and fails the test unless the node's own invariant
// and consistency checks pass.
func shutdown(t *testing.T, n *Node) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := n.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
}

// load is a closed-loop counter load: clients concurrent streams over
// a few shared sockets, client i running txns single-increment
// transactions over e0..e{counters-1} (sim.CounterWorkload, seed+i).
// Each acknowledged commit adds exactly one to the counters' sum. A
// client stops at its first failed transaction, so with attempts 1 no
// transaction is re-run after an attempt that may have committed, and
// the sum is at least the acknowledged count even across a crash.
type load struct {
	acked, failed atomic.Int64
	wg            sync.WaitGroup
	muxes         []*client.Mux
	errOnce       sync.Once
	err           error
}

func startLoad(addr string, conns, clients, txns, counters, attempts int, seed int64) *load {
	l := &load{}
	for k := 0; k < conns; k++ {
		l.muxes = append(l.muxes, client.NewMux(client.MuxConfig{Addr: addr, MaxAttempts: attempts}))
	}
	for i := 0; i < clients; i++ {
		progs := sim.CounterWorkload(counters, txns, seed+int64(i)).Programs
		m := l.muxes[i%conns]
		l.wg.Add(1)
		go func() {
			defer l.wg.Done()
			for _, p := range progs {
				if _, err := m.Run(context.Background(), p); err != nil {
					l.failed.Add(1)
					l.errOnce.Do(func() { l.err = err })
					return
				}
				l.acked.Add(1)
			}
		}()
	}
	return l
}

// wait waits for every client, closes the sockets and returns the
// acknowledged commits and the failed clients' first error.
func (l *load) wait() (acked int64, err error) {
	l.wg.Wait()
	for _, m := range l.muxes {
		m.Close()
	}
	if l.failed.Load() > 0 {
		err = fmt.Errorf("%d client(s) failed, first: %v", l.failed.Load(), l.err)
	}
	return l.acked.Load(), err
}

// readSum reads e0..e{counters-1} in one shared-lock transaction.
func readSum(t *testing.T, addr string, counters int) int64 {
	t.Helper()
	b := txn.NewProgram("sum")
	for i := 0; i < counters; i++ {
		b.Local(fmt.Sprintf("c%d", i), 0)
	}
	for i := 0; i < counters; i++ {
		ent := fmt.Sprintf("e%d", i)
		b.LockS(ent).Read(ent, fmt.Sprintf("c%d", i))
	}
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	m := client.NewMux(client.MuxConfig{Addr: addr})
	defer m.Close()
	res, err := m.Run(context.Background(), p)
	if err != nil {
		t.Fatalf("read-back: %v", err)
	}
	var s int64
	for _, v := range res.Locals {
		s += v
	}
	return s
}

func counter(n *Node, name string) int64 {
	for _, c := range n.Counters() {
		if c.Name == name {
			return c.Val
		}
	}
	return 0
}

// TestStartConfigErrors pins the configurations Start refuses before
// building anything; prserver exits non-zero with the same message.
func TestStartConfigErrors(t *testing.T) {
	for _, tc := range []struct {
		name string
		set  func(*Config)
		want string
	}{
		{"store", func(c *Config) { c.Store = "disk" }, `unknown -store "disk" (want mem or paged)`},
		{"checkpoint without wal", func(c *Config) { c.CheckpointBytes = 1 << 20 }, "-checkpoint-interval/-checkpoint-bytes require -wal"},
		{"trace without admin", func(c *Config) { c.Trace = 16 }, "-trace requires -admin"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := testConfig()
			tc.set(&cfg)
			n, err := Start(cfg)
			if err == nil {
				shutdown(t, n)
				t.Fatal("Start accepted the configuration")
			}
			if err.Error() != tc.want {
				t.Fatalf("error %q, want %q", err, tc.want)
			}
		})
	}
}

// TestPagedTempHeapRemoved: a paged node given neither a WAL nor a heap
// path spills to a temp file of its own choosing, and removes it at
// shutdown.
func TestPagedTempHeapRemoved(t *testing.T) {
	tmp := t.TempDir()
	t.Setenv("TMPDIR", tmp)
	cfg := testConfig()
	cfg.Store, cfg.PoolPages, cfg.PageSize = "paged", 2, 128
	n := start(t, cfg)
	if heaps, _ := filepath.Glob(filepath.Join(tmp, "prserver-heap-*.dat")); len(heaps) != 1 {
		t.Fatalf("heap files in TMPDIR: %v, want one", heaps)
	}
	if acked, err := startLoad(n.Addr(), 1, 2, 50, cfg.Entities, 0, 1).wait(); err != nil || acked != 100 {
		t.Fatalf("acked %d of 100: %v", acked, err)
	}
	shutdown(t, n)
	if left, _ := os.ReadDir(tmp); len(left) != 0 {
		t.Fatalf("left behind in TMPDIR: %v", left)
	}
}

// TestMuxTenThousandStreams opens 10 000 concurrent one-transaction
// streams over 4 sockets. Every stream must get a terminal reply (a hung
// stream hangs the test), every commit must be in the store, and the
// race detector watches the server's reader/stream/writer handoffs at
// peak stream concurrency.
func TestMuxTenThousandStreams(t *testing.T) {
	const streams, conns, counters = 10000, 4, 256
	cfg := testConfig()
	cfg.Entities, cfg.MaxStreams = counters, 4096
	n := start(t, cfg)
	acked, err := startLoad(n.Addr(), conns, streams, 1, counters, 0, 7).wait()
	if err != nil || acked != streams {
		t.Fatalf("acknowledged %d of %d streams: %v", acked, streams, err)
	}
	if got := counter(n, "sessions_total"); got != conns {
		t.Fatalf("load rode %d sockets, want %d", got, conns)
	}
	if s := readSum(t, n.Addr(), counters); s < acked {
		t.Fatalf("sum %d < %d acknowledged commits", s, acked)
	}
	shutdown(t, n)
}

// TestPagedOutOfCore runs 512 entities (35 pages of 15 slots) through a
// 2-page pool: the store must evict throughout and still account for
// every commit exactly. A memory-backed node on the same load is the
// control.
func TestPagedOutOfCore(t *testing.T) {
	const entities = 512
	cfg := testConfig()
	cfg.Entities, cfg.Store, cfg.PoolPages, cfg.PageSize = entities, "paged", 2, 128
	cfg.Heap = filepath.Join(t.TempDir(), "heap.dat")
	n := start(t, cfg)
	acked, err := startLoad(n.Addr(), 4, 8, 500, entities, 0, 3).wait()
	if err != nil || acked < 4000 {
		t.Fatalf("paged node committed %d of 4000: %v", acked, err)
	}
	if s := readSum(t, n.Addr(), entities); s != acked {
		t.Fatalf("sum %d, want exactly %d acknowledged commits", s, acked)
	}
	if ev := n.store.PoolStats().Evictions; ev == 0 {
		t.Fatal("no evictions: a 2-page pool held 35 pages")
	}
	shutdown(t, n)
	if _, err := os.Stat(cfg.Heap); err != nil {
		t.Fatalf("configured heap file removed: %v", err)
	}

	cfg = testConfig()
	cfg.Entities = entities
	n = start(t, cfg)
	if n.store.Paged() {
		t.Fatal("-store mem built a paged store")
	}
	acked, err = startLoad(n.Addr(), 4, 8, 100, entities, 0, 4).wait()
	if err != nil || acked != 800 {
		t.Fatalf("mem node committed %d of 800: %v", acked, err)
	}
	if s := readSum(t, n.Addr(), entities); s != acked {
		t.Fatalf("sum %d, want exactly %d acknowledged commits", s, acked)
	}
	shutdown(t, n)
}

// TestAdminEndpoints fetches the admin surface the docs promise: key
// Prometheus series, JSON metrics, the wait-for graph as DOT and JSON,
// the transaction table, the tracer and the pprof index.
//
// label historical: the node has one engine since sharding left it, so
// /debug/waitfor answers one "arcs" list.
func TestAdminEndpoints(t *testing.T) {
	cfg := testConfig()
	cfg.Admin, cfg.Trace = "127.0.0.1:0", 16
	n := start(t, cfg)
	hc := &http.Client{Timeout: 10 * time.Second}
	for _, tc := range []struct {
		path    string
		needles []string
	}{
		{"/metrics", []string{
			"# TYPE pr_grants_total counter",
			"# TYPE pr_rollback_depth histogram",
			"pr_wait_duration_seconds_count",
			"pr_txns_active",
			"pr_server_sessions_total",
			"# TYPE pr_runtime_goroutines gauge",
		}},
		{"/metrics?format=json", []string{`"pr_commits_total"`}},
		{"/debug/waitfor?format=dot", []string{"digraph waitfor"}},
		{"/debug/waitfor", []string{`"arcs"`}},
		{"/debug/txns", []string{`"txns"`}},
		{"/debug/trace?format=text", []string{"tracer enabled=true"}},
		{"/debug/pprof/", []string{"profiles"}},
	} {
		resp, err := hc.Get("http://" + n.AdminAddr() + tc.path)
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: %s %v", tc.path, resp.Status, err)
		}
		for _, needle := range tc.needles {
			if !strings.Contains(string(body), needle) {
				t.Errorf("%s missing %q", tc.path, needle)
			}
		}
	}
	shutdown(t, n)
}
