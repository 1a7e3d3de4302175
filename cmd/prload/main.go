// Command prload is a closed-loop load generator for cmd/prserver:
// -clients goroutines each run their transactions back-to-back, one
// stream each, multiplexed over -conns shared sockets, retrying (with
// jittered backoff) whenever the server rolls a transaction back. It
// reports throughput, latency percentiles, and the engine-side cost of
// deadlock removal — lost operations, partial and total rollbacks — as
// observed over the wire.
//
// Workloads:
//
//	hotspot — sim.Generate over the server's uniform entities
//	          ("e0".."eN-1") with a skewed hot set, the contention
//	          pattern of the paper's §5 experiments;
//	banking — sim.BankingWorkload transfers over "acct0".."acctM-1"
//	          (the server guards these with a sum invariant);
//	counter — sim.CounterWorkload single-entity increments over
//	          "e0".."e{counters-1}", the crash-recovery harness's unit
//	          of account (one acknowledged commit = +1 to the sum).
//
// With -verify-sum-min N the load loop is replaced by a single
// shared-lock transaction summing the counter entities; the run fails
// unless the sum is at least N (see scripts/smoke_recovery.sh).
//
// Usage:
//
//	prload -addr 127.0.0.1:7415 -clients 8 -txns 50 -workload hotspot \
//	       -db 64 -hot 8 -hotprob 0.8 -locks 4 -seed 1
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"partialrollback/internal/client"
	"partialrollback/internal/exec"
	"partialrollback/internal/sim"
	"partialrollback/internal/txn"
	"partialrollback/internal/wire"
)

var (
	addr     = flag.String("addr", "127.0.0.1:7415", "server address")
	clients  = flag.Int("clients", 8, "concurrent clients, each one stream multiplexed over the -conns sockets")
	txnsPer  = flag.Int("txns", 50, "transactions per client")
	workload = flag.String("workload", "hotspot", "workload: hotspot|banking|counter")
	db       = flag.Int("db", 64, "hotspot: number of entities (must be <= server -entities)")
	hot      = flag.Int("hot", 8, "hotspot: hot-set size (0 disables skew)")
	hotProb  = flag.Float64("hotprob", 0.8, "hotspot: probability a lock hits the hot set")
	locks    = flag.Int("locks", 4, "hotspot: locks per transaction")
	pad      = flag.Int("pad", 2, "hotspot: compute padding per lock interval")
	shape    = flag.String("shape", "scattered", "hotspot: write shape: scattered|clustered|three-phase|mixed")
	rewrite  = flag.Float64("rewrite", 0.4, "hotspot: rewrite probability (scattered shape)")
	accounts = flag.Int("accounts", 16, "banking: accounts (must be <= server -accounts)")
	balance  = flag.Int64("balance", 100, "banking: unused by the client, kept for symmetry")
	counters = flag.Int("counters", 8, "counter: entities incremented (must be <= server -entities)")
	entities = flag.Int("entities", 0, "uniform-random entity count: overrides -db (hotspot) and -counters (counter) with one knob, for sweeps where the entity set is the variable — e.g. 10x the server's -pool-pages working set (0 = use -db/-counters)")
	bail     = flag.Bool("bail", false, "stop a client at its first failed transaction instead of moving on (crash-harness mode)")
	verify   = flag.Int64("verify-sum-min", -1, "instead of generating load, read e0..e{counters-1} in one transaction and fail unless their sum >= this (-1 disables)")
	seed     = flag.Int64("seed", 1, "workload seed (client i uses seed+i)")
	conns    = flag.Int("conns", 4, "shared sockets the clients' streams are multiplexed over")
	timeout  = flag.Duration("timeout", time.Minute, "per-attempt client deadline")
	attempts = flag.Int("attempts", 16, "max attempts per transaction")
	adminURL = flag.String("admin", "", "server admin endpoint (host:port or URL) to scrape /metrics from after the run")
	jsonOut  = flag.String("json", "", "write the run report (plus scraped admin metrics) as JSON to this file (\"-\" = stdout)")
)

func parseShape(s string) (sim.WriteShape, error) {
	switch s {
	case "scattered":
		return sim.Scattered, nil
	case "clustered":
		return sim.Clustered, nil
	case "three-phase", "threephase":
		return sim.ThreePhase, nil
	case "mixed":
		return sim.Mixed, nil
	}
	return 0, fmt.Errorf("unknown shape %q", s)
}

// clientStats accumulates one goroutine's observations.
type clientStats struct {
	committed  int
	failed     int
	latencies  []time.Duration
	opsLost    int64
	rollbacks  int64
	restarts   int64
	waits      int64
	netRetries int64
	lastErr    error
}

func programsFor(i int) []*txn.Program {
	switch *workload {
	case "hotspot":
		sh, err := parseShape(*shape)
		if err != nil {
			log.Fatal(err)
		}
		return sim.Generate(sim.GenConfig{
			Txns:        *txnsPer,
			DBSize:      *db,
			HotSet:      *hot,
			HotProb:     *hotProb,
			LocksPerTxn: *locks,
			PadOps:      *pad,
			RewriteProb: *rewrite,
			Shape:       sh,
			Seed:        *seed + int64(i),
		}).Programs
	case "banking":
		return sim.BankingWorkload(*accounts, *txnsPer, *balance, *seed+int64(i)).Programs
	case "counter":
		return sim.CounterWorkload(*counters, *txnsPer, *seed+int64(i)).Programs
	default:
		log.Fatalf("unknown workload %q", *workload)
		return nil
	}
}

// report is the machine-readable run summary written by -json, shaped
// for diffing against the committed BENCH_*.json snapshots: stable
// keys, seconds as floats, counters as integer maps.
type report struct {
	Workload      string  `json:"workload"`
	Clients       int     `json:"clients"`
	TxnsPerClient int     `json:"txnsPerClient"`
	Seed          int64   `json:"seed"`
	ElapsedSec    float64 `json:"elapsedSec"`
	// GOMAXPROCS and NumCPU pin the client-side parallelism available to
	// the run, so committed BENCH_*.json snapshots record whether a
	// scaling result was even possible on the machine that produced it.
	GOMAXPROCS int `json:"gomaxprocs"`
	NumCPU     int `json:"numCPU"`
	// ServerShards echoes the engine partitioning the server reported in
	// its STATS snapshot (1 when the server runs unsharded).
	ServerShards int `json:"serverShards"`
	// Entities is the configured entity-set size the workload drew from
	// (-entities, falling back to -db/-counters per workload).
	Entities int `json:"entities"`
	// StoreBackend echoes the server's entity-store backend ("mem" or
	// "paged"), derived from the store_paged STATS counter.
	StoreBackend string  `json:"storeBackend"`
	Committed    int     `json:"committed"`
	Failed       int     `json:"failed"`
	Throughput   float64 `json:"throughputTxnPerSec"`
	// OpenSockets is how many TCP connections carried the load (-conns).
	OpenSockets int `json:"openSockets"`
	// Streams is the concurrent-transaction count (-clients).
	Streams int `json:"streams"`
	// TxnsPerSocket is throughput divided by open sockets — the ROADMAP
	// connection-efficiency metric (txn/s per open socket).
	TxnsPerSocket float64 `json:"txnsPerSocket"`
	LatencyP50Ms  float64 `json:"latencyP50Ms"`
	LatencyP90Ms  float64 `json:"latencyP90Ms"`
	LatencyP99Ms  float64 `json:"latencyP99Ms"`
	OpsLost       int64   `json:"opsLost"`
	PartialRB     int64   `json:"partialRollbacks"`
	TotalRB       int64   `json:"totalRollbacks"`
	Waits         int64   `json:"waits"`
	NetRetries    int64   `json:"netRetries"`
	// WireFramesPerTxn is the server-observed inbound frame count per
	// served transaction (frames_in / txns_served): ~1, one BeginProgram
	// per attempt.
	WireFramesPerTxn float64 `json:"wireFramesPerTxn"`
	// WriterFlushes is the server's coalesced-write count — each flush
	// is one conn.Write, so this is the write-syscall proxy for the run.
	WriterFlushes int64 `json:"writerFlushes"`
	// ServerCounters is the wire STATS snapshot.
	ServerCounters map[string]int64 `json:"serverCounters,omitempty"`
	// AdminMetrics is the expvar-style JSON scraped from the admin
	// endpoint's /metrics (counters, gauges, histograms), when -admin
	// was given.
	AdminMetrics map[string]any `json:"adminMetrics,omitempty"`
}

// scrapeAdmin fetches the admin endpoint's /metrics as JSON. addr may
// be host:port or a full URL.
func scrapeAdmin(addr string) (map[string]any, error) {
	url := addr
	if !strings.HasPrefix(url, "http://") && !strings.HasPrefix(url, "https://") {
		url = "http://" + url
	}
	c := &http.Client{Timeout: 10 * time.Second}
	resp, err := c.Get(url + "/metrics?format=json")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("admin endpoint returned %s", resp.Status)
	}
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return nil, err
	}
	return out, nil
}

func writeReport(r *report) error {
	out := os.Stdout
	if *jsonOut != "-" {
		f, err := os.Create(*jsonOut)
		if err != nil {
			return err
		}
		defer f.Close()
		out = f
	}
	enc := json.NewEncoder(out)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

func percentile(sorted []time.Duration, p float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(p * float64(len(sorted)-1))
	return sorted[i]
}

// printShardBalance summarizes the per-shard counters a sharded server
// reports (shard<k>_grants, ...): grants per shard plus the max/min
// ratio, the client-side view of partition imbalance.
func printShardBalance(counters []wire.Counter) {
	var n int64
	for _, c := range counters {
		if c.Name == "shards" {
			n = c.Val
		}
	}
	if n < 2 {
		return
	}
	grants := make([]int64, n)
	for _, c := range counters {
		var k int64
		if _, err := fmt.Sscanf(c.Name, "shard%d_grants", &k); err == nil && k < n {
			grants[k] = c.Val
		}
	}
	min, max := grants[0], grants[0]
	for _, g := range grants[1:] {
		if g < min {
			min = g
		}
		if g > max {
			max = g
		}
	}
	ratio := "inf"
	if min > 0 {
		ratio = fmt.Sprintf("%.2f", float64(max)/float64(min))
	}
	fmt.Printf("shard balance: grants=%v max/min=%s\n", grants, ratio)
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("prload: ")
	flag.Parse()

	// -entities is the one-knob entity-set size: hotspot draws from a
	// db that large and counter spreads increments over that many
	// entities, so out-of-core sweeps don't have to know which workload
	// they drive.
	if *entities > 0 {
		*db = *entities
		*counters = *entities
	}

	if *verify >= 0 {
		verifySum()
		return
	}

	// The unit of concurrency (a client's stream) is decoupled from the
	// socket: the -clients streams share -conns multiplexed connections.
	if *conns < 1 {
		log.Fatalf("-conns must be >= 1 (got %d)", *conns)
	}
	muxes := make([]*client.Mux, *conns)
	for k := range muxes {
		muxes[k] = newMux()
		defer muxes[k].Close()
	}

	stats := make([]clientStats, *clients)
	var wg sync.WaitGroup
	start := time.Now()
	for i := 0; i < *clients; i++ {
		progs := programsFor(i)
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			m := muxes[i%len(muxes)]
			st := &stats[i]
			for _, p := range progs {
				t0 := time.Now()
				res, err := m.Run(context.Background(), p)
				if err != nil {
					st.failed++
					st.lastErr = err
					if *bail {
						return
					}
					continue
				}
				st.committed++
				st.latencies = append(st.latencies, time.Since(t0))
				st.opsLost += res.Outcome.OpsLost
				st.rollbacks += res.Outcome.Rollbacks
				st.restarts += res.Outcome.Restarts
				st.waits += res.Outcome.Waits
				st.netRetries += int64(res.Attempts - 1)
			}
		}(i)
	}
	wg.Wait()
	elapsed := time.Since(start)

	var total clientStats
	for i := range stats {
		st := &stats[i]
		total.committed += st.committed
		total.failed += st.failed
		total.latencies = append(total.latencies, st.latencies...)
		total.opsLost += st.opsLost
		total.rollbacks += st.rollbacks
		total.restarts += st.restarts
		total.waits += st.waits
		total.netRetries += st.netRetries
		if st.lastErr != nil {
			total.lastErr = st.lastErr
		}
	}
	sort.Slice(total.latencies, func(i, j int) bool { return total.latencies[i] < total.latencies[j] })

	openSockets := len(muxes)
	throughput := float64(total.committed) / elapsed.Seconds()

	fmt.Printf("workload=%s clients=%d txns/client=%d elapsed=%v\n",
		*workload, *clients, *txnsPer, elapsed.Round(time.Millisecond))
	fmt.Printf("committed=%d failed=%d throughput=%.1f txn/s\n",
		total.committed, total.failed, throughput)
	fmt.Printf("sockets=%d streams=%d txn/s-per-socket=%.1f\n",
		openSockets, *clients, throughput/float64(openSockets))
	fmt.Printf("latency p50=%v p90=%v p99=%v\n",
		percentile(total.latencies, 0.50).Round(time.Microsecond),
		percentile(total.latencies, 0.90).Round(time.Microsecond),
		percentile(total.latencies, 0.99).Round(time.Microsecond))
	fmt.Printf("ops-lost=%d partial-rollbacks=%d total-rollbacks=%d waits=%d net-retries=%d\n",
		total.opsLost, total.rollbacks-total.restarts, total.restarts, total.waits, total.netRetries)

	rep := &report{
		Workload:      *workload,
		Clients:       *clients,
		TxnsPerClient: *txnsPer,
		Seed:          *seed,
		ElapsedSec:    elapsed.Seconds(),
		GOMAXPROCS:    runtime.GOMAXPROCS(0),
		NumCPU:        runtime.NumCPU(),
		ServerShards:  1,
		Entities:      workloadEntities(),
		StoreBackend:  "mem",
		Committed:     total.committed,
		Failed:        total.failed,
		Throughput:    throughput,
		OpenSockets:   openSockets,
		Streams:       *clients,
		TxnsPerSocket: throughput / float64(openSockets),
		LatencyP50Ms:  float64(percentile(total.latencies, 0.50)) / float64(time.Millisecond),
		LatencyP90Ms:  float64(percentile(total.latencies, 0.90)) / float64(time.Millisecond),
		LatencyP99Ms:  float64(percentile(total.latencies, 0.99)) / float64(time.Millisecond),
		OpsLost:       total.opsLost,
		PartialRB:     total.rollbacks - total.restarts,
		TotalRB:       total.restarts,
		Waits:         total.waits,
		NetRetries:    total.netRetries,
	}

	// The server's own view of the run, over the first load socket.
	if counters, err := muxes[0].Stats(); err == nil {
		fmt.Println("server counters:")
		rep.ServerCounters = make(map[string]int64, len(counters))
		for _, cn := range counters {
			fmt.Printf("  %-18s %d\n", cn.Name, cn.Val)
			rep.ServerCounters[cn.Name] = cn.Val
		}
		if served := rep.ServerCounters["txns_served"]; served > 0 {
			rep.WireFramesPerTxn = float64(rep.ServerCounters["frames_in"]) / float64(served)
		}
		rep.WriterFlushes = rep.ServerCounters["writer_flushes"]
		if v := rep.ServerCounters["shards"]; v > 1 {
			rep.ServerShards = int(v)
		}
		if rep.ServerCounters["store_paged"] == 1 {
			rep.StoreBackend = "paged"
			fmt.Printf("store: paged hits=%d misses=%d evictions=%d pinned=%d\n",
				rep.ServerCounters["store_hits"], rep.ServerCounters["store_misses"],
				rep.ServerCounters["store_evictions"], rep.ServerCounters["store_pinned_pages"])
		}
		fmt.Printf("wire: frames/txn=%.2f writer-flushes=%d (frames-out=%d)\n",
			rep.WireFramesPerTxn, rep.WriterFlushes, rep.ServerCounters["frames_out"])
		fmt.Printf("env: gomaxprocs=%d numcpu=%d server-shards=%d\n",
			rep.GOMAXPROCS, rep.NumCPU, rep.ServerShards)
		printShardBalance(counters)
	} else {
		log.Printf("stats request failed: %v", err)
	}

	// The admin endpoint's richer view: histograms (rollback depth,
	// wait durations, cycle lengths) the wire snapshot cannot carry.
	if *adminURL != "" {
		m, err := scrapeAdmin(*adminURL)
		if err != nil {
			log.Printf("admin scrape failed: %v", err)
		} else {
			rep.AdminMetrics = m
			printAdminSummary(m)
		}
	}
	if *jsonOut != "" {
		if err := writeReport(rep); err != nil {
			log.Fatalf("writing -json report: %v", err)
		}
	}
	if total.failed > 0 {
		log.Fatalf("%d transactions failed; last error: %v", total.failed, total.lastErr)
	}
}

// verifySum is the crash-harness check: shared-lock transactions read
// every counter entity, and the sum is compared against the
// acknowledged-commit count from before the crash. Each counter commit
// adds exactly one, retries and in-flight-but-unacknowledged commits
// can only push the sum higher, so sum >= acked is precisely "no
// acknowledged commit was lost".
//
// The read is chunked into transactions of at most verifyChunk
// entities: multi-million-entity sweeps would otherwise build one
// program with millions of operations. Verification runs after load
// has stopped, so the values are stable and the chunked sum is exact.
const verifyChunk = 512

func verifySum() {
	c := newMux()
	defer c.Close()
	var sum int64
	for lo := 0; lo < *counters; lo += verifyChunk {
		hi := lo + verifyChunk
		if hi > *counters {
			hi = *counters
		}
		b := txn.NewProgram(fmt.Sprintf("verify-sum-%d", lo))
		for i := lo; i < hi; i++ {
			b.Local(fmt.Sprintf("c%d", i), 0)
		}
		for i := lo; i < hi; i++ {
			ent := fmt.Sprintf("e%d", i)
			b.LockS(ent).Read(ent, fmt.Sprintf("c%d", i))
		}
		p, err := b.Build()
		if err != nil {
			log.Fatalf("verify: building read transaction: %v", err)
		}
		res, err := c.Run(context.Background(), p)
		if err != nil {
			log.Fatalf("verify: read transaction e%d..e%d failed: %v", lo, hi-1, err)
		}
		for _, v := range res.Locals {
			sum += v
		}
	}
	fmt.Printf("verify: sum(e0..e%d)=%d acked=%d\n", *counters-1, sum, *verify)
	if sum < *verify {
		log.Fatalf("verify: DURABILITY VIOLATION: recovered sum %d < %d acknowledged commits", sum, *verify)
	}
	log.Printf("verify: ok (every acknowledged commit survived)")
}

// newMux returns a multiplexed client for -addr; it dials on first use.
func newMux() *client.Mux {
	return client.NewMux(client.MuxConfig{
		Addr:           *addr,
		RequestTimeout: *timeout,
		MaxAttempts:    *attempts,
		Backoff:        exec.Backoff{Base: 2 * time.Millisecond, Cap: 250 * time.Millisecond},
	})
}

// workloadEntities reports the entity-set size the run drew from, for
// the JSON report.
func workloadEntities() int {
	switch *workload {
	case "hotspot":
		return *db
	case "counter":
		return *counters
	case "banking":
		return *accounts
	}
	return 0
}

// printAdminSummary folds the scraped histograms into the human report:
// mean rollback depth and mean lock-wait duration, the two costs the
// paper's victim policies trade off.
func printAdminSummary(m map[string]any) {
	hist := func(name string) (sum float64, count float64, ok bool) {
		h, ok := m[name].(map[string]any)
		if !ok {
			return 0, 0, false
		}
		sum, _ = h["sum"].(float64)
		count, _ = h["count"].(float64)
		return sum, count, count > 0
	}
	if sum, n, ok := hist("pr_rollback_depth"); ok {
		fmt.Printf("admin: rollback depth mean=%.2f ops over %d rollbacks\n", sum/n, int64(n))
	}
	if sum, n, ok := hist("pr_wait_duration_seconds"); ok {
		fmt.Printf("admin: lock wait mean=%s over %d waits\n",
			time.Duration(sum/n*float64(time.Second)).Round(time.Microsecond), int64(n))
	}
}
