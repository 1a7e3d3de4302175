package main

import (
	"math"
	"sort"
	"time"
)

// def declares one metric. The end-to-end table is mirrored in
// BENCHMARK.json (bench_test.go checks that they agree); bounds live
// only there.
type def struct {
	name, unit string
}

// End-to-end metrics: what a user of the node sees. Every one is
// reported on every workload and is never zero.
var endToEnd = []def{
	{"setup_s", "s"},
	{"tput_txn_s", "txn/s"},
	{"lat_p50_ms", "ms"},
	{"lat_p95_ms", "ms"},
	{"server_cpu_ms_per_commit", "ms"},
	{"server_rss_peak_mb", "MB"},
	{"executed_ops_per_commit", "ops"},
}

// Per-layer metrics, by layer (this repository's modules). A metric
// that has no meaning on a workload reads 0 there.
var perLayer = []def{
	// wire
	{"wire.encode_req_ns", "ns"},
	{"wire.decode_req_ns", "ns"},
	{"wire.encode_reply_ns", "ns"},
	{"wire.decode_reply_ns", "ns"},
	{"wire.bytes_in_per_txn", "B"},
	{"wire.bytes_out_per_txn", "B"},
	{"wire.frames_in_per_txn", "count"},
	{"wire.frames_out_per_txn", "count"},
	// client
	{"client.txn_p50_us", "us"},
	{"client.txn_p99_ms", "ms"},
	{"client.txn_p999_ms", "ms"},
	{"client.attempts_per_txn", "count"},
	{"client.net_retries", "count"},
	{"loadgen.cpu_share", "ratio"},
	// server
	{"server.writer_flushes_per_txn", "count"},
	{"server.busy_rejected", "count"},
	{"server.notify_dropped", "count"},
	{"server.stats_rtt_us", "us"},
	// exec / core
	{"core.steps_per_commit", "ops"},
	{"core.grants_per_commit", "count"},
	{"core.waits_per_commit", "count"},
	{"core.register_ns", "ns"},
	{"core.run_ns_per_op", "ns"},
	{"core.engine_lock_wait_ns_p50", "ns"},
	{"core.engine_lock_wait_ns_p99", "ns"},
	// lock
	{"lock.acquire_release_ns", "ns"},
	{"lock.wait_ms_mean", "ms"},
	// waitfor / deadlock
	{"waitfor.cycles_ns", "ns"},
	{"deadlock.per_kcommit", "1/kcommit"},
	{"deadlock.cycle_len_mean", "count"},
	{"deadlock.victims_mean", "count"},
	// rollback
	{"rollback.rolled_back_ops_per_commit", "ops"},
	{"rollback.partial_share", "ratio"},
	{"rollback.depth_mean", "ops"},
	{"rollback.useful_ratio", "ratio"},
	// durable / wal
	{"durable.wal_bytes_per_commit", "B"},
	{"durable.commits_per_fsync", "count"},
	{"durable.fsyncs_per_commit", "count"},
	{"durable.max_group", "count"},
	{"durable.fsync_ms_p50", "ms"},
	{"durable.commit_wait_us", "us"},
	{"durable.recovery_s", "s"},
	{"durable.lost_acks", "count"},
	{"durable.recover_ms", "ms"},
	{"durable.replay_records_per_s", "1/s"},
	// checkpoint
	{"checkpoint.count", "count"},
	{"checkpoint.quiesce_ms_max", "ms"},
	{"checkpoint.duration_ms_mean", "ms"},
	{"checkpoint.segment_bytes_removed", "B"},
	{"checkpoint.disk_bytes_end", "B"},
	// entity / page
	{"page.hit_ratio", "ratio"},
	{"page.misses_per_txn", "count"},
	{"page.evictions_per_txn", "count"},
	{"page.flushes_per_txn", "count"},
	{"page.miss_us_p50", "us"},
	{"page.overcap", "count"},
	{"page.read_hit_ns", "ns"},
	{"page.read_miss_ns", "ns"},
	{"page.heap_file_mb", "MB"},
	// bench
	{"trace.overhead_share", "ratio"},
	{"budget.e2e_p50_us", "us"},
	{"budget.unexplained_share", "ratio"},
}

// metric is one reported value. For a timing it is the median over the
// run's slices, with the slice quartiles as its spread.
type metric struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Q1      float64 `json:"q1"`
	Q3      float64 `json:"q3"`
	Samples int     `json:"samples"`
}

// quartiles returns the first quartile, median and third quartile as
// Python's statistics.quantiles(v, n=4) does (the exclusive method), so
// that spreads computed here and by the reader of the results agree.
func quartiles(v []float64) (q1, med, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0, 0, 0
	}
	if n == 1 {
		return s[0], s[0], s[0]
	}
	at := func(i int) float64 { // i-th of 4 cut points
		pos := float64(i*(n+1)) / 4
		j := int(math.Floor(pos))
		j = min(max(j, 1), n-1)
		frac := pos - float64(j)
		return s[j-1] + (s[j]-s[j-1])*frac
	}
	return at(1), at(2), at(3)
}

func summarize(unit string, v []float64) metric {
	q1, med, q3 := quartiles(v)
	return metric{Value: med, Unit: unit, Q1: q1, Q3: q3, Samples: len(v)}
}

func single(unit string, v float64) metric {
	return metric{Value: v, Unit: unit, Q1: v, Q3: v, Samples: 1}
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// endToEndMetrics turns an untraced phase into the end-to-end table:
// one value per slice, reported as the median over slices.
func endToEndMetrics(ph *phase, seconds float64) map[string]metric {
	sliceLen := time.Duration(seconds / slices * float64(time.Second))
	var tput, p50, p95, cpu, ops []float64
	for k := 0; k < slices; k++ {
		lat := ph.load.latencies(time.Duration(k)*sliceLen, time.Duration(k+1)*sliceLen)
		tput = append(tput, float64(len(lat))/sliceLen.Seconds())
		p50 = append(p50, ms(percentile(lat, 0.50)))
		p95 = append(p95, ms(percentile(lat, 0.95)))
		a, b := ph.samples[k], ph.samples[k+1]
		commits := float64(b.counters["commits"] - a.counters["commits"])
		cpu = append(cpu, ratio(ms(b.cpu-a.cpu), commits))
		ops = append(ops, ratio(float64(b.counters["steps"]-a.counters["steps"]), commits))
	}
	unit := map[string]string{}
	for _, d := range endToEnd {
		unit[d.name] = d.unit
	}
	return map[string]metric{
		"setup_s":                  summarize(unit["setup_s"], ph.setups),
		"tput_txn_s":               summarize(unit["tput_txn_s"], tput),
		"lat_p50_ms":               summarize(unit["lat_p50_ms"], p50),
		"lat_p95_ms":               summarize(unit["lat_p95_ms"], p95),
		"server_cpu_ms_per_commit": summarize(unit["server_cpu_ms_per_commit"], cpu),
		"server_rss_peak_mb":       single(unit["server_rss_peak_mb"], ph.rssPeakMB),
		"executed_ops_per_commit":  summarize(unit["executed_ops_per_commit"], ops),
	}
}

// ladderMetrics are the per-layer metrics that are simply a ladder
// rung's median (in ns per unit) times a unit conversion. A rung that
// did not run on a workload reads 0.
var ladderMetrics = []struct {
	metric, rung string
	scale        float64
}{
	{"wire.encode_req_ns", "wire.encode_req", 1},
	{"wire.decode_req_ns", "wire.decode_req", 1},
	{"wire.encode_reply_ns", "wire.encode_reply", 1},
	{"wire.decode_reply_ns", "wire.decode_reply", 1},
	{"core.register_ns", "core.register", 1},
	{"core.run_ns_per_op", "core.run_per_op", 1},
	{"lock.acquire_release_ns", "lock.acquire_release", 1},
	{"waitfor.cycles_ns", "waitfor.cycles", 1},
	{"durable.recover_ms", "durable.recover", 1e-6},
	{"page.read_hit_ns", "page.read_hit", 1},
	{"page.read_miss_ns", "page.read_miss", 1},
}

// perLayerMetrics combines the traced phase (STATS deltas, admin
// scrapes, client spans), the untraced reference phase and the ladder.
func perLayerMetrics(ph, ref *phase, l *ladder) map[string]metric {
	v := map[string]float64{}
	for _, r := range ladderMetrics {
		v[r.metric] = l.p50(r.rung) * r.scale
	}
	d := func(name string) float64 { return float64(ph.delta(name)) }
	commits, served := d("commits"), d("txns_served")

	v["wire.bytes_in_per_txn"] = ratio(d("bytes_in"), served)
	v["wire.bytes_out_per_txn"] = ratio(d("bytes_out"), served)
	v["wire.frames_in_per_txn"] = ratio(d("frames_in"), served)
	v["wire.frames_out_per_txn"] = ratio(d("frames_out"), served)

	lat := ph.load.latencies(0, math.MaxInt64)
	v["client.txn_p50_us"] = us(percentile(lat, 0.50))
	v["client.txn_p99_ms"] = ms(percentile(lat, 0.99))
	v["client.txn_p999_ms"] = ms(percentile(lat, 0.999))
	v["client.attempts_per_txn"] = ratio(float64(ph.load.attempts), float64(ph.load.committed))
	v["client.net_retries"] = float64(ph.load.attempts - ph.load.committed)
	serverCPU := ph.after.cpu - ph.samples[0].cpu
	v["loadgen.cpu_share"] = ratio(float64(ph.selfCPU), float64(ph.selfCPU+serverCPU))

	v["server.writer_flushes_per_txn"] = ratio(d("writer_flushes"), served)
	v["server.busy_rejected"] = d("busy_rejected")
	v["server.notify_dropped"] = d("notify_dropped")
	rtt := append([]time.Duration(nil), ph.statsRTT...)
	sort.Slice(rtt, func(i, j int) bool { return rtt[i] < rtt[j] })
	v["server.stats_rtt_us"] = us(percentile(rtt, 0.50))

	v["core.steps_per_commit"] = ratio(d("steps"), commits)
	v["core.grants_per_commit"] = ratio(d("grants"), commits)
	v["core.waits_per_commit"] = ratio(d("waits"), commits)
	h := func(name string) hist { return ph.admin.hist(name).sub(ph.adminBefore.hist(name)) }
	elw := h("pr_engine_lock_wait_ns")
	v["core.engine_lock_wait_ns_p50"] = elw.quantile(0.50)
	v["core.engine_lock_wait_ns_p99"] = elw.quantile(0.99)

	v["lock.wait_ms_mean"] = h("pr_wait_duration_seconds").mean() * 1000

	v["deadlock.per_kcommit"] = 1000 * ratio(d("deadlocks"), commits)
	v["deadlock.cycle_len_mean"] = h("pr_cycle_length").mean()
	v["deadlock.victims_mean"] = h("pr_victims_per_deadlock").mean()

	v["rollback.rolled_back_ops_per_commit"] = ratio(d("ops_lost"), commits)
	v["rollback.partial_share"] = ratio(d("rollbacks_partial"), d("rollbacks_partial")+d("rollbacks_total"))
	v["rollback.depth_mean"] = h("pr_rollback_depth").mean()
	// Useful work over attempted work: the operations of the programs
	// that committed, over every operation the engine executed for them.
	v["rollback.useful_ratio"] = ratio(float64(ph.load.ops), d("steps"))

	// durable, checkpoint, page: their counters, histograms and rungs
	// exist only on the workload that has the layer; absent ones read 0.
	v["durable.wal_bytes_per_commit"] = ratio(d("wal_bytes"), d("wal_commits"))
	v["durable.commits_per_fsync"] = ratio(d("wal_commits"), d("wal_fsync_batches"))
	v["durable.fsyncs_per_commit"] = ratio(d("wal_fsync_batches"), d("wal_commits"))
	v["durable.max_group"] = float64(ph.after.counters["wal_max_group"])
	v["durable.fsync_ms_p50"] = h("pr_wal_fsync_seconds").quantile(0.50) * 1000
	v["durable.commit_wait_us"] = (l.p50("durable.txn_logged") - l.p50("durable.txn_unlogged")) / 1000
	v["durable.recovery_s"] = ph.recovery.Seconds()
	v["durable.lost_acks"] = float64(ph.lostAcks)
	v["durable.replay_records_per_s"] = ratio(l.p50("durable.replay_records"), l.p50("durable.recover")/1e9)

	v["checkpoint.count"] = ph.admin.num("pr_checkpoint_total") - ph.adminBefore.num("pr_checkpoint_total")
	v["checkpoint.quiesce_ms_max"] = h("pr_checkpoint_quiesce_seconds").maxBound() * 1000
	v["checkpoint.duration_ms_mean"] = h("pr_checkpoint_seconds").mean() * 1000
	v["checkpoint.segment_bytes_removed"] = ph.admin.num("pr_checkpoint_segment_bytes_removed_total") -
		ph.adminBefore.num("pr_checkpoint_segment_bytes_removed_total")
	v["checkpoint.disk_bytes_end"] = float64(ph.diskBytes)

	v["page.hit_ratio"] = ratio(d("store_hits"), d("store_hits")+d("store_misses"))
	v["page.misses_per_txn"] = ratio(d("store_misses"), commits)
	v["page.evictions_per_txn"] = ratio(d("store_evictions"), commits)
	v["page.flushes_per_txn"] = ratio(d("store_flushes"), commits)
	v["page.miss_us_p50"] = h("pr_store_read_miss_seconds").quantile(0.50) * 1e6
	v["page.overcap"] = ph.admin.num("pr_store_pool_overcap")
	v["page.heap_file_mb"] = ph.heapFileMB
	missCost := v["page.misses_per_txn"] * v["page.read_miss_ns"] // ns per transaction in page faults, by the ladder

	// Tracing overhead: traced against untraced throughput, same
	// workload, same length, same invocation.
	traced := ratio(float64(ph.load.committed), ph.load.elapsed.Seconds())
	plain := ratio(float64(ref.load.committed), ref.load.elapsed.Seconds())
	v["trace.overhead_share"] = 1 - ratio(traced, plain)

	// The budget row: the one-stream median against the sum of the rungs
	// a transaction passes through, with the remainder stated.
	e2e := float64(percentile(ph.solo.latencies(0, math.MaxInt64), 0.50)) // ns
	rungs := l.p50("wire.encode_req") + l.p50("wire.decode_req") + l.p50("wire.encode_reply") +
		l.p50("wire.decode_reply") + l.p50("core.register") + l.p50("core.run") +
		v["server.stats_rtt_us"]*1000 + v["durable.commit_wait_us"]*1000 + missCost
	v["budget.e2e_p50_us"] = e2e / 1000
	v["budget.unexplained_share"] = ratio(e2e-rungs, e2e)

	// Sample counts: a ladder rung's spans, the traced run's
	// transactions, the STATS round trips; 1 for a counter delta.
	n := map[string]int{"server.stats_rtt_us": len(rtt), "budget.e2e_p50_us": int(ph.solo.committed)}
	for _, name := range []string{"client.txn_p50_us", "client.txn_p99_ms", "client.txn_p999_ms"} {
		n[name] = len(lat)
	}
	for _, r := range ladderMetrics {
		n[r.metric] = len(l.durs[r.rung])
	}
	out := make(map[string]metric, len(perLayer))
	for _, def := range perLayer {
		m := single(def.unit, v[def.name])
		m.Samples = max(1, n[def.name])
		out[def.name] = m
	}
	return out
}
