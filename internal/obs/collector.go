package obs

import (
	"sync"
	"time"

	"partialrollback/internal/core"
	"partialrollback/internal/txn"
)

// Default bucket layouts. Rollback depth and cycle length are small
// integers in practice (the paper's §5 experiments rarely exceed a few
// dozen lost operations per rollback); wait durations span micro- to
// multi-second scales under load.
var (
	// DepthBuckets bounds the rollback-depth histogram (states undone
	// per victim — the paper's cost metric).
	DepthBuckets = []int64{1, 2, 4, 8, 16, 32, 64, 128, 256}
	// CycleBuckets bounds the deadlock cycle-length histogram.
	CycleBuckets = []int64{2, 3, 4, 6, 8, 12, 16}
	// VictimBuckets bounds the victims-per-deadlock histogram.
	VictimBuckets = []int64{1, 2, 3, 4, 6, 8}
	// WaitBuckets bounds the lock wait-duration histogram.
	WaitBuckets = []time.Duration{
		50 * time.Microsecond, 200 * time.Microsecond,
		time.Millisecond, 5 * time.Millisecond, 20 * time.Millisecond,
		100 * time.Millisecond, 500 * time.Millisecond,
		2 * time.Second, 10 * time.Second,
	}
	// EngineLockWaitBuckets bounds the engine-lock wait histogram:
	// nanoseconds a step-path acquisition blocked before entering the
	// engine's critical section. Uncontended acquisitions land in the
	// lowest buckets; a fat tail here means the engine lock itself (not
	// entity conflicts) throttles throughput: every step of every
	// transaction runs under that one mutex.
	EngineLockWaitBuckets = []int64{
		100, 500, 1_000, 5_000, 20_000, 100_000,
		500_000, 2_000_000, 10_000_000, 100_000_000,
	}
)

// Collector turns the engine's event stream into metrics. Chain
// Collector.OnEvent onto core.Config.OnEvent (composing with other
// sinks as needed); it is safe to call concurrently and from under the
// engine mutex — it never calls back into the engine.
type Collector struct {
	// Event counters.
	Registers, Grants, Waits, Unlocks, Commits, Aborts *Counter
	Deadlocks, Rollbacks, Restarts, OpsLost, Victims   *Counter

	// Histograms.
	WaitDur        *DurationHistogram
	RollbackDepth  *Histogram
	CycleLen       *Histogram
	VictimsPerDL   *Histogram
	EngineLockWait *Histogram

	now func() time.Time

	// waitStart tracks when each currently-waiting transaction started
	// its wait; its size is the waiting-transactions gauge.
	mu        sync.Mutex
	waitStart map[txn.ID]time.Time
	active    int64
}

// NewCollector registers the engine metrics on reg and returns the
// collector feeding them.
func NewCollector(reg *Registry) *Collector {
	c := &Collector{
		Registers: reg.NewCounter("pr_registers_total", "Transactions registered."),
		Grants:    reg.NewCounter("pr_grants_total", "Lock requests granted."),
		Waits:     reg.NewCounter("pr_waits_total", "Lock requests that had to wait."),
		Unlocks:   reg.NewCounter("pr_unlocks_total", "Early (shrinking-phase) unlocks."),
		Commits:   reg.NewCounter("pr_commits_total", "Transactions committed."),
		Aborts:    reg.NewCounter("pr_aborts_total", "Transactions aborted (rolled back to initial state and removed)."),
		Deadlocks: reg.NewCounter("pr_deadlocks_total", "Deadlocks detected and resolved."),
		Rollbacks: reg.NewCounter("pr_rollbacks_total", "Rollback events (partial and total)."),
		Restarts:  reg.NewCounter("pr_restarts_total", "Rollbacks that went all the way to the initial state."),
		OpsLost:   reg.NewCounter("pr_ops_lost_total", "Atomic operations discarded by rollbacks (summed rollback cost)."),
		Victims:   reg.NewCounter("pr_victims_total", "Victims rolled back across all deadlocks."),
		WaitDur: reg.NewDurationHistogram("pr_wait_duration_seconds",
			"Time from a lock wait to its grant or to the waiter's rollback.", WaitBuckets),
		RollbackDepth: reg.NewHistogram("pr_rollback_depth",
			"States undone per rollback victim (the paper's rollback-cost metric).", DepthBuckets),
		CycleLen: reg.NewHistogram("pr_cycle_length",
			"Length of each deadlock cycle resolved.", CycleBuckets),
		VictimsPerDL: reg.NewHistogram("pr_victims_per_deadlock",
			"Victims rolled back per deadlock.", VictimBuckets),
		EngineLockWait: reg.NewHistogram("pr_engine_lock_wait_ns",
			"Nanoseconds each step-path engine-lock acquisition blocked before entering.", EngineLockWaitBuckets),
		now:       time.Now,
		waitStart: map[txn.ID]time.Time{},
	}
	reg.NewGauge("pr_txns_active", "Transactions registered and not yet committed, aborted or forgotten.",
		func() int64 { c.mu.Lock(); defer c.mu.Unlock(); return c.active })
	reg.NewGauge("pr_txns_waiting", "Transactions currently blocked on a lock.",
		func() int64 { c.mu.Lock(); defer c.mu.Unlock(); return int64(len(c.waitStart)) })
	return c
}

// OnEvent consumes one engine event.
func (c *Collector) OnEvent(e core.Event) {
	switch e.Kind {
	case core.EventRegister:
		c.Registers.Inc()
		c.mu.Lock()
		c.active++
		c.mu.Unlock()
	case core.EventGrant:
		c.Grants.Inc()
		c.endWait(e.Txn)
	case core.EventWait:
		c.Waits.Inc()
		c.mu.Lock()
		c.waitStart[e.Txn] = c.now()
		c.mu.Unlock()
	case core.EventUnlock:
		c.Unlocks.Inc()
	case core.EventCommit:
		c.Commits.Inc()
		c.mu.Lock()
		c.active--
		c.mu.Unlock()
	case core.EventAbort:
		c.Aborts.Inc()
		c.endWait(e.Txn)
		c.mu.Lock()
		c.active--
		c.mu.Unlock()
	case core.EventDeadlock:
		c.Deadlocks.Inc()
		if r := e.Deadlock; r != nil {
			for _, cyc := range r.Cycles {
				c.CycleLen.Observe(int64(len(cyc)))
			}
			c.VictimsPerDL.Observe(int64(len(r.Victims)))
			c.Victims.Add(int64(len(r.Victims)))
		}
	case core.EventRollback:
		c.Rollbacks.Inc()
		if e.ToLockState == 0 {
			c.Restarts.Inc()
		}
		c.OpsLost.Add(e.Lost)
		c.RollbackDepth.Observe(e.Lost)
		// A rolled-back waiter is runnable again; its wait is over.
		c.endWait(e.Txn)
	}
}

// ObserveLockWait records one engine-lock acquisition's blocked time in
// nanoseconds. Wire core.Config.LockWait (or runtime.Options.LockWait /
// server.Config) to this; safe for concurrent use.
func (c *Collector) ObserveLockWait(ns int64) { c.EngineLockWait.Observe(ns) }

// endWait closes a transaction's open wait interval, if any, and
// observes its duration.
func (c *Collector) endWait(id txn.ID) {
	c.mu.Lock()
	start, ok := c.waitStart[id]
	if ok {
		delete(c.waitStart, id)
	}
	c.mu.Unlock()
	if ok {
		c.WaitDur.Observe(c.now().Sub(start))
	}
}
