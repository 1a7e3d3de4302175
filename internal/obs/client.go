package obs

import (
	"sync/atomic"
	"time"
)

// ClientMetrics accumulates a network client's view of the service:
// attempts, retries after server-side rollbacks or transport failures,
// terminal failures, rollback notifications observed, and end-to-end
// commit latency. One ClientMetrics may be shared by many
// internal/client.Mux instances (all fields are atomic); pass it via
// client.MuxConfig.Metrics.
type ClientMetrics struct {
	// Attempts counts transaction submissions (first tries and retries).
	Attempts atomic.Int64
	// Retries counts re-submissions after a retryable failure.
	Retries atomic.Int64
	// Commits counts transactions that ended committed.
	Commits atomic.Int64
	// Failures counts transactions that ended in a terminal error.
	Failures atomic.Int64
	// RollbacksObserved counts partial-rollback notifications streamed
	// by the server while our transactions executed.
	RollbacksObserved atomic.Int64

	// latency is nil unless the metrics were built by NewClientMetrics.
	latency *Histogram
}

// ClientLatencyBuckets bounds the commit-latency histogram
// (milliseconds).
var ClientLatencyBuckets = []int64{1, 2, 5, 10, 25, 50, 100, 250, 500, 1000, 5000}

// NewClientMetrics registers client counters and the commit-latency
// histogram on reg under the "pr_client_" prefix and returns the
// ClientMetrics feeding them.
func NewClientMetrics(reg *Registry) *ClientMetrics {
	m := &ClientMetrics{}
	reg.NewGauge("pr_client_attempts_total", "Transaction submissions (first tries and retries).", m.Attempts.Load)
	reg.NewGauge("pr_client_retries_total", "Re-submissions after retryable failures.", m.Retries.Load)
	reg.NewGauge("pr_client_commits_total", "Transactions committed.", m.Commits.Load)
	reg.NewGauge("pr_client_failures_total", "Transactions that failed terminally.", m.Failures.Load)
	reg.NewGauge("pr_client_rollbacks_observed_total", "Partial-rollback notifications received.", m.RollbacksObserved.Load)
	m.latency = reg.NewHistogram("pr_client_commit_latency_ms",
		"End-to-end transaction latency across attempts, milliseconds.", ClientLatencyBuckets)
	return m
}

// ObserveCommit records one committed transaction's end-to-end latency.
func (m *ClientMetrics) ObserveCommit(d time.Duration) {
	m.Commits.Add(1)
	if m.latency != nil {
		m.latency.Observe(d.Milliseconds())
	}
}

// Latency returns the commit-latency histogram (nil unless built by
// NewClientMetrics).
func (m *ClientMetrics) Latency() *Histogram { return m.latency }
