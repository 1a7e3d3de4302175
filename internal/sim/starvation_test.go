package sim

import (
	"strings"
	"testing"

	"partialrollback/internal/core"
	"partialrollback/internal/deadlock"
)

// seed107 reconstructs the workload on which the randomized soak test
// found a stable preemption ring: minimal cycle-breaking repeatedly
// freed only one of an old waiter's two shared blockers, the ring
// re-formed, and the system livelocked.
func seed107() Workload {
	return Generate(GenConfig{
		Txns: 10, DBSize: 12, HotSet: 6, HotProb: 0.8,
		LocksPerTxn: 5, SharedProb: 0.3, RewriteProb: 0.6,
		PadOps: 1, Shape: Mixed, Seed: 107,
	})
}

// TestStarvationEscalationBreaksRing is the regression test for the
// livelock: with escalation disabled the run must exceed its step
// budget; with the default limit it terminates, and the escalation
// counter shows the mechanism fired.
func TestStarvationEscalationBreaksRing(t *testing.T) {
	base := RunConfig{
		Strategy: core.MCS, Resolver: deadlock.Detect{},
		Scheduler: RandomPick, Seed: 107 * 7,
		MaxSteps: 300_000,
	}

	disabled := base
	disabled.Resolver = deadlock.Detect{StarvationLimit: -1}
	if _, err := Run(seed107(), disabled); err == nil {
		t.Fatal("without escalation the ring should livelock past the step budget")
	} else if !strings.Contains(err.Error(), "exceeded") {
		t.Fatalf("unexpected failure mode: %v", err)
	}

	r, err := Run(seed107(), base)
	if err != nil {
		t.Fatalf("with escalation: %v", err)
	}
	if r.Committed != 10 {
		t.Fatalf("commits = %d", r.Committed)
	}
	if r.Stats.Escalations == 0 {
		t.Error("escalation counter should have fired on this workload")
	}
}

// TestEscalationPreservesCorrectness: escalated runs still satisfy the
// serializability and serial-state oracles.
func TestEscalationPreservesCorrectness(t *testing.T) {
	r, err := Run(seed107(), RunConfig{
		Strategy: core.MCS, Resolver: deadlock.Detect{},
		Scheduler: RandomPick, Seed: 107 * 7,
		RecordHistory: true, MaxSteps: 300_000,
	})
	if err != nil {
		t.Fatal(err)
	}
	order, err := r.Recorder.SerialOrder()
	if err != nil {
		t.Fatal(err)
	}
	want := runSerialOrder(t, seed107(), order)
	snap := r.Store.Snapshot()
	for e, wv := range want {
		if snap[e] != wv {
			t.Errorf("entity %q = %d, oracle %d", e, snap[e], wv)
		}
	}
}
