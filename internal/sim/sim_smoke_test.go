package sim

import (
	"strings"
	"testing"

	"partialrollback/internal/core"
	"partialrollback/internal/deadlock"
	"partialrollback/internal/txn"
)

func TestSmokeGeneratedWorkloadAllStrategies(t *testing.T) {
	w := Generate(GenConfig{
		Txns: 10, DBSize: 8, HotSet: 4, HotProb: 0.8,
		LocksPerTxn: 4, RewriteProb: 0.5, Shape: Scattered, Seed: 42,
	})
	results := map[core.Strategy]Result{}
	for _, st := range []core.Strategy{core.Total, core.MCS, core.SDG} {
		r, err := Run(w, RunConfig{
			Resolver: deadlock.Detect{},
			Strategy: st, Scheduler: RoundRobin, RecordHistory: true, CheckInvariants: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		results[st] = r
		if r.Committed != 10 {
			t.Errorf("%v: committed %d, want 10", st, r.Committed)
		}
		if _, err := r.Recorder.CheckSerializable(); err != nil {
			t.Errorf("%v: %v", st, err)
		}
		t.Logf("%v", r)
	}
	if results[core.Total].Stats.Deadlocks == 0 {
		t.Error("expected deadlocks in hot-set workload")
	}
}

// TestNoResolver: without a Resolver nothing breaks a cycle, so the
// smoke workload above, which deadlocks under detection, stalls and Run
// fails; the same programs with their locks ordered commit, and the
// result names no policy.
func TestNoResolver(t *testing.T) {
	w := Generate(GenConfig{
		Txns: 10, DBSize: 8, HotSet: 4, HotProb: 0.8,
		LocksPerTxn: 4, RewriteProb: 0.5, Shape: Scattered, Seed: 42,
	})
	_, err := Run(w, RunConfig{Strategy: core.Total, Scheduler: RoundRobin})
	if err == nil || !strings.Contains(err.Error(), "no runnable transactions") {
		t.Fatalf("unresolved cycle: got err %v, want a stall", err)
	}
	for i, p := range w.Programs {
		w.Programs[i] = txn.OrderLocks(p)
	}
	r, err := Run(w, RunConfig{Strategy: core.Total, Scheduler: RoundRobin, CheckInvariants: true})
	if err != nil {
		t.Fatal(err)
	}
	if r.Committed != 10 || r.Policy != "none" || r.Stats.Deadlocks != 0 {
		t.Errorf("ordered: committed %d, policy %q, deadlocks %d; want 10, none, 0", r.Committed, r.Policy, r.Stats.Deadlocks)
	}
}
