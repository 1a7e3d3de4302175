package sim

import (
	"testing"

	"partialrollback/internal/core"
)

func TestSmokeGeneratedWorkloadAllStrategies(t *testing.T) {
	w := Generate(GenConfig{
		Txns: 10, DBSize: 8, HotSet: 4, HotProb: 0.8,
		LocksPerTxn: 4, RewriteProb: 0.5, Shape: Scattered, Seed: 42,
	})
	results := map[core.Strategy]Result{}
	for _, st := range []core.Strategy{core.Total, core.MCS, core.SDG} {
		r, err := Run(w, RunConfig{
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
