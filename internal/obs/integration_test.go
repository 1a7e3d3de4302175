package obs_test

import (
	"testing"

	"partialrollback/internal/core"
	"partialrollback/internal/deadlock"
	"partialrollback/internal/obs"
	"partialrollback/internal/runtime"
	"partialrollback/internal/sim"
)

// TestCollectorMatchesEngineStats drives a contended hotspot workload
// through the concurrent runtime with the collector chained onto the
// event stream and checks that the metrics agree with the engine's own
// Stats() — in particular that the rollback-depth histogram's count and
// sum equal the engine's rollback and ops-lost totals (the paper's cost
// metric, derived independently from the same events).
//
// label historical: the loop once ran the engine with 1 and 4 shards.
// Both legs now run the one engine, each on its own workload (the seed
// is offset by the leg's former shard count).
func TestCollectorMatchesEngineStats(t *testing.T) {
	for _, shards := range []int{1, 4} {
		// PadOps 40 stretches each transaction across several 64-op
		// step bursts, so concurrent transactions interleave while
		// holding locks and deadlock.
		w := sim.Generate(sim.GenConfig{
			Txns: 24, DBSize: 8, LocksPerTxn: 4,
			HotSet: 3, HotProb: 0.8, PadOps: 40, Seed: 7 + int64(shards),
		})
		reg := obs.NewRegistry()
		c := obs.NewCollector(reg)
		out, err := runtime.Run(w.NewStore(), w.Programs, runtime.Options{
			Strategy: core.MCS,
			Resolver: deadlock.Detect{},
			OnEvent:  c.OnEvent,
		})
		if err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		st := out.Stats

		checks := []struct {
			name      string
			got, want int64
		}{
			{"grants", c.Grants.Value(), st.Grants},
			{"waits", c.Waits.Value(), st.Waits},
			{"commits", c.Commits.Value(), st.Commits},
			{"deadlocks", c.Deadlocks.Value(), st.Deadlocks},
			{"victims", c.Victims.Value(), st.Victims},
			{"rollbacks", c.Rollbacks.Value(), st.Rollbacks},
			{"restarts", c.Restarts.Value(), st.Restarts},
			{"ops lost", c.OpsLost.Value(), st.OpsLost},
			{"registers", c.Registers.Value(), int64(len(w.Programs))},
			// Acceptance: the histogram is the same totals, bucketed.
			{"rollback-depth count", c.RollbackDepth.Count(), st.Rollbacks},
			{"rollback-depth sum", c.RollbackDepth.Sum(), st.OpsLost},
		}
		for _, ck := range checks {
			if ck.got != ck.want {
				t.Errorf("shards=%d: collector %s = %d, engine says %d", shards, ck.name, ck.got, ck.want)
			}
		}
		if st.Rollbacks == 0 {
			t.Errorf("shards=%d: workload produced no rollbacks; increase contention", shards)
		}
		// Every wait interval was closed by a grant or rollback.
		if got, want := c.WaitDur.Count(), st.Waits; got != want {
			t.Errorf("shards=%d: wait durations = %d, waits = %d", shards, got, want)
		}
	}
}
