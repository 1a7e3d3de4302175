package runtime

import (
	"fmt"
	goruntime "runtime"
	"testing"

	"partialrollback/internal/core"
	"partialrollback/internal/deadlock"
	"partialrollback/internal/sim"
)

// TestSharedHotspotConcurrent drives hotspot's generator with shared
// locks through exec.StepToCommit, one goroutine per transaction: the
// node's loop in the regime where one request closes many cycles.
// Every transaction must commit without an engine error, and the
// history must be conflict-serializable. sim's TestSharedHotspotManyCycles
// is the deterministic reproduction of the same configurations.
func TestSharedHotspotConcurrent(t *testing.T) {
	// On one P the driver thrashes here: a requester that rolls itself
	// back re-takes its shared lock (shared grants jump queued
	// exclusive waiters), closes the same cycle again and finds its own
	// wake token without yielding, while the transactions that would
	// end the pattern wait for the CPU. With 40 pad ops per interval it
	// spins through its step budget. Four Ps keep the run short.
	defer goruntime.GOMAXPROCS(goruntime.GOMAXPROCS(4))
	for _, tc := range []struct {
		shared float64
		seed   int64
	}{{0.5, 2}, {0.7, 1}, {0.7, 4}, {0.7, 17}} {
		t.Run(fmt.Sprintf("shared%.1f/seed%d", tc.shared, tc.seed), func(t *testing.T) {
			w := sim.Generate(sim.GenConfig{
				Txns: 64, DBSize: 64, LocksPerTxn: 5, HotSet: 6, HotProb: 0.9,
				SharedProb: tc.shared, RewriteProb: 0.4, PadOps: 10,
				Shape: sim.Clustered, Seed: tc.seed,
			})
			store := w.NewStore()
			out, err := Run(store, w.Programs, Options{Strategy: core.MCS, Resolver: deadlock.Detect{}, RecordHistory: true})
			if err != nil {
				t.Fatal(err)
			}
			if err := store.CheckConsistent(); err != nil {
				t.Fatal(err)
			}
			if err := out.System.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
			if _, err := out.Recorder.CheckSerializable(); err != nil {
				t.Fatal(err)
			}
			t.Logf("%d commits, %d deadlocks", out.Stats.Commits, out.Stats.Deadlocks)
		})
	}
}
