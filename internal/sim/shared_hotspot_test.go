package sim

import (
	"fmt"
	"testing"

	"partialrollback/internal/core"
	"partialrollback/internal/deadlock"
)

// TestSharedHotspotManyCycles runs hotspot's generator with shared
// locks at 64 transactions. In these four seeds one request closes
// more than 64 cycles through the requester, so victims chosen from a
// capped sample of cycles leave one unbroken. Every run must commit
// everything, keep the engine's invariants (the graph minus the
// requester is acyclic at every detection) and stay serializable.
func TestSharedHotspotManyCycles(t *testing.T) {
	for _, tc := range []struct {
		shared float64
		seed   int64
	}{{0.5, 2}, {0.7, 1}, {0.7, 4}, {0.7, 17}} {
		t.Run(fmt.Sprintf("shared%.1f/seed%d", tc.shared, tc.seed), func(t *testing.T) {
			t.Parallel()
			w := Generate(GenConfig{
				Txns: 64, DBSize: 64, LocksPerTxn: 5, HotSet: 6, HotProb: 0.9,
				SharedProb: tc.shared, RewriteProb: 0.4, PadOps: 3,
				Shape: Clustered, Seed: tc.seed,
			})
			r, err := Run(w, RunConfig{
				Resolver: deadlock.Detect{},
				Strategy: core.MCS, Scheduler: RandomPick, Seed: tc.seed,
				RecordHistory: true, CheckInvariants: true,
			})
			if err != nil {
				t.Fatal(err)
			}
			if r.Committed != len(w.Programs) {
				t.Fatalf("committed %d of %d", r.Committed, len(w.Programs))
			}
			if _, err := r.Recorder.CheckSerializable(); err != nil {
				t.Fatal(err)
			}
		})
	}
}
