package runtime

import (
	"fmt"
	"testing"

	"partialrollback/internal/core"
	"partialrollback/internal/deadlock"
	"partialrollback/internal/sim"
)

// longPad pads each generated program to ~100 operations, longer than
// one 64-op step burst, so concurrent transactions hold locks across
// burst boundaries and contend. Shorter programs commit in one engine
// acquisition each and never wait.
const longPad = 20

// TestConcurrentStriped is the serializability property sweep (run
// with -race): for each strategy, a contended mixed workload driven by
// one goroutine per transaction must fully commit, keep the store
// consistent, pass the engine's invariant check, and stay
// conflict-serializable.
//
// The stripesN labels are the stripe counts of the retired striped
// engine, kept so the test IDs stay stable; each now names one
// strategy, and N still offsets the workload seed (41+N). The burstN
// labels name the retired -burst modes (-1 was adaptive), kept for the
// same reason: both run the one stepping rule, so burst-1 offsets the
// seed by its N to stay a distinct case.
func TestConcurrentStriped(t *testing.T) {
	cases := []struct {
		label string
		strat core.Strategy
		seed  int64
	}{
		{"stripes1", core.MCS, 42},
		{"stripes2", core.SDG, 43},
		{"stripes8", core.Total, 49},
	}
	for _, c := range cases {
		for _, n := range []int{1, -1} {
			t.Run(fmt.Sprintf("%s/burst%d", c.label, n), func(t *testing.T) {
				seed := c.seed
				if n != 1 {
					seed += int64(n)
				}
				w := sim.Generate(sim.GenConfig{
					Txns: 24, DBSize: 32, HotSet: 8, HotProb: 0.6,
					LocksPerTxn: 4, SharedProb: 0.3, RewriteProb: 0.5,
					PadOps: longPad, Shape: sim.Mixed, Seed: seed,
				})
				store := w.NewStore()
				out, err := Run(store, w.Programs, Options{
					Resolver: deadlock.Detect{},
					Strategy: c.strat, RecordHistory: true,
				})
				if err != nil {
					t.Fatal(err)
				}
				if err := store.CheckConsistent(); err != nil {
					t.Fatal(err)
				}
				if out.Stats.Commits != 24 {
					t.Errorf("commits = %d, want 24", out.Stats.Commits)
				}
				if err := out.System.CheckInvariants(); err != nil {
					t.Error(err)
				}
				if _, err := out.Recorder.CheckSerializable(); err != nil {
					t.Error(err)
				}
			})
		}
	}
}

// TestConcurrentStripedSharded runs the same sweep on its own seed (run
// with -race).
//
// label historical: the name is from the retired two-shard engine this
// sweep once ran through; it now runs the one engine.
func TestConcurrentStripedSharded(t *testing.T) {
	for _, strat := range []core.Strategy{core.MCS, core.SDG} {
		t.Run(strat.String(), func(t *testing.T) {
			w := sim.Generate(sim.GenConfig{
				Txns: 24, DBSize: 32, HotSet: 8, HotProb: 0.6,
				LocksPerTxn: 4, SharedProb: 0.3, RewriteProb: 0.5,
				PadOps: longPad, Shape: sim.Mixed, Seed: 53,
			})
			store := w.NewStore()
			out, err := Run(store, w.Programs, Options{
				Resolver: deadlock.Detect{},
				Strategy: strat, RecordHistory: true,
			})
			if err != nil {
				t.Fatal(err)
			}
			if err := store.CheckConsistent(); err != nil {
				t.Fatal(err)
			}
			if out.Stats.Commits != 24 {
				t.Errorf("commits = %d, want 24", out.Stats.Commits)
			}
			if err := out.System.CheckInvariants(); err != nil {
				t.Error(err)
			}
			if _, err := out.Recorder.CheckSerializable(); err != nil {
				t.Error(err)
			}
		})
	}
}

// TestConcurrentStripedBank drives the banking workload, whose sum
// constraint the store checks after every commit: shared reads of hot
// accounts interleave with transfers contending for exclusive locks.
func TestConcurrentStripedBank(t *testing.T) {
	const accounts, transfers = 6, 40
	w := sim.BankingWorkload(accounts, transfers, 1000, 19)
	store := w.NewStore()
	out, err := Run(store, w.Programs, Options{
		Resolver: deadlock.Detect{},
		Strategy: core.MCS, RecordHistory: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := store.CheckConsistent(); err != nil {
		t.Fatal(err)
	}
	if out.Stats.Commits != transfers {
		t.Errorf("commits = %d, want %d", out.Stats.Commits, transfers)
	}
	if err := out.System.CheckInvariants(); err != nil {
		t.Error(err)
	}
	if _, err := out.Recorder.CheckSerializable(); err != nil {
		t.Error(err)
	}
}
