package sim

import (
	"fmt"
	"testing"

	"partialrollback/internal/core"
	"partialrollback/internal/deadlock"
	"partialrollback/internal/txn"
)

// runSerialOrder replays the programs sequentially in the given order
// on a fresh store and returns the final snapshot.
func runSerialOrder(t *testing.T, w Workload, order []txn.ID) map[string]int64 {
	t.Helper()
	store := w.NewStore()
	s := core.New(core.Config{Store: store, Strategy: core.Total})
	// IDs are assigned 1..n in registration order.
	for _, id := range order {
		p := w.Programs[int(id)-1].Clone()
		nid, err := s.Register(p)
		if err != nil {
			t.Fatal(err)
		}
		for {
			res, err := s.Step(nid)
			if err != nil {
				t.Fatal(err)
			}
			if res.Outcome == core.Committed {
				break
			}
			if res.Outcome != core.Progressed {
				t.Fatalf("serial replay blocked: %v", res.Outcome)
			}
		}
	}
	return store.Snapshot()
}

// TestPropertySerializableAcrossMatrix is the central randomized
// correctness sweep: random workloads, every strategy, several
// policies, both schedulers — each run must terminate, keep engine
// invariants, be conflict-serializable, and leave the database in the
// state of its own equivalent serial order.
func TestPropertySerializableAcrossMatrix(t *testing.T) {
	// Only the ordering-based policies are livelock-free (Theorem 2);
	// MinCost and Requester can preempt forever on symmetric workloads
	// (demonstrated by experiment E2), so closed-loop runs use these.
	policies := []deadlock.Policy{
		deadlock.OrderedMinCost{},
		deadlock.Oldest{},
	}
	shapes := []WriteShape{Scattered, Clustered, ThreePhase, Mixed}
	seeds := []int64{1, 2, 3}
	for _, strat := range []core.Strategy{core.Total, core.MCS, core.SDG, core.Hybrid} {
		for pi, pol := range policies {
			for si, shape := range shapes {
				seed := seeds[(pi+si)%len(seeds)]
				name := fmt.Sprintf("%v/%s/%s/seed%d", strat, pol.Name(), shape, seed)
				t.Run(name, func(t *testing.T) {
					w := Generate(GenConfig{
						Txns: 8, DBSize: 10, HotSet: 5, HotProb: 0.75,
						LocksPerTxn: 4, SharedProb: 0.25, RewriteProb: 0.5,
						PadOps: 2, Shape: shape, Seed: seed,
					})
					r, err := Run(w, RunConfig{
						Strategy: strat, Resolver: deadlock.Detect{Policy: pol},
						Scheduler: Scheduler(si % 2), Seed: seed,
						RecordHistory: true, CheckInvariants: true,
						MaxSteps: 500000,
					})
					if err != nil {
						t.Fatal(err)
					}
					if r.Committed != 8 {
						t.Fatalf("committed %d", r.Committed)
					}
					order, err := r.Recorder.SerialOrder()
					if err != nil {
						t.Fatal(err)
					}
					// Recompute the final state from scratch serially.
					want := runSerialOrder(t, w, order)
					snap := snapshotOf(t, r)
					for e, wantV := range want {
						if snap[e] != wantV {
							t.Errorf("entity %q = %d, serial oracle %d", e, snap[e], wantV)
						}
					}
				})
			}
		}
	}
}

// TestShardPropertySerializable is a second randomized sweep with the
// central sweep's checks: random workloads under every rollback strategy
// must terminate, keep engine invariants, stay conflict-serializable,
// and leave the database in the state of their own equivalent serial
// order.
//
// label historical: shardsN named the retired in-process shard count;
// every leg runs the one engine, and N offsets the seed (seed+N).
func TestShardPropertySerializable(t *testing.T) {
	for _, shards := range []int{2, 3, 4} {
		for _, strat := range []core.Strategy{core.Total, core.MCS, core.SDG} {
			for _, seed := range []int64{1, 5, 9} {
				name := fmt.Sprintf("shards%d/%v/seed%d", shards, strat, seed)
				t.Run(name, func(t *testing.T) {
					seed := seed + int64(shards)
					w := Generate(GenConfig{
						Txns: 10, DBSize: 14, HotSet: 6, HotProb: 0.7,
						LocksPerTxn: 4, SharedProb: 0.25, RewriteProb: 0.5,
						PadOps: 2, Shape: Mixed, Seed: seed,
					})
					r, err := Run(w, RunConfig{
						Resolver: deadlock.Detect{},
						Strategy: strat, Scheduler: Scheduler(int(seed) % 2),
						Seed: seed, RecordHistory: true, CheckInvariants: true,
						MaxSteps: 500000,
					})
					if err != nil {
						t.Fatal(err)
					}
					if r.Committed != 10 {
						t.Fatalf("committed %d", r.Committed)
					}
					order, err := r.Recorder.SerialOrder()
					if err != nil {
						t.Fatal(err)
					}
					want := runSerialOrder(t, w, order)
					snap := snapshotOf(t, r)
					for e, wantV := range want {
						if snap[e] != wantV {
							t.Errorf("entity %q = %d, serial oracle %d", e, snap[e], wantV)
						}
					}
				})
			}
		}
	}
}

// snapshotOf extracts the final database of a finished run.
func snapshotOf(t *testing.T, r Result) map[string]int64 {
	t.Helper()
	if r.Store == nil {
		t.Fatal("run result lacks store")
	}
	return r.Store.Snapshot()
}

// TestWaitDiePreventionTerminates: the wait-die rule may self-roll-back
// repeatedly but always terminates (timestamps persist, so the oldest
// always wins).
func TestPreventionModes(t *testing.T) {
	for _, tc := range []struct {
		name string
		prev core.Resolver
	}{{"wound-wait", deadlock.WoundWait{}}, {"wait-die", deadlock.WaitDie{}}} {
		prev := tc.prev
		t.Run(tc.name, func(t *testing.T) {
			w := Generate(GenConfig{
				Txns: 8, DBSize: 10, HotSet: 5, HotProb: 0.8,
				LocksPerTxn: 4, RewriteProb: 0.3, Shape: Mixed, Seed: 17,
			})
			r, err := Run(w, RunConfig{
				Strategy: core.MCS, Resolver: prev,
				Scheduler: RoundRobin, RecordHistory: true,
				CheckInvariants: true, MaxSteps: 500000,
			})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := r.Recorder.CheckSerializable(); err != nil {
				t.Error(err)
			}
			st := r.Stats
			switch prev.(type) {
			case deadlock.WoundWait:
				if st.Wounds == 0 {
					t.Error("expected wounds under contention")
				}
			case deadlock.WaitDie:
				if st.Dies == 0 {
					t.Error("expected dies under contention")
				}
			}
		})
	}
}

func TestGeneratorDeterminism(t *testing.T) {
	cfg := GenConfig{Txns: 6, DBSize: 12, LocksPerTxn: 4, Shape: Mixed, Seed: 5, SharedProb: 0.3, RewriteProb: 0.4}
	w1 := Generate(cfg)
	w2 := Generate(cfg)
	if len(w1.Programs) != len(w2.Programs) {
		t.Fatal("program counts differ")
	}
	for i := range w1.Programs {
		if w1.Programs[i].String() != w2.Programs[i].String() {
			t.Errorf("program %d differs between identical seeds", i)
		}
	}
	w3 := Generate(GenConfig{Txns: 6, DBSize: 12, LocksPerTxn: 4, Shape: Mixed, Seed: 6, SharedProb: 0.3, RewriteProb: 0.4})
	same := true
	for i := range w1.Programs {
		if w1.Programs[i].String() != w3.Programs[i].String() {
			same = false
		}
	}
	if same {
		t.Error("different seeds generated identical workloads")
	}
}

func TestGeneratedProgramsValid(t *testing.T) {
	for _, shape := range []WriteShape{Scattered, Clustered, ThreePhase, Mixed} {
		w := Generate(GenConfig{Txns: 10, DBSize: 8, LocksPerTxn: 5, SharedProb: 0.4, RewriteProb: 0.7, Shape: shape, Seed: 3})
		for _, p := range w.Programs {
			if err := txn.Validate(p); err != nil {
				t.Errorf("%s: %v", shape, err)
			}
		}
	}
}

func TestThreePhaseShapeIsThreePhase(t *testing.T) {
	w := Generate(GenConfig{Txns: 5, DBSize: 8, LocksPerTxn: 4, Shape: ThreePhase, Seed: 1})
	for _, p := range w.Programs {
		if !txn.IsThreePhase(p) {
			t.Errorf("%s not three-phase:\n%s", p.Name, p)
		}
	}
}

func TestBankingWorkloadInvariant(t *testing.T) {
	w := BankingWorkload(6, 20, 500, 2)
	for _, strat := range []core.Strategy{core.Total, core.SDG} {
		r, err := Run(w, RunConfig{Strategy: strat, Resolver: deadlock.Detect{}, Scheduler: RandomPick, Seed: 7})
		if err != nil {
			t.Fatal(err)
		}
		if r.Committed != 20 {
			t.Errorf("committed %d", r.Committed)
		}
	}
}

// TestLongHaulRandomSweep is the wide-net soak: many seeds, random
// schedulers, every strategy, full invariant and oracle checking.
// Skipped under -short.
func TestLongHaulRandomSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("long haul")
	}
	for seed := int64(100); seed < 160; seed++ {
		for _, strat := range []core.Strategy{core.Total, core.MCS, core.SDG, core.Hybrid} {
			w := Generate(GenConfig{
				Txns: 10, DBSize: 12, HotSet: 6, HotProb: 0.8,
				LocksPerTxn: 5, SharedProb: 0.3, RewriteProb: 0.6,
				PadOps: 1, Shape: Mixed, Seed: seed,
			})
			r, err := Run(w, RunConfig{
				Resolver: deadlock.Detect{},
				Strategy: strat, Scheduler: RandomPick, Seed: seed * 7,
				RecordHistory: true, MaxSteps: 2_000_000,
				HybridBudget: 2,
			})
			if err != nil {
				t.Fatalf("seed %d %v: %v", seed, strat, err)
			}
			order, err := r.Recorder.SerialOrder()
			if err != nil {
				t.Fatalf("seed %d %v: %v", seed, strat, err)
			}
			want := runSerialOrder(t, w, order)
			snap := r.Store.Snapshot()
			for e, wv := range want {
				if snap[e] != wv {
					t.Fatalf("seed %d %v: entity %q = %d, oracle %d", seed, strat, e, snap[e], wv)
				}
			}
		}
	}
}

// TestPropertyOrderedLocksNeverDeadlock is E24's sweep: hotspot's
// generator, with and without shared locks, under every strategy that
// keeps rollback targets (total|mcs|sdg) and both schedulers. Passed
// through txn.OrderLocks, the programs never raise EventDeadlock, never
// roll back, execute exactly their own length, and leave a
// serializable history whose serial replay reproduces the store. The
// as-sent counters are logged beside them (-v) for EXPERIMENTS.md.
func TestPropertyOrderedLocksNeverDeadlock(t *testing.T) {
	const txns = 32
	for _, shared := range []float64{0, 0.5} {
		for _, strat := range []core.Strategy{core.Total, core.MCS, core.SDG} {
			for _, seed := range []int64{1, 2, 3} {
				sched := Scheduler(int(seed) % 2)
				name := fmt.Sprintf("shared%.1f/%v/%v/seed%d", shared, strat, sched, seed)
				t.Run(name, func(t *testing.T) {
					sent := Generate(GenConfig{
						Txns: txns, DBSize: 64, HotSet: 6, HotProb: 0.9, LocksPerTxn: 5,
						SharedProb: shared, PadOps: 40, Shape: Clustered, Seed: seed,
					})
					ordered := sent
					ordered.Programs = make([]*txn.Program, len(sent.Programs))
					length := int64(0)
					for i, p := range sent.Programs {
						ordered.Programs[i] = txn.OrderLocks(p)
						length += int64(len(p.Ops) - 1) // TotalOps omits Commit
					}
					deadlocks := 0
					r, err := Run(ordered, RunConfig{
						Resolver: deadlock.Detect{},
						Strategy: strat, Scheduler: sched, Seed: seed,
						RecordHistory: true,
						OnEvent: func(e core.Event) {
							if e.Kind == core.EventDeadlock {
								deadlocks++
							}
						},
					})
					if err != nil {
						t.Fatal(err)
					}
					if r.Committed != txns {
						t.Fatalf("committed %d of %d", r.Committed, txns)
					}
					if deadlocks != 0 || r.Stats.Deadlocks != 0 || r.Stats.Rollbacks != 0 {
						t.Fatalf("ordered programs: %d deadlock events, stats deadlocks=%d rollbacks=%d",
							deadlocks, r.Stats.Deadlocks, r.Stats.Rollbacks)
					}
					if r.TotalOps != length {
						t.Errorf("ordered programs executed %d ops, want their length %d", r.TotalOps, length)
					}
					order, err := r.Recorder.SerialOrder()
					if err != nil {
						t.Fatal(err)
					}
					snap := snapshotOf(t, r)
					for e, want := range runSerialOrder(t, ordered, order) {
						if snap[e] != want {
							t.Errorf("entity %q = %d, serial oracle %d", e, snap[e], want)
						}
					}

					base, err := Run(sent, RunConfig{Strategy: strat, Resolver: deadlock.Detect{}, Scheduler: sched, Seed: seed})
					if err != nil {
						t.Fatal(err)
					}
					t.Logf("per commit  as sent: steps %.1f executed %.1f rolled back %.1f deadlocks %.2f waits %.2f"+
						" | ordered: steps %.1f executed %.1f waits %.2f",
						perCommit(base.Steps, txns), perCommit(base.TotalOps, txns),
						perCommit(base.Stats.OpsLost, txns), perCommit(base.Stats.Deadlocks, txns),
						perCommit(base.Stats.Waits, txns),
						perCommit(r.Steps, txns), perCommit(r.TotalOps, txns), perCommit(r.Stats.Waits, txns))
				})
			}
		}
	}
}

func perCommit(n int64, commits int) float64 { return float64(n) / float64(commits) }
