package sim

import (
	"fmt"
	"testing"

	"partialrollback/internal/core"
	"partialrollback/internal/deadlock"
)

// TestBurstOneIsStepRegression pins the Burst=1 equivalence guarantee
// at full fidelity: on a seeded workload, driving the engine through
// StepBurst(id, 1) must reproduce the Step-at-a-time stepper
// byte-for-byte — same event stream, same step count, same stats, same
// final database, same serial order. This is the contract behind
// core.System.Step being StepBurst(id, 1).
//
// label historical: shardsN named the retired in-process shard count;
// both legs run the one engine, and N offsets the seed (41+N).
func TestBurstOneIsStepRegression(t *testing.T) {
	for _, strat := range []core.Strategy{core.Total, core.MCS, core.SDG} {
		for _, sched := range []Scheduler{RoundRobin, RandomPick} {
			for _, shards := range []int{0, 3} {
				t.Run(fmt.Sprintf("%v/%s/shards%d", strat, sched, shards), func(t *testing.T) {
					seed := int64(41 + shards)
					gen := GenConfig{
						Txns: 10, DBSize: 12, HotSet: 6, HotProb: 0.8,
						LocksPerTxn: 4, SharedProb: 0.2, RewriteProb: 0.5,
						PadOps: 2, Shape: Mixed, Seed: seed,
					}
					base := RunConfig{
						Resolver: deadlock.Detect{},
						Strategy: strat, Scheduler: sched, Seed: seed,
						RecordHistory: true,
					}
					stepCfg := base
					stepCfg.Burst = 0 // original Step path
					burstCfg := base
					burstCfg.Burst = 1

					rs, es := collectEvents(t, Generate(gen), stepCfg)
					rb, eb := collectEvents(t, Generate(gen), burstCfg)

					if rs.Stats != rb.Stats {
						t.Errorf("stats diverge:\n step    %+v\n burst=1 %+v", rs.Stats, rb.Stats)
					}
					if rs.Steps != rb.Steps {
						t.Errorf("steps diverge: step %d, burst=1 %d", rs.Steps, rb.Steps)
					}
					if len(es) != len(eb) {
						t.Fatalf("event counts diverge: step %d, burst=1 %d", len(es), len(eb))
					}
					for i := range es {
						if es[i] != eb[i] {
							t.Fatalf("event %d diverges:\n step    %s\n burst=1 %s", i, es[i], eb[i])
						}
					}
					ss := snapshotOf(t, rs)
					sb := snapshotOf(t, rb)
					for e, v := range ss {
						if sb[e] != v {
							t.Errorf("entity %q = %d under burst=1, %d under step", e, sb[e], v)
						}
					}
					os, err := rs.Recorder.SerialOrder()
					if err != nil {
						t.Fatal(err)
					}
					ob, err := rb.Recorder.SerialOrder()
					if err != nil {
						t.Fatal(err)
					}
					if fmt.Sprint(os) != fmt.Sprint(ob) {
						t.Errorf("serial orders diverge: step %v, burst=1 %v", os, ob)
					}
				})
			}
		}
	}
}

// TestBurstPropertySerializable is the bursty twin of the central
// randomized sweep: random workloads at every burst level (including
// far past program length, and exec.StepToCommit's bound of 64) under
// every rollback strategy must terminate, keep engine invariants, stay
// conflict-serializable, and leave the database in the state of their
// own equivalent serial order.
//
// The burst-1 label named the retired adaptive mode; it is kept so the
// test IDs stay stable and now runs at 64 with its own seed (7-1).
// label historical: shardsN named the retired in-process shard count;
// both legs run the one engine, and N offsets the seed (7+label+N).
func TestBurstPropertySerializable(t *testing.T) {
	for _, label := range []int{-1, 2, 4, 16, 64} {
		for _, shards := range []int{0, 3} {
			for _, strat := range []core.Strategy{core.Total, core.MCS, core.SDG} {
				name := fmt.Sprintf("burst%d/shards%d/%v", label, shards, strat)
				t.Run(name, func(t *testing.T) {
					seed := int64(7 + label + shards)
					burst := label
					if burst < 0 {
						burst = 64
					}
					w := Generate(GenConfig{
						Txns: 10, DBSize: 14, HotSet: 6, HotProb: 0.7,
						LocksPerTxn: 4, SharedProb: 0.25, RewriteProb: 0.5,
						PadOps: 2, Shape: Mixed, Seed: seed,
					})
					r, err := Run(w, RunConfig{
						Resolver: deadlock.Detect{},
						Strategy: strat, Scheduler: Scheduler(int(seed) % 2),
						Seed: seed, Burst: burst,
						RecordHistory: true, CheckInvariants: true,
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
