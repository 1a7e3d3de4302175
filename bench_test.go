// Benchmarks regenerating every figure and experiment of EXPERIMENTS.md
// (one per paper artifact; DESIGN.md §4 maps IDs to paper sections).
// Run with:
//
//	go test -bench=. -benchmem
package partialrollback_test

import (
	"testing"

	pr "partialrollback"
	"partialrollback/internal/core"
	"partialrollback/internal/deadlock"
	"partialrollback/internal/experiments"
	"partialrollback/internal/lock"
	"partialrollback/internal/sim"
	"partialrollback/internal/txn"
	"partialrollback/internal/waitfor"
)

// BenchmarkE1Figure1 regenerates Figure 1: exclusive-lock deadlock,
// cost-optimal victim (costs 4/6/5, victim T2).
func BenchmarkE1Figure1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, _, err := experiments.E1Figure1()
		if err != nil {
			b.Fatal(err)
		}
		if res.Victim != 2 {
			b.Fatalf("victim T%d", res.Victim)
		}
	}
}

// BenchmarkE2Figure2 regenerates Figure 2: mutual preemption under
// min-cost vs the Theorem 2 ordered policy.
func BenchmarkE2Figure2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, _, err := experiments.E2Figure2(10); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE3Figure3 regenerates Figure 3's three shared/exclusive
// scenarios.
func BenchmarkE3Figure3(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.E3Figure3(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE4Figure4 regenerates Figure 4: state-dependency graph and
// well-defined states.
func BenchmarkE4Figure4(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, _, err := experiments.E4Figure4(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE5Figure5 regenerates Figure 5: clustered writes vs
// scattered writes.
func BenchmarkE5Figure5(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, _, err := experiments.E5Figure5(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE6Forest runs the Theorem 1 forest-property sweep.
func BenchmarkE6Forest(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, _, err := experiments.E6Forest(3); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE7MCSBound measures Theorem 3's n(n+1)/2 space bound.
func BenchmarkE7MCSBound(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, _, err := experiments.E7MCSBound([]int{4, 16, 64})
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			if r.EntityElems != r.EntityBound {
				b.Fatalf("bound not tight at n=%d", r.N)
			}
		}
	}
}

// BenchmarkE8Cutset compares exact and greedy vertex cuts (§3.2's
// NP-complete victim optimization).
func BenchmarkE8Cutset(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, _, err := experiments.E8Cutset([]int{4, 8, 12}, 10, int64(i)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE9Strategies runs the lost-progress comparison across
// strategies and contention levels.
func BenchmarkE9Strategies(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, _, err := experiments.E9Strategies(42); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE10Structure runs the §5 write-placement sweep under the
// single-copy strategy.
func BenchmarkE10Structure(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, _, err := experiments.E10Structure(42); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE11Distributed runs the §3.3 multi-site wound-wait sweep.
func BenchmarkE11Distributed(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, _, err := experiments.E11Distributed(42); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE12Avoidance runs the avoidance-baseline comparison.
func BenchmarkE12Avoidance(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, _, err := experiments.E12Avoidance(42); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE13Hybrid runs the bounded-extra-copies sweep (the paper's
// closing question).
func BenchmarkE13Hybrid(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, _, err := experiments.E13Hybrid(42); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE14Optimizer runs the compile-time clustering comparison.
func BenchmarkE14Optimizer(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, _, err := experiments.E14Optimizer(42); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE15MessagePassing runs the fully distributed message-passing
// sweep.
func BenchmarkE15MessagePassing(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, _, err := experiments.E15MessagePassing(42); err != nil {
			b.Fatal(err)
		}
	}
}

// Micro-benchmarks of the engine itself.

// BenchmarkStepThroughput measures raw engine throughput: operations
// per second on a moderately contended workload, per strategy.
func BenchmarkStepThroughput(b *testing.B) {
	for _, st := range []core.Strategy{core.Total, core.MCS, core.SDG} {
		b.Run(st.String(), func(b *testing.B) {
			w := sim.Generate(sim.GenConfig{
				Txns: 16, DBSize: 32, HotSet: 8, HotProb: 0.7,
				LocksPerTxn: 5, RewriteProb: 0.3, Shape: sim.Mixed, Seed: 9,
			})
			b.ResetTimer()
			var ops int64
			for i := 0; i < b.N; i++ {
				r, err := sim.Run(w, sim.RunConfig{
					Strategy: st, Resolver: deadlock.Detect{},
					Scheduler: sim.RoundRobin, Seed: 9,
				})
				if err != nil {
					b.Fatal(err)
				}
				ops += r.TotalOps
			}
			b.ReportMetric(float64(ops)/float64(b.N), "ops/run")
		})
	}
}

// BenchmarkDeadlockResolution measures the cost of one
// detect-and-resolve round trip (the Figure 1 scenario end to end).
func BenchmarkDeadlockResolution(b *testing.B) {
	for i := 0; i < b.N; i++ {
		store := pr.NewStore(map[string]int64{"x": 0, "y": 0})
		sys := pr.New(pr.Config{Store: store, Strategy: pr.MCS})
		t1 := sys.MustRegister(pr.NewProgram("a").Local("v", 0).LockX("x").LockX("y").MustBuild())
		t2 := sys.MustRegister(pr.NewProgram("b").Local("v", 0).LockX("y").LockX("x").MustBuild())
		mustStep(b, sys, t1)     // t1 locks x
		mustStep(b, sys, t2)     // t2 locks y
		mustStep(b, sys, t1)     // t1 waits y
		res, err := sys.Step(t2) // t2 requests x -> deadlock
		if err != nil {
			b.Fatal(err)
		}
		if res.Outcome != pr.BlockedDeadlock && res.Outcome != pr.Progressed {
			b.Fatalf("outcome %v", res.Outcome)
		}
	}
}

func mustStep(b *testing.B, sys *pr.System, id pr.TxnID) {
	b.Helper()
	if _, err := sys.Step(id); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkConcurrentRuntime measures the goroutine driver on the
// banking workload.
func BenchmarkConcurrentRuntime(b *testing.B) {
	w := sim.BankingWorkload(8, 32, 1000, 5)
	for i := 0; i < b.N; i++ {
		store := w.NewStore()
		if _, err := pr.RunConcurrent(store, w.Programs, pr.RunOptions{Strategy: pr.MCS}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBookkeepingOverhead isolates the per-operation cost of each
// strategy's rollback bookkeeping on an uncontended single transaction
// — §4's claim that maintaining the state-dependency graph is cheap,
// versus MCS's stack pushes and Total's absence of monitoring.
func BenchmarkBookkeepingOverhead(b *testing.B) {
	prog := func() *pr.Program {
		bld := pr.NewProgram("bench").Local("v", 0).Local("acc", 0)
		for k := 0; k < 8; k++ {
			e := entityName(k)
			bld.LockX(e).Read(e, "v")
			for w := 0; w < 4; w++ {
				bld.Compute("acc", pr.Add(pr.L("acc"), pr.L("v"))).
					Write(e, pr.Add(pr.L("v"), pr.C(1)))
			}
		}
		return bld.MustBuild()
	}()
	for _, st := range []core.Strategy{core.Total, core.SDG, core.MCS, core.Hybrid} {
		b.Run(st.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				store := pr.NewUniformStore("e", 8, 0)
				sys := pr.New(pr.Config{Store: store, Strategy: st, HybridBudget: 4})
				id := sys.MustRegister(prog)
				for {
					res, err := sys.Step(id)
					if err != nil {
						b.Fatal(err)
					}
					if res.Outcome == pr.Committed {
						break
					}
				}
			}
			b.ReportMetric(float64(len(prog.Ops)), "ops/txn")
		})
	}
}

func entityName(k int) string {
	return string(rune('e')) + string(rune('0'+k))
}

// BenchmarkLockTable measures raw lock-table acquire/release cycles.
func BenchmarkLockTable(b *testing.B) {
	tab := lock.NewTable()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		id := txn.ID(i%64 + 1)
		name := entityName(i % 8)
		if granted, _, err := tab.Acquire(id, name, lock.Exclusive); err == nil && granted {
			if _, err := tab.Release(id, name); err != nil {
				b.Fatal(err)
			}
		} else if _, w := tab.WaitingOn(id); w {
			tab.RemoveWaiter(id, name)
		}
	}
}

// BenchmarkCycleDetection measures wait-for cycle search on a graph the
// size of a busy system.
func BenchmarkCycleDetection(b *testing.B) {
	g := waitfor.New()
	for i := 1; i <= 64; i++ {
		g.AddTxn(txn.ID(i))
	}
	// A long chain plus side edges; the probe vertex closes nothing.
	for i := 1; i < 64; i++ {
		g.AddWait(txn.ID(i), txn.ID(i+1), "e")
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if got := g.CyclesThrough(1, 4); len(got) != 0 {
			b.Fatal("unexpected cycle")
		}
	}
}
