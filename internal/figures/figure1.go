package figures

import (
	"fmt"

	"partialrollback/internal/core"
	"partialrollback/internal/deadlock"
	"partialrollback/internal/entity"
	"partialrollback/internal/txn"
	"partialrollback/internal/value"
	"partialrollback/internal/waitfor"
)

// Figure1Result reproduces §3.1's worked example. Paper facts asserted:
//
//   - the concurrency graph before the final request is a forest;
//   - T4's request for c closes exactly one cycle {T4, T3, T2};
//   - rollback costs are T2: 12-8=4, T3: 11-5=6, T4: 15-10=5;
//   - the min-cost victim is T2, rolled back until it releases b;
//   - afterwards T1 no longer waits for T2 (Figure 1(b)).
type Figure1Result struct {
	// T1..T6 are the transaction IDs, indexed 1..6 (index 0 unused).
	T [7]txn.ID
	// ArcsBefore is the concurrency graph just before T4's request.
	ArcsBefore []waitfor.Arc
	// Report is the deadlock report for T4's request on c.
	Report *core.DeadlockReport
	// Costs are the candidate rollback costs by transaction index.
	Costs map[int]int64
	// Victim is the transaction index chosen (want 2).
	Victim int
	// ArcsAfter is the concurrency graph after resolution (Figure 1(b)).
	ArcsAfter []waitfor.Arc
	// T1Waiting and T3HoldsB capture the post-rollback facts.
	T1Waiting bool
	T3HoldsB  bool
	// ForestBefore is Theorem 1's check on the pre-deadlock graph.
	ForestBefore bool
	// Sys is the engine, for further inspection.
	Sys *core.System
}

// prefixProg builds a transaction that locks a private entity, pads to
// the desired state indices, and issues its contested requests at the
// paper's exact state numbers.
func fig1T1() *txn.Program {
	// Requests d at state index 3.
	b := txn.NewProgram("T1").Local("acc", 0).LockX("p1")
	padded(b, 2)
	return b.LockX("d").MustBuild()
}

func fig1T2() *txn.Program {
	// Locks b at state 8, d at state 10, requests e at state 12.
	b := txn.NewProgram("T2").Local("acc", 0).LockX("p2")
	padded(b, 7) // states 1..7; request b at state 8
	b.LockX("b")
	padded(b, 1) // state 10 next
	b.LockX("d")
	padded(b, 1)
	return b.LockX("e").MustBuild()
}

func fig1T3() *txn.Program {
	// Locks c at state 5, requests b at state 11.
	b := txn.NewProgram("T3").Local("acc", 0).LockX("p3")
	padded(b, 4)
	b.LockX("c")
	padded(b, 5)
	return b.LockX("b").MustBuild()
}

func fig1T4() *txn.Program {
	// Locks e at state 10, requests c at state 15.
	b := txn.NewProgram("T4").Local("acc", 0).LockX("p4")
	padded(b, 9)
	b.LockX("e")
	padded(b, 4)
	return b.LockX("c").MustBuild()
}

func fig1T5() *txn.Program {
	return txn.NewProgram("T5").Local("acc", 0).LockX("p5").
		Compute("acc", value.C(1)).LockX("h").MustBuild()
}

func fig1T6() *txn.Program {
	b := txn.NewProgram("T6").Local("acc", 0).LockX("h")
	return padded(b, 30).MustBuild()
}

// Figure1Store returns the entity store for the Figure 1 scenario.
func Figure1Store() *entity.Store {
	return entity.NewStore(map[string]int64{
		"b": 0, "c": 0, "d": 0, "e": 0, "h": 0,
		"p1": 0, "p2": 0, "p3": 0, "p4": 0, "p5": 0,
	})
}

// RunFigure1 executes the Figure 1 scenario under the multi-copy
// strategy with the pure min-cost policy and returns the observed
// facts.
func RunFigure1() (*Figure1Result, error) {
	sys := core.New(core.Config{
		Store:    Figure1Store(),
		Strategy: core.MCS,
		Resolver: deadlock.Detect{Policy: deadlock.MinCost{}},
	})
	res := &Figure1Result{Sys: sys, Costs: map[int]int64{}}
	progs := []*txn.Program{nil, fig1T1(), fig1T2(), fig1T3(), fig1T4(), fig1T5(), fig1T6()}
	for i := 1; i <= 6; i++ {
		id, err := sys.Register(progs[i])
		if err != nil {
			return nil, err
		}
		res.T[i] = id
	}
	// Build the Figure 1(a) configuration.
	if err := stepN(sys, res.T[2], 11); err != nil { // T2 holds p2, b, d
		return nil, err
	}
	if err := stepN(sys, res.T[3], 6); err != nil { // T3 holds p3, c
		return nil, err
	}
	if err := stepN(sys, res.T[4], 11); err != nil { // T4 holds p4, e
		return nil, err
	}
	if r, err := stepUntilBlocked(sys, res.T[1], 10); err != nil { // T1 waits on d
		return nil, err
	} else if r.Outcome != core.Blocked {
		return nil, fmt.Errorf("T1 expected plain block, got %v", r.Outcome)
	}
	if r, err := stepUntilBlocked(sys, res.T[3], 10); err != nil { // T3 waits on b
		return nil, err
	} else if r.Outcome != core.Blocked {
		return nil, fmt.Errorf("T3 expected plain block, got %v", r.Outcome)
	}
	if r, err := stepUntilBlocked(sys, res.T[2], 10); err != nil { // T2 waits on e
		return nil, err
	} else if r.Outcome != core.Blocked {
		return nil, fmt.Errorf("T2 expected plain block, got %v", r.Outcome)
	}
	if err := stepN(sys, res.T[6], 1); err != nil { // T6 holds h
		return nil, err
	}
	if r, err := stepUntilBlocked(sys, res.T[5], 10); err != nil { // T5 waits on h
		return nil, err
	} else if r.Outcome != core.Blocked {
		return nil, fmt.Errorf("T5 expected plain block, got %v", r.Outcome)
	}

	res.ArcsBefore = sys.Arcs()
	res.ForestBefore = sys.GraphIsForest()

	// T4 requests c at state 15, closing the cycle.
	r, err := stepUntilBlocked(sys, res.T[4], 10)
	if err != nil {
		return nil, err
	}
	if r.Outcome != core.BlockedDeadlock || r.Deadlock == nil {
		return nil, fmt.Errorf("T4's request should deadlock, got %v", r.Outcome)
	}
	res.Report = r.Deadlock
	for i := 1; i <= 6; i++ {
		if v, ok := r.Deadlock.Candidates[res.T[i]]; ok {
			res.Costs[i] = v.Cost
		}
	}
	if len(r.Deadlock.Victims) == 1 {
		for i := 1; i <= 6; i++ {
			if res.T[i] == r.Deadlock.Victims[0].Txn {
				res.Victim = i
			}
		}
	}
	res.ArcsAfter = sys.Arcs()
	_, res.T1Waiting = sys.WaitingOn(res.T[1])
	res.T3HoldsB = sys.HoldsExclusive(res.T[3], "b")
	return res, nil
}
