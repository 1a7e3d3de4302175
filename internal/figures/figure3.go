package figures

import (
	"fmt"

	"partialrollback/internal/core"
	"partialrollback/internal/deadlock"
	"partialrollback/internal/entity"
	"partialrollback/internal/txn"
	"partialrollback/internal/waitfor"
)

// Figure3Result captures the shared/exclusive-lock scenarios of §3.2.
// Asserted properties from the prose:
//
//	(a) with shared locks the deadlock-free concurrency graph is a DAG
//	    but not a forest (one waiter can wait for several holders);
//	(b) one exclusive request can close several cycles at once, all
//	    through the requester; rolling back either the requester or the
//	    single other transaction on every cycle removes all deadlocks;
//	(c) an exclusive request on an entity with two shared holders closes
//	    two cycles sharing only the requester: if the requester is not
//	    rolled back, *both* shared holders must be.
type Figure3Result struct {
	// Part (a).
	AForest   bool
	ADeadlock bool
	AArcs     []waitfor.Arc
	// Part (b).
	BCycles    int
	BVictims   []txn.ID
	BVictimSet string // "requester", "other", or "multi"
	// Part (c).
	CCycles  int
	CVictims []txn.ID
}

// RunFigure3a builds scenario (a): T1 X-holds a; T2 waits for a; T1 and
// T2 share c; T3's exclusive request on c waits for both. No deadlock,
// but the graph is not a forest.
func RunFigure3a() (*Figure3Result, error) {
	store := entity.NewStore(map[string]int64{"a": 0, "c": 0})
	sys := core.New(core.Config{Store: store, Strategy: core.MCS, Resolver: deadlock.Detect{Policy: deadlock.MinCost{}}})

	t1 := sys.MustRegister(txn.NewProgram("T1").Local("acc", 0).LockX("a").LockS("c").MustBuild())
	t2 := sys.MustRegister(txn.NewProgram("T2").Local("acc", 0).LockS("c").LockS("a").MustBuild())
	t3 := sys.MustRegister(txn.NewProgram("T3").Local("acc", 0).LockX("c").MustBuild())

	if err := stepN(sys, t1, 2); err != nil { // T1 holds a (X), c (S)
		return nil, err
	}
	if err := stepN(sys, t2, 1); err != nil { // T2 holds c (S)
		return nil, err
	}
	if r, err := stepUntilBlocked(sys, t2, 5); err != nil { // T2 waits on a
		return nil, err
	} else if r.Outcome != core.Blocked {
		return nil, fmt.Errorf("T2 expected plain block, got %v", r.Outcome)
	}
	if r, err := stepUntilBlocked(sys, t3, 5); err != nil { // T3 waits on c (T1 and T2)
		return nil, err
	} else if r.Outcome != core.Blocked {
		return nil, fmt.Errorf("T3 expected plain block, got %v", r.Outcome)
	}
	res := &Figure3Result{
		AForest:   sys.GraphIsForest(),
		ADeadlock: sys.GraphHasCycle(),
		AArcs:     sys.Arcs(),
	}
	return res, nil
}

// RunFigure3b builds scenario (b): T1 and T3 share a; T2's exclusive
// request on a waits for both; T3 waits for c held exclusively by T1;
// T1's request for e (exclusively held by T2) then closes two cycles,
// {T1,T2} and {T1,T2,T3}, both containing T1 and T2.
func RunFigure3b(policy deadlock.Policy) (*Figure3Result, error) {
	store := entity.NewStore(map[string]int64{"a": 0, "c": 0, "e": 0})
	sys := core.New(core.Config{Store: store, Strategy: core.MCS, Resolver: deadlock.Detect{Policy: policy}})

	t1 := sys.MustRegister(txn.NewProgram("T1").Local("acc", 0).
		LockS("a").LockX("c").LockX("e").MustBuild())
	t2 := sys.MustRegister(txn.NewProgram("T2").Local("acc", 0).
		LockX("e").LockX("a").MustBuild())
	t3 := sys.MustRegister(txn.NewProgram("T3").Local("acc", 0).
		LockS("a").LockS("c").MustBuild())

	if err := stepN(sys, t1, 2); err != nil { // T1 holds a(S), c(X)
		return nil, err
	}
	if err := stepN(sys, t3, 1); err != nil { // T3 holds a(S)
		return nil, err
	}
	if err := stepN(sys, t2, 1); err != nil { // T2 holds e(X)
		return nil, err
	}
	if r, err := stepUntilBlocked(sys, t2, 5); err != nil { // T2 waits on a -> {T1,T3}
		return nil, err
	} else if r.Outcome != core.Blocked {
		return nil, fmt.Errorf("T2 expected plain block, got %v", r.Outcome)
	}
	if r, err := stepUntilBlocked(sys, t3, 5); err != nil { // T3 waits on c -> T1
		return nil, err
	} else if r.Outcome != core.Blocked {
		return nil, fmt.Errorf("T3 expected plain block, got %v", r.Outcome)
	}
	r, err := stepUntilBlocked(sys, t1, 5) // T1 requests e -> deadlocks
	if err != nil {
		return nil, err
	}
	if r.Outcome != core.BlockedDeadlock {
		return nil, fmt.Errorf("T1 expected deadlock, got %v", r.Outcome)
	}
	res := &Figure3Result{BCycles: len(r.Deadlock.Cycles)}
	for _, v := range r.Deadlock.Victims {
		res.BVictims = append(res.BVictims, v.Txn)
	}
	switch {
	case len(res.BVictims) == 1 && res.BVictims[0] == t1:
		res.BVictimSet = "requester"
	case len(res.BVictims) == 1:
		res.BVictimSet = "other"
	default:
		res.BVictimSet = "multi"
	}
	return res, nil
}

// RunFigure3c builds scenario (c): T1 X-holds a and b; T2 and T3 each
// share f and wait for T1; T1's exclusive request on f closes two
// cycles sharing only T1. With T1's rollback made expensive, the
// min-cost policy must roll back both T2 and T3.
func RunFigure3c() (*Figure3Result, error) {
	store := entity.NewStore(map[string]int64{"a": 0, "b": 0, "f": 0})
	sys := core.New(core.Config{Store: store, Strategy: core.MCS, Resolver: deadlock.Detect{Policy: deadlock.MinCost{}}})

	// T1 pads heavily after locking a so its rollback cost (back to the
	// state before a, the first contested entity) dwarfs T2+T3's
	// combined.
	b1 := txn.NewProgram("T1").Local("acc", 0).LockX("a")
	padded(b1, 40)
	b1.LockX("b").LockX("f")
	t1 := sys.MustRegister(b1.MustBuild())

	t2 := sys.MustRegister(txn.NewProgram("T2").Local("acc", 0).
		LockS("f").LockS("a").MustBuild())
	t3 := sys.MustRegister(txn.NewProgram("T3").Local("acc", 0).
		LockS("f").LockS("b").MustBuild())

	if err := stepN(sys, t1, 42); err != nil { // T1 holds a, b
		return nil, err
	}
	if err := stepN(sys, t2, 1); err != nil { // T2 holds f(S)
		return nil, err
	}
	if err := stepN(sys, t3, 1); err != nil { // T3 holds f(S)
		return nil, err
	}
	if r, err := stepUntilBlocked(sys, t2, 5); err != nil { // T2 waits on a
		return nil, err
	} else if r.Outcome != core.Blocked {
		return nil, fmt.Errorf("T2 expected plain block, got %v", r.Outcome)
	}
	if r, err := stepUntilBlocked(sys, t3, 5); err != nil { // T3 waits on b
		return nil, err
	} else if r.Outcome != core.Blocked {
		return nil, fmt.Errorf("T3 expected plain block, got %v", r.Outcome)
	}
	r, err := stepUntilBlocked(sys, t1, 5) // T1 requests f -> two deadlocks
	if err != nil {
		return nil, err
	}
	if r.Outcome != core.BlockedDeadlock {
		return nil, fmt.Errorf("T1 expected deadlock, got %v", r.Outcome)
	}
	res := &Figure3Result{CCycles: len(r.Deadlock.Cycles)}
	for _, v := range r.Deadlock.Victims {
		res.CVictims = append(res.CVictims, v.Txn)
	}
	return res, nil
}
