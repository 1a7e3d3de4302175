package figures

import (
	"fmt"

	"partialrollback/internal/core"
	"partialrollback/internal/deadlock"
	"partialrollback/internal/entity"
	"partialrollback/internal/txn"
)

// Figure2Result demonstrates §3.1's potentially infinite mutual
// preemption (Figure 2) and its Theorem 2 cure.
//
// The scenario is an open system: a long-lived cheap transaction A
// repeatedly deadlocks with a stream of expensive transactions B_k.
// Under the unconstrained min-cost policy, A is always the cheaper
// victim and is preempted every round — it never commits, no matter how
// many rounds run. Under the entry-ordered policy of Theorem 2, the
// younger conflict-causer B_k is the only permissible victim, so A
// commits in the first round.
type Figure2Result struct {
	Policy       string
	Rounds       int
	APreempted   int64
	ACommitted   bool
	BCommitted   int
	ACommitRound int // round at which A committed, -1 if never
}

func fig2A() *txn.Program {
	return txn.NewProgram("A").Local("acc", 0).
		LockX("x").
		LockX("y").
		MustBuild()
}

func fig2B(k int) *txn.Program {
	b := txn.NewProgram(fmt.Sprintf("B%d", k)).Local("acc", 0).LockX("y")
	padded(b, 10)
	return b.LockX("x").MustBuild()
}

// RunFigure2 plays rounds rounds of the preemption scenario under the
// given policy and reports whether A ever commits and how often it was
// preempted.
func RunFigure2(policy deadlock.Policy, rounds int) (*Figure2Result, error) {
	store := entity.NewStore(map[string]int64{"x": 0, "y": 0})
	var preempted int64
	sys := core.New(core.Config{
		Store:    store,
		Strategy: core.MCS,
		Resolver: deadlock.Detect{Policy: policy},
	})
	res := &Figure2Result{Policy: policy.Name(), Rounds: rounds, ACommitRound: -1}
	a, err := sys.Register(fig2A())
	if err != nil {
		return nil, err
	}
	var aRollbacksBefore int64
	for k := 0; k < rounds; k++ {
		if st, _ := sys.Status(a); st == core.StatusCommitted {
			break
		}
		bID, err := sys.Register(fig2B(k))
		if err != nil {
			return nil, err
		}
		// A locks x (it is at pc 0 either initially or after preemption).
		if err := stepN(sys, a, 1); err != nil {
			return nil, err
		}
		// B_k locks y.
		if err := stepN(sys, bID, 1); err != nil {
			return nil, err
		}
		// A requests y -> waits on B_k.
		if r, err := stepUntilBlocked(sys, a, 5); err != nil {
			return nil, err
		} else if r.Outcome != core.Blocked {
			return nil, fmt.Errorf("round %d: A expected plain block, got %v", k, r.Outcome)
		}
		// B_k pads then requests x -> deadlock.
		r, err := stepUntilBlocked(sys, bID, 20)
		if err != nil {
			return nil, err
		}
		if r.Outcome != core.BlockedDeadlock {
			return nil, fmt.Errorf("round %d: B expected deadlock, got %v", k, r.Outcome)
		}
		aStats := sys.TxnStatsOf(a)
		aWasVictim := aStats.Rollbacks > aRollbacksBefore
		if aWasVictim {
			preempted++
			aRollbacksBefore = aStats.Rollbacks
		}
		if aWasVictim {
			// A was preempted; B_k proceeds to commit while A has not
			// yet been rescheduled — the Figure 2 repetition.
			if err := stepToCommit(sys, bID, 100); err != nil {
				return nil, err
			}
		} else {
			// B_k was rolled back; A was granted y and runs to commit,
			// then B_k finishes against a free database.
			if err := stepToCommit(sys, a, 100); err != nil {
				return nil, err
			}
			res.ACommitRound = k
			if err := stepToCommit(sys, bID, 100); err != nil {
				return nil, err
			}
		}
		if st, _ := sys.Status(bID); st == core.StatusCommitted {
			res.BCommitted++
		}
	}
	st, _ := sys.Status(a)
	res.ACommitted = st == core.StatusCommitted
	res.APreempted = preempted
	return res, nil
}
