package core_test

import (
	"fmt"
	"reflect"
	"testing"

	"partialrollback/internal/core"
	"partialrollback/internal/deadlock"
	"partialrollback/internal/entity"
	"partialrollback/internal/history"
	"partialrollback/internal/txn"
	"partialrollback/internal/value"
)

// ladderDepth is the number of rungs in the ladder deadlock: 2^7 = 128
// cycles, twice core.ReportedCycles.
const ladderDepth = 7

// buildLadder registers r -> {a1,b1} -> ... -> {a7,b7} -> r: r holds
// e7 shared and requests e0 exclusively; rung i's a_i and b_i hold
// e(i-1) shared and request e(i) exclusively. It steps every
// transaction up to its exclusive request, parks the rungs there and
// returns r, whose request then closes all 128 cycles. Each member's
// rollback cost is one plus its padding: a1 is the cheapest single
// member (1), b1 the dearest (21), rung 5 the cheapest rung (2 + 2)
// and r costs 31. The first 64 cycles in enumeration order all pass
// through a1, so a cut over them alone is {a1}, which leaves every b1
// cycle unbroken.
func buildLadder(t *testing.T, policy deadlock.Policy) (s *core.System, rec *history.Recorder, r txn.ID, rungs [ladderDepth + 1][2]txn.ID) {
	t.Helper()
	init := map[string]int64{}
	for i := 0; i <= ladderDepth; i++ {
		init[fmt.Sprintf("e%d", i)] = 0
	}
	s, rec = recorded(core.Config{Store: entity.NewStore(init), Strategy: core.MCS, Resolver: deadlock.Detect{Policy: policy}})
	prog := func(name, held, want string, pad int) *txn.Program {
		b := txn.NewProgram(name).Local("x", 0).LockS(held)
		for k := 0; k < pad; k++ {
			b.Compute("x", value.C(int64(k)))
		}
		return b.LockX(want).Write(want, value.C(1)).MustBuild()
	}
	pads := map[string]int{"r": 30, "a1": 0, "b1": 20, "a5": 1, "b5": 1}
	padOf := map[txn.ID]int{}
	r = s.MustRegister(prog("r", fmt.Sprintf("e%d", ladderDepth), "e0", pads["r"]))
	padOf[r] = pads["r"]
	for i := 1; i <= ladderDepth; i++ {
		for j, side := range []string{"a", "b"} {
			name := fmt.Sprintf("%s%d", side, i)
			pad, ok := pads[name]
			if !ok {
				pad = 4
			}
			rungs[i][j] = s.MustRegister(prog(name, fmt.Sprintf("e%d", i-1), fmt.Sprintf("e%d", i), pad))
			padOf[rungs[i][j]] = pad
		}
	}
	step := func(id txn.ID, want core.Outcome) {
		t.Helper()
		res, err := s.Step(id)
		if err != nil {
			t.Fatalf("step %v: %v", id, err)
		}
		if res.Outcome != want {
			t.Fatalf("step %v: outcome %v, want %v", id, res.Outcome, want)
		}
	}
	// Every shared lock and its padding first, then every rung's
	// exclusive request.
	for _, id := range s.IDs() {
		for k := 0; k <= padOf[id]; k++ {
			step(id, core.Progressed)
		}
	}
	for _, id := range s.IDs() {
		if id != r {
			step(id, core.Blocked)
		}
	}
	return s, rec, r, rungs
}

// TestLadderDeadlockBreaksEveryCycle closes 128 cycles with one
// request and checks that each policy breaks all of them, with
// min-cost and ordered-min-cost choosing the cheapest rung.
func TestLadderDeadlockBreaksEveryCycle(t *testing.T) {
	for _, tc := range []struct {
		policy deadlock.Policy
		rung   int // the victims are this rung's pair; 0: the requester
	}{
		{deadlock.MinCost{}, 5},
		{deadlock.OrderedMinCost{}, 5},
		{deadlock.Oldest{}, ladderDepth},
		{deadlock.Requester{}, 0},
	} {
		t.Run(tc.policy.Name(), func(t *testing.T) {
			s, rec, r, rungs := buildLadder(t, tc.policy)
			res, err := s.Step(r)
			if err != nil {
				t.Fatalf("closing request: %v", err)
			}
			if res.Outcome != core.BlockedDeadlock {
				t.Fatalf("closing request: outcome %v, want a deadlock", res.Outcome)
			}
			if got := len(res.Deadlock.Cycles); got != core.ReportedCycles {
				t.Errorf("report samples %d cycles, want %d", got, core.ReportedCycles)
			}
			if got := len(res.Deadlock.Candidates); got != 2*ladderDepth+1 {
				t.Errorf("%d candidates, want every member (%d)", got, 2*ladderDepth+1)
			}
			var got []txn.ID
			for _, v := range res.Deadlock.Victims {
				got = append(got, v.Txn)
			}
			want := []txn.ID{r}
			if tc.rung > 0 {
				want = rungs[tc.rung][:]
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("victims = %v, want %v", got, want)
			}
			if err := s.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
			if s.GraphHasCycle() {
				t.Fatal("a cycle survived the resolution")
			}
			core.RunAll(t, s)
			if _, err := rec.CheckSerializable(); err != nil {
				t.Error(err)
			}
		})
	}
}
