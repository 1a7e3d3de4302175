package core

import (
	"testing"

	"partialrollback/internal/entity"
	"partialrollback/internal/txn"
	"partialrollback/internal/value"
)

// TestSharedGrantRefreshesWaiterArcs is the regression test for the
// arc-staleness bug: when a shared grant jumps past a queued exclusive
// waiter, the waiter's concurrency-graph arcs must be extended to the
// new holder, or later cycle detection misses deadlocks.
func TestSharedGrantRefreshesWaiterArcs(t *testing.T) {
	store := entity.NewStore(map[string]int64{"a": 0, "b": 0})
	s := New(Config{Store: store, Strategy: MCS})
	s1 := s.MustRegister(txn.NewProgram("S1").Local("x", 0).
		LockS("a").Read("a", "x").Compute("x", value.C(1)).Compute("x", value.C(2)).MustBuild())
	xw := s.MustRegister(txn.NewProgram("XW").Local("x", 0).
		LockX("a").MustBuild())
	s2 := s.MustRegister(txn.NewProgram("S2").Local("x", 0).
		LockS("a").Read("a", "x").MustBuild())

	mustOutcome := func(id txn.ID, want Outcome) {
		t.Helper()
		res, err := s.Step(id)
		if err != nil {
			t.Fatal(err)
		}
		if res.Outcome != want {
			t.Fatalf("%v: outcome %v, want %v", id, res.Outcome, want)
		}
	}
	mustOutcome(s1, Progressed) // S1 holds a (shared)
	mustOutcome(xw, Blocked)    // XW queues behind the shared hold
	mustOutcome(s2, Progressed) // S2's shared grant jumps the queue
	// XW must now wait on BOTH shared holders.
	arcs := s.Arcs()
	holders := map[txn.ID]bool{}
	for _, a := range arcs {
		if a.Waiter == xw {
			holders[a.Holder] = true
		}
	}
	if !holders[s1] || !holders[s2] {
		t.Fatalf("XW's arcs = %v; must include both shared holders", arcs)
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// Drain everyone; XW gets a once both readers finish.
	runAll(t, s)
}

// TestSharedReadersSeeStableValue: a shared holder's reads are
// unaffected by a writer queued behind it.
func TestSharedReadersSeeStableValue(t *testing.T) {
	store := entity.NewStore(map[string]int64{"a": 7})
	s := New(Config{Store: store, Strategy: Total})
	reader := s.MustRegister(txn.NewProgram("R").Local("x", 0).Local("y", 0).
		LockS("a").Read("a", "x").Compute("y", value.C(0)).Read("a", "y").MustBuild())
	writer := s.MustRegister(txn.NewProgram("W").Local("v", 0).
		LockX("a").Write("a", value.C(99)).MustBuild())
	if _, err := s.Step(reader); err != nil { // S lock
		t.Fatal(err)
	}
	if res, _ := s.Step(writer); res.Outcome != Blocked {
		t.Fatal("writer should queue")
	}
	stepToCommit(t, s, reader)
	locals, _ := s.Locals(reader)
	if locals["x"] != 7 || locals["y"] != 7 {
		t.Errorf("reader saw %v; the global value must be stable while shared-held", locals)
	}
	stepToCommit(t, s, writer)
	if store.MustGet("a") != 99 {
		t.Error("writer's value not installed")
	}
}
