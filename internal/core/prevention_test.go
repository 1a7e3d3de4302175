package core_test

import (
	"testing"

	"partialrollback/internal/core"
	"partialrollback/internal/deadlock"
	"partialrollback/internal/entity"
	"partialrollback/internal/txn"
	"partialrollback/internal/value"
)

// twoLockProg locks a then b with padding so rollback costs are
// nonzero.
func twoLockProg(name, first, second string, pad int) *txn.Program {
	b := txn.NewProgram(name).Local("x", 0).LockX(first).Read(first, "x")
	for i := 0; i < pad; i++ {
		b.Compute("x", value.Add(value.L("x"), value.C(1)))
	}
	return b.LockX(second).MustBuild()
}

func TestWoundWaitOlderWoundsYounger(t *testing.T) {
	store := entity.NewStore(map[string]int64{"a": 0, "b": 0})
	s := core.New(core.Config{Store: store, Strategy: core.MCS, Resolver: deadlock.WoundWait{}})
	older := s.MustRegister(twoLockProg("older", "a", "b", 2))
	younger := s.MustRegister(twoLockProg("younger", "b", "a", 2))

	// younger takes b; older takes a; older then requests b -> it is
	// older than the holder, so the holder is wounded (rolled back to
	// release b) and older's queued request is promoted.
	step := func(id txn.ID, n int) {
		t.Helper()
		for i := 0; i < n; i++ {
			if _, err := s.Step(id); err != nil {
				t.Fatal(err)
			}
		}
	}
	step(younger, 1)          // lock b
	step(older, 4)            // lock a, read, pads
	res, err := s.Step(older) // request b -> wound younger
	if err != nil {
		t.Fatal(err)
	}
	if res.Outcome != core.Progressed {
		t.Fatalf("older should be granted after wounding, got %v", res.Outcome)
	}
	if s.Stats().Wounds != 1 {
		t.Errorf("wounds = %d", s.Stats().Wounds)
	}
	if st, _ := s.Status(younger); st != core.StatusRunning {
		t.Errorf("wounded younger should be running from its reset pc, got %v", st)
	}
	if got := s.Held(younger); len(got) != 0 {
		t.Errorf("younger still holds %v", got)
	}
	core.RunAll(t, s)
}

func TestWoundWaitYoungerWaits(t *testing.T) {
	store := entity.NewStore(map[string]int64{"a": 0, "b": 0})
	s := core.New(core.Config{Store: store, Strategy: core.MCS, Resolver: deadlock.WoundWait{}})
	older := s.MustRegister(twoLockProg("older", "b", "a", 2))
	younger := s.MustRegister(twoLockProg("younger", "a", "b", 2))
	if _, err := s.Step(older); err != nil { // older locks b
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ { // younger locks a, pads
		if _, err := s.Step(younger); err != nil {
			t.Fatal(err)
		}
	}
	res, err := s.Step(younger) // younger requests b held by older
	if err != nil {
		t.Fatal(err)
	}
	if res.Outcome != core.Blocked {
		t.Fatalf("younger must wait for the older holder, got %v", res.Outcome)
	}
	if s.Stats().Wounds != 0 {
		t.Error("no wound expected")
	}
	core.RunAll(t, s)
}

func TestWaitDieYoungerDies(t *testing.T) {
	store := entity.NewStore(map[string]int64{"a": 0, "b": 0})
	s := core.New(core.Config{Store: store, Strategy: core.MCS, Resolver: deadlock.WaitDie{}})
	older := s.MustRegister(twoLockProg("older", "b", "a", 2))
	younger := s.MustRegister(twoLockProg("younger", "a", "b", 2))
	if _, err := s.Step(older); err != nil { // older locks b
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if _, err := s.Step(younger); err != nil {
			t.Fatal(err)
		}
	}
	res, err := s.Step(younger) // younger requests b -> dies
	if err != nil {
		t.Fatal(err)
	}
	if res.Outcome != core.SelfRolledBack {
		t.Fatalf("younger should die, got %v", res.Outcome)
	}
	if s.Stats().Dies != 1 {
		t.Errorf("dies = %d", s.Stats().Dies)
	}
	if got := s.LockIndex(younger); got != 0 {
		t.Errorf("wait-die must restart from scratch, lock index %d", got)
	}
	core.RunAll(t, s)
}

func TestWaitDieOlderWaits(t *testing.T) {
	store := entity.NewStore(map[string]int64{"a": 0, "b": 0})
	s := core.New(core.Config{Store: store, Strategy: core.MCS, Resolver: deadlock.WaitDie{}})
	older := s.MustRegister(twoLockProg("older", "a", "b", 2))
	younger := s.MustRegister(twoLockProg("younger", "b", "a", 2))
	if _, err := s.Step(younger); err != nil { // younger locks b
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if _, err := s.Step(older); err != nil {
			t.Fatal(err)
		}
	}
	res, err := s.Step(older) // older requests b held by younger -> waits
	if err != nil {
		t.Fatal(err)
	}
	if res.Outcome != core.Blocked {
		t.Fatalf("older should wait, got %v", res.Outcome)
	}
	core.RunAll(t, s)
}

func TestWoundWaitSkipsUnwoundableHolders(t *testing.T) {
	// A holder in its shrinking phase cannot be wounded; the older
	// requester waits instead (safe: the holder never requests again).
	store := entity.NewStore(map[string]int64{"a": 0, "b": 0})
	s2 := core.New(core.Config{Store: store, Strategy: core.MCS, Resolver: deadlock.WoundWait{}})
	old2 := s2.MustRegister(twoLockProg("older", "a", "b", 0))
	young2 := s2.MustRegister(txn.NewProgram("younger").Local("x", 0).
		LockX("b").LockX("a").Unlock("a").Unlock("b").MustBuild())
	if _, err := s2.Step(young2); err != nil { // lock b
		t.Fatal(err)
	}
	if _, err := s2.Step(young2); err != nil { // lock a
		t.Fatal(err)
	}
	if _, err := s2.Step(young2); err != nil { // unlock a -> shrinking
		t.Fatal(err)
	}
	if _, err := s2.Step(old2); err != nil { // older locks... a is free now
		t.Fatal(err)
	}
	if _, err := s2.Step(old2); err != nil { // read a
		t.Fatal(err)
	}
	res, err := s2.Step(old2) // requests b held by shrinking younger
	if err != nil {
		t.Fatal(err)
	}
	if res.Outcome != core.Blocked {
		t.Fatalf("must wait for unwoundable holder, got %v", res.Outcome)
	}
	if s2.Stats().Wounds != 0 {
		t.Error("shrinking-phase holder must not be wounded")
	}
	core.RunAll(t, s2)
}
