package core_test

import (
	"fmt"
	"testing"

	"partialrollback/internal/core"
	"partialrollback/internal/deadlock"
	"partialrollback/internal/entity"
	"partialrollback/internal/txn"
	"partialrollback/internal/value"
)

// The tests in this file need a Resolver from internal/deadlock, which
// imports core, so they run as package core_test.

func TestWaitingVictimResumesCorrectly(t *testing.T) {
	// T2 is rolled back while *waiting*; its queued request must be
	// retracted and it must re-execute from the reset point.
	store := entity.NewStore(map[string]int64{"a": 5, "b": 6})
	s := core.New(core.Config{Store: store, Strategy: core.MCS, Resolver: deadlock.Detect{}})
	t1 := s.MustRegister(txn.NewProgram("T1").Local("x", 0).
		LockX("a").Read("a", "x").LockX("b").Read("b", "x").MustBuild())
	t2 := s.MustRegister(txn.NewProgram("T2").Local("x", 0).
		LockX("b").Read("b", "x").LockX("a").Read("a", "x").MustBuild())
	mustStep := func(id txn.ID, want core.Outcome) {
		t.Helper()
		res, err := s.Step(id)
		if err != nil {
			t.Fatal(err)
		}
		if res.Outcome != want {
			t.Fatalf("%v: outcome %v, want %v", id, res.Outcome, want)
		}
	}
	mustStep(t1, core.Progressed) // lock a
	mustStep(t2, core.Progressed) // lock b
	mustStep(t1, core.Progressed) // read a
	mustStep(t2, core.Progressed) // read b
	mustStep(t1, core.Blocked)    // wait b
	// T2 requests a -> deadlock; with ordered policy T2 (younger
	// requester, no younger participants) backs off.
	res, err := s.Step(t2)
	if err != nil {
		t.Fatal(err)
	}
	if res.Outcome != core.BlockedDeadlock {
		t.Fatalf("outcome %v", res.Outcome)
	}
	if res.Deadlock.Victims[0].Txn != t2 {
		t.Fatalf("victim %v", res.Deadlock.Victims)
	}
	st, _ := s.Status(t2)
	if st != core.StatusRunning {
		t.Fatalf("victim status %v", st)
	}
	if _, waiting := s.WaitingOn(t2); waiting {
		t.Error("victim still queued")
	}
	// T1 must have been granted b by the rollback release.
	st1, _ := s.Status(t1)
	if st1 != core.StatusRunning {
		t.Error("T1 should be granted")
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	core.StepToCommit(t, s, t1)
	core.StepToCommit(t, s, t2)
	if store.MustGet("a") != 5 || store.MustGet("b") != 6 {
		t.Error("read-only programs must not change values")
	}
}

func TestStatsAccumulate(t *testing.T) {
	store := entity.NewStore(map[string]int64{"a": 100, "b": 200})
	s := core.New(core.Config{Store: store, Strategy: core.MCS, Resolver: deadlock.Detect{}})
	t1 := s.MustRegister(core.TransferProg("T1", "a", "b", 10))
	t2 := s.MustRegister(core.TransferProg("T2", "b", "a", 5))
	_ = t1
	_ = t2
	core.RunAll(t, s)
	st := s.Stats()
	if st.Commits != 2 || st.Deadlocks == 0 || st.Rollbacks == 0 || st.OpsLost == 0 {
		t.Errorf("stats = %+v", st)
	}
	ts := s.TxnStatsOf(t2)
	if ts.OpsExecuted == 0 {
		t.Error("txn stats empty")
	}
}

// TestDeterminism: the engine is a pure function of (programs, step
// sequence): repeating a run gives identical stats and database.
func TestDeterminism(t *testing.T) {
	run := func() (core.Stats, map[string]int64) {
		store := entity.NewStore(map[string]int64{"a": 1, "b": 2, "c": 3})
		s := core.New(core.Config{Store: store, Strategy: core.MCS, Resolver: deadlock.Detect{}})
		for i, order := range [][]string{{"a", "b", "c"}, {"c", "a", "b"}, {"b", "c", "a"}} {
			s.MustRegister(core.ChainProgram(fmt.Sprintf("P%d", i), order, int64(i)))
		}
		for !s.AllCommitted() {
			for _, id := range s.IDs() {
				if _, err := s.Step(id); err != nil {
					t.Fatal(err)
				}
			}
		}
		return s.Stats(), store.Snapshot()
	}
	s1, m1 := run()
	s2, m2 := run()
	if s1 != s2 {
		t.Errorf("stats differ: %+v vs %+v", s1, s2)
	}
	if fmt.Sprint(m1) != fmt.Sprint(m2) {
		t.Errorf("final states differ: %v vs %v", m1, m2)
	}
}

// TestVictimWithSharedLockReleased: rolling back a victim that holds
// the contested entity under a *shared* lock must release that shared
// hold (Figure 3(c)'s both-shared-holders case, unit level).
func TestVictimWithSharedLockReleased(t *testing.T) {
	store := entity.NewStore(map[string]int64{"a": 0, "f": 0})
	s := core.New(core.Config{Store: store, Strategy: core.MCS, Resolver: deadlock.Detect{}})
	t1 := s.MustRegister(txn.NewProgram("T1").Local("x", 0).
		LockX("a").LockX("f").MustBuild())
	t2 := s.MustRegister(txn.NewProgram("T2").Local("x", 0).
		LockS("f").LockS("a").MustBuild())
	mustStep := func(id txn.ID) core.StepResult {
		t.Helper()
		res, err := s.Step(id)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	mustStep(t1)                                          // X a
	mustStep(t2)                                          // S f
	if res := mustStep(t2); res.Outcome != core.Blocked { // S a vs X holder
		t.Fatalf("T2 should wait, got %v", res.Outcome)
	}
	res := mustStep(t1) // X f vs S holder -> cycle
	if res.Outcome != core.BlockedDeadlock {
		t.Fatalf("expected deadlock, got %v", res.Outcome)
	}
	// The ordered policy victimizes T2 (younger); its shared f must be
	// gone and T1 must hold f now.
	if got := s.Held(t2); len(got) != 0 {
		t.Errorf("victim still holds %v", got)
	}
	if !s.HoldsExclusive(t1, "f") {
		t.Error("requester should have been granted f")
	}
	core.RunAll(t, s)
}

// BenchmarkContendedWait measures the no-deadlock wait: a second
// transaction requests an entity an exclusive holder pins, blocks, is
// polled once, and is then aborted. Covers AcquireID's blocker path,
// the Resolver call and the retraction. Under "detect" the wait goes
// to deadlock.Detect, which walks the lock table for a cycle
// (waitfor.CycleThrough); under "none" the System has no Resolver, as
// on the node, and the wait only queues.
func BenchmarkContendedWait(b *testing.B) {
	for _, bc := range []struct {
		name     string
		resolver core.Resolver
	}{{"detect", deadlock.Detect{}}, {"none", nil}} {
		b.Run(bc.name, func(b *testing.B) {
			store := entity.NewStore(map[string]int64{"a": 0})
			s := core.New(core.Config{Store: store, Resolver: bc.resolver})
			holderProg := txn.NewProgram("holder").
				Local("x", 0).
				LockX("a").
				Read("a", "x").
				Write("a", value.L("x")).
				MustBuild()
			holder := s.MustRegister(holderProg)
			if res, err := s.Step(holder); err != nil || res.Outcome != core.Progressed {
				b.Fatalf("holder lock: %+v, %v", res, err)
			}
			waiterProg := core.BenchProgram("a")
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				id, err := s.Register(waiterProg)
				if err != nil {
					b.Fatal(err)
				}
				res, err := s.Step(id)
				if err != nil {
					b.Fatal(err)
				}
				if res.Outcome != core.Blocked {
					b.Fatalf("outcome %v, want Blocked", res.Outcome)
				}
				if res, err = s.Step(id); err != nil || res.Outcome != core.StillWaiting {
					b.Fatalf("poll: %+v, %v", res, err)
				}
				if err := s.Abort(id); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestWakeContract pins when the engine leaves a token on a
// transaction's wake channel (StepResult.Wake): exactly once for each
// time a waiter becomes runnable again — granted, or rolled back by
// another's deadlock, by its own deadlock, or by Abort — and never for
// an immediate grant. Every blocking outcome carries the channel.
func TestWakeContract(t *testing.T) {
	newSys := func(resolver core.Resolver) *core.System {
		store := entity.NewStore(map[string]int64{"a": 0, "b": 0, "c": 0})
		return core.New(core.Config{Store: store, Strategy: core.MCS, Resolver: resolver})
	}
	step := func(t *testing.T, s *core.System, id txn.ID) core.StepResult {
		t.Helper()
		res, err := s.Step(id)
		if err != nil {
			t.Fatalf("step %v: %v", id, err)
		}
		switch res.Outcome {
		case core.Blocked, core.BlockedDeadlock, core.StillWaiting:
			if res.Wake == nil {
				t.Fatalf("%v: %v outcome without a wake channel", id, res.Outcome)
			}
		default:
			if res.Wake != nil {
				t.Fatalf("%v: %v outcome carries a wake channel", id, res.Outcome)
			}
		}
		return res
	}
	// stepTo steps id until it reports want and returns that result.
	stepTo := func(t *testing.T, s *core.System, id txn.ID, want core.Outcome) core.StepResult {
		t.Helper()
		for i := 0; i < 100; i++ {
			if res := step(t, s, id); res.Outcome == want {
				return res
			} else if res.Outcome != core.Progressed {
				t.Fatalf("%v: outcome %v before %v", id, res.Outcome, want)
			}
		}
		t.Fatalf("%v: no %v in 100 steps", id, want)
		return core.StepResult{}
	}
	tokens := func(t *testing.T, what string, wake <-chan struct{}, want int) {
		t.Helper()
		if got := len(wake); got != want {
			t.Errorf("%s: %d wake tokens, want %d", what, got, want)
		}
	}

	t.Run("grant", func(t *testing.T) {
		s := newSys(deadlock.Detect{})
		h := s.MustRegister(twoLockProg("h", "a", "c", 0))
		w := s.MustRegister(twoLockProg("w", "a", "b", 0))
		step(t, s, h) // h takes a
		wake := stepTo(t, s, w, core.Blocked).Wake
		tokens(t, "blocked", wake, 0)
		if res := step(t, s, w); res.Outcome != core.StillWaiting || res.Wake != wake {
			t.Fatalf("poll of a waiter: %v, same channel %v", res.Outcome, res.Wake == wake)
		}
		stepTo(t, s, h, core.Committed) // releases a: w is granted
		tokens(t, "grant after wait", wake, 1)
		<-wake
		step(t, s, w) // read a
		if res := step(t, s, w); res.Outcome != core.Progressed {
			t.Fatalf("lock b: %v", res.Outcome)
		}
		tokens(t, "immediate grant", wake, 0)
	})

	t.Run("victim", func(t *testing.T) {
		s := newSys(deadlock.Detect{})
		older := s.MustRegister(twoLockProg("older", "a", "b", 2))
		younger := s.MustRegister(twoLockProg("younger", "b", "a", 2))
		step(t, s, older)   // takes a
		step(t, s, younger) // takes b
		wakeY := stepTo(t, s, younger, core.Blocked).Wake
		res := stepTo(t, s, older, core.BlockedDeadlock)
		if v := res.Deadlock.Victims; len(v) != 1 || v[0].Txn != younger {
			t.Fatalf("victims %v, want the younger waiter", v)
		}
		tokens(t, "waiter rolled back as a cycle victim", wakeY, 1)
		tokens(t, "requester granted inside its own step", res.Wake, 1)
	})

	t.Run("requester", func(t *testing.T) {
		s := newSys(deadlock.Detect{})
		older := s.MustRegister(twoLockProg("older", "a", "b", 2))
		younger := s.MustRegister(twoLockProg("younger", "b", "a", 2))
		step(t, s, older)   // takes a
		step(t, s, younger) // takes b
		wakeO := stepTo(t, s, older, core.Blocked).Wake
		res := stepTo(t, s, younger, core.BlockedDeadlock)
		if v := res.Deadlock.Victims; len(v) != 1 || v[0].Txn != younger {
			t.Fatalf("victims %v, want the younger requester", v)
		}
		tokens(t, "requester rolled back inside its own step", res.Wake, 1)
		tokens(t, "waiter granted by the rollback", wakeO, 1)
	})

	t.Run("abort", func(t *testing.T) {
		s := newSys(deadlock.Detect{})
		h := s.MustRegister(twoLockProg("h", "a", "c", 0))
		w := s.MustRegister(twoLockProg("w", "a", "b", 0))
		step(t, s, h)
		wake := stepTo(t, s, w, core.Blocked).Wake
		if err := s.Abort(w); err != nil {
			t.Fatal(err)
		}
		tokens(t, "abort of a waiter", wake, 1)
	})

	// Wait-die rolls the requester back inside its own step, so the
	// step reports SelfRolledBack with no channel while the rollback
	// still leaves its token: the transaction's next park returns at
	// once and costs one StillWaiting poll. Wait-die is not in the
	// node.
	t.Run("wait-die", func(t *testing.T) {
		s := newSys(deadlock.WaitDie{})
		older := s.MustRegister(twoLockProg("older", "b", "a", 2))
		younger := s.MustRegister(twoLockProg("younger", "a", "b", 2))
		step(t, s, older) // takes b
		stepTo(t, s, younger, core.SelfRolledBack)
		tokens(t, "self rolled back", core.WakeOf(s, younger), 1)
	})
}
