package core

import (
	"testing"

	"partialrollback/internal/entity"
	"partialrollback/internal/txn"
)

// TestWakeContract pins when the engine leaves a token on a
// transaction's wake channel (StepResult.Wake): exactly once for each
// time a waiter becomes runnable again — granted, or rolled back by
// another's deadlock, by its own deadlock, or by Abort — and never for
// an immediate grant. Every blocking outcome carries the channel.
func TestWakeContract(t *testing.T) {
	newSys := func(prevention Prevention) *System {
		store := entity.NewStore(map[string]int64{"a": 0, "b": 0, "c": 0})
		return New(Config{Store: store, Strategy: MCS, Prevention: prevention})
	}
	step := func(t *testing.T, s *System, id txn.ID) StepResult {
		t.Helper()
		res, err := s.Step(id)
		if err != nil {
			t.Fatalf("step %v: %v", id, err)
		}
		switch res.Outcome {
		case Blocked, BlockedDeadlock, StillWaiting:
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
	stepTo := func(t *testing.T, s *System, id txn.ID, want Outcome) StepResult {
		t.Helper()
		for i := 0; i < 100; i++ {
			if res := step(t, s, id); res.Outcome == want {
				return res
			} else if res.Outcome != Progressed {
				t.Fatalf("%v: outcome %v before %v", id, res.Outcome, want)
			}
		}
		t.Fatalf("%v: no %v in 100 steps", id, want)
		return StepResult{}
	}
	tokens := func(t *testing.T, what string, wake <-chan struct{}, want int) {
		t.Helper()
		if got := len(wake); got != want {
			t.Errorf("%s: %d wake tokens, want %d", what, got, want)
		}
	}

	t.Run("grant", func(t *testing.T) {
		s := newSys(NoPrevention)
		h := s.MustRegister(twoLockProg("h", "a", "c", 0))
		w := s.MustRegister(twoLockProg("w", "a", "b", 0))
		step(t, s, h) // h takes a
		wake := stepTo(t, s, w, Blocked).Wake
		tokens(t, "blocked", wake, 0)
		if res := step(t, s, w); res.Outcome != StillWaiting || res.Wake != wake {
			t.Fatalf("poll of a waiter: %v, same channel %v", res.Outcome, res.Wake == wake)
		}
		stepTo(t, s, h, Committed) // releases a: w is granted
		tokens(t, "grant after wait", wake, 1)
		<-wake
		step(t, s, w) // read a
		if res := step(t, s, w); res.Outcome != Progressed {
			t.Fatalf("lock b: %v", res.Outcome)
		}
		tokens(t, "immediate grant", wake, 0)
	})

	t.Run("victim", func(t *testing.T) {
		s := newSys(NoPrevention)
		older := s.MustRegister(twoLockProg("older", "a", "b", 2))
		younger := s.MustRegister(twoLockProg("younger", "b", "a", 2))
		step(t, s, older)   // takes a
		step(t, s, younger) // takes b
		wakeY := stepTo(t, s, younger, Blocked).Wake
		res := stepTo(t, s, older, BlockedDeadlock)
		if v := res.Deadlock.Victims; len(v) != 1 || v[0].Txn != younger {
			t.Fatalf("victims %v, want the younger waiter", v)
		}
		tokens(t, "waiter rolled back as a cycle victim", wakeY, 1)
		tokens(t, "requester granted inside its own step", res.Wake, 1)
	})

	t.Run("requester", func(t *testing.T) {
		s := newSys(NoPrevention)
		older := s.MustRegister(twoLockProg("older", "a", "b", 2))
		younger := s.MustRegister(twoLockProg("younger", "b", "a", 2))
		step(t, s, older)   // takes a
		step(t, s, younger) // takes b
		wakeO := stepTo(t, s, older, Blocked).Wake
		res := stepTo(t, s, younger, BlockedDeadlock)
		if v := res.Deadlock.Victims; len(v) != 1 || v[0].Txn != younger {
			t.Fatalf("victims %v, want the younger requester", v)
		}
		tokens(t, "requester rolled back inside its own step", res.Wake, 1)
		tokens(t, "waiter granted by the rollback", wakeO, 1)
	})

	t.Run("abort", func(t *testing.T) {
		s := newSys(NoPrevention)
		h := s.MustRegister(twoLockProg("h", "a", "c", 0))
		w := s.MustRegister(twoLockProg("w", "a", "b", 0))
		step(t, s, h)
		wake := stepTo(t, s, w, Blocked).Wake
		if err := s.Abort(w); err != nil {
			t.Fatal(err)
		}
		tokens(t, "abort of a waiter", wake, 1)
	})

	// Wait-die rolls the requester back inside its own step, so the
	// step reports SelfRolledBack with no channel while the rollback
	// still leaves its token: the transaction's next park returns at
	// once and costs one StillWaiting poll. Prevention is not in the
	// node.
	t.Run("wait-die", func(t *testing.T) {
		s := newSys(WaitDie)
		older := s.MustRegister(twoLockProg("older", "b", "a", 2))
		younger := s.MustRegister(twoLockProg("younger", "a", "b", 2))
		step(t, s, older) // takes b
		stepTo(t, s, younger, SelfRolledBack)
		tokens(t, "self rolled back", s.txns[younger].wake, 1)
	})
}
