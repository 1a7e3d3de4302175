package core

import (
	"testing"

	"partialrollback/internal/txn"
	"partialrollback/internal/value"
)

// runAll steps transactions round-robin until all commit, failing on
// errors or lack of progress.
func runAll(t *testing.T, s *System) {
	t.Helper()
	for iter := 0; iter < 100000; iter++ {
		if s.AllCommitted() {
			return
		}
		progressed := false
		for _, id := range s.IDs() {
			res, err := s.Step(id)
			if err != nil {
				t.Fatalf("step %v: %v", id, err)
			}
			if res.Outcome != StillWaiting && res.Outcome != AlreadyCommitted {
				progressed = true
			}
			if err := s.CheckInvariants(); err != nil {
				t.Fatalf("invariants after step %v: %v", id, err)
			}
		}
		if !progressed {
			t.Fatalf("no progress; stuck")
		}
	}
	t.Fatalf("did not terminate")
}

func transferProg(name, from, to string, amount int64) *txn.Program {
	return txn.NewProgram(name).
		Local("x", 0).Local("y", 0).
		LockX(from).
		Read(from, "x").
		LockX(to).
		Read(to, "y").
		Write(from, value.Sub(value.L("x"), value.C(amount))).
		Write(to, value.Add(value.L("y"), value.C(amount))).
		MustBuild()
}
