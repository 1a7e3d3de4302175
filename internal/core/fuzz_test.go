package core_test

import (
	"math/rand"
	"testing"

	"partialrollback/internal/core"
	"partialrollback/internal/deadlock"
	"partialrollback/internal/entity"
	"partialrollback/internal/txn"
	"partialrollback/internal/value"
)

// fuzzProgram decodes a byte string into a transaction program over a
// small entity/local universe. Invalid constructions are filtered by
// the builder's validator; valid ones are executed.
func fuzzProgram(data []byte) (*txn.Program, bool) {
	b := txn.NewProgram("F").
		Local("l0", 1).Local("l1", 2)
	entities := []string{"a", "b", "c", "d"}
	locals := []string{"l0", "l1"}
	locked := map[string]bool{}
	didLock := false
	for i := 0; i+1 < len(data); i += 2 {
		op := data[i] % 6
		arg := int(data[i+1])
		ent := entities[arg%len(entities)]
		loc := locals[arg%len(locals)]
		switch op {
		case 0:
			if locked[ent] || didLock && false {
				continue
			}
			b.LockX(ent)
			locked[ent] = true
			didLock = true
		case 1:
			if locked[ent] {
				continue
			}
			b.LockS(ent)
			locked[ent] = true
			didLock = true
		case 2:
			if !locked[ent] {
				continue
			}
			b.Read(ent, loc)
		case 3:
			if !locked[ent] || !didLock {
				continue
			}
			b.Write(ent, value.Add(value.L("l0"), value.C(int64(arg))))
		case 4:
			if !didLock {
				continue
			}
			b.Compute(loc, value.Add(value.L(loc), value.C(1)))
		case 5:
			// Unlock only in a suffix (cheap two-phase approximation):
			// allow it, the validator rejects later locks.
			if !locked[ent] {
				continue
			}
			b.Unlock(ent)
			delete(locked, ent)
		}
	}
	p, err := b.Build()
	if err != nil {
		return nil, false
	}
	return p, true
}

// FuzzProgramExecution builds programs from fuzz input and runs pairs
// of them to completion under every strategy, checking invariants and
// serializability. Write-locked entities written under LockS etc. are
// rejected by the validator; everything that validates must execute
// without engine errors.
func FuzzProgramExecution(f *testing.F) {
	f.Add([]byte{0, 0, 2, 0, 3, 1}, []byte{0, 1, 0, 0, 3, 0})
	f.Add([]byte{0, 0, 0, 1, 0, 2, 3, 0, 3, 1}, []byte{0, 2, 0, 1, 0, 0, 3, 2})
	f.Add([]byte{1, 0, 2, 0, 4, 1}, []byte{0, 0, 5, 0, 4, 0})
	f.Fuzz(func(t *testing.T, d1, d2 []byte) {
		p1, ok1 := fuzzProgram(d1)
		p2, ok2 := fuzzProgram(d2)
		if !ok1 || !ok2 {
			t.Skip()
		}
		p2 = p2.Clone()
		p2.Name = "F2"
		for _, strat := range []core.Strategy{core.Total, core.MCS, core.SDG, core.Hybrid} {
			store := entity.NewStore(map[string]int64{"a": 1, "b": 2, "c": 3, "d": 4})
			s, rec := recorded(core.Config{Store: store, Strategy: strat, Resolver: deadlock.Detect{}})
			id1, err := s.Register(p1)
			if err != nil {
				t.Skip() // e.g. locks an entity the store lacks (impossible here)
			}
			id2, err := s.Register(p2)
			if err != nil {
				t.Skip()
			}
			rng := rand.New(rand.NewSource(int64(len(d1))*31 + int64(len(d2))))
			for steps := 0; !s.AllCommitted(); steps++ {
				if steps > 100000 {
					t.Fatalf("%v: no termination", strat)
				}
				runnable := s.Runnable()
				if len(runnable) == 0 {
					t.Fatalf("%v: stuck", strat)
				}
				id := runnable[rng.Intn(len(runnable))]
				if _, err := s.Step(id); err != nil {
					t.Fatalf("%v: step: %v", strat, err)
				}
			}
			if err := s.CheckInvariants(); err != nil {
				t.Fatalf("%v: %v", strat, err)
			}
			if _, err := rec.CheckSerializable(); err != nil {
				t.Fatalf("%v: %v", strat, err)
			}
			_ = id1
			_ = id2
		}
	})
}
