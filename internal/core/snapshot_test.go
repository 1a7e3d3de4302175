package core

import (
	"testing"

	"partialrollback/internal/entity"
	"partialrollback/internal/txn"
	"partialrollback/internal/value"
)

// label historical: the node has one engine since sharding left it, so
// the snapshot no longer carries a shard index.
func TestDebugSnapshot(t *testing.T) {
	store := entity.NewStore(map[string]int64{"a": 0, "b": 0})
	s := New(Config{Store: store, Strategy: MCS})

	holder := s.MustRegister(txn.NewProgram("holder").
		Local("v", 0).
		LockX("a").Read("a", "v").Write("a", value.Add(value.L("v"), value.C(1))).
		LockS("b").
		MustBuild())
	waiter := s.MustRegister(txn.NewProgram("waiter").LockX("a").MustBuild())

	// holder: X(a), read, write, S(b) — four steps, two locks, state 4.
	for i := 0; i < 4; i++ {
		if res, err := s.Step(holder); err != nil || res.Outcome != Progressed {
			t.Fatalf("holder step %d = %v, %v", i, res.Outcome, err)
		}
	}
	if res, err := s.Step(waiter); err != nil || res.Outcome != Blocked {
		t.Fatalf("waiter step = %v, %v", res.Outcome, err)
	}

	snap := s.DebugSnapshot()
	if len(snap.Txns) != 2 {
		t.Fatalf("txns = %d, want 2", len(snap.Txns))
	}
	// Sorted by ID: holder registered first.
	h, w := snap.Txns[0], snap.Txns[1]
	if h.ID != holder || h.Program != "holder" || h.Status != "running" {
		t.Errorf("holder snapshot = %+v", h)
	}
	if h.StateIndex != 4 || h.RestartCost != 4 {
		t.Errorf("holder state=%d restart-cost=%d, want 4/4", h.StateIndex, h.RestartCost)
	}
	if h.LockIndex != 2 || len(h.Held) != 2 {
		t.Errorf("holder lock-index=%d held=%v", h.LockIndex, h.Held)
	}
	modes := map[string]string{}
	for _, hl := range h.Held {
		modes[hl.Entity] = hl.Mode
	}
	if modes["a"] != "X" || modes["b"] != "S" {
		t.Errorf("held modes = %v, want a:X b:S", modes)
	}
	if w.Status != "waiting" || w.WaitingOn != "a" || len(w.Held) != 0 {
		t.Errorf("waiter snapshot = %+v", w)
	}
	if len(snap.Arcs) != 1 || snap.Arcs[0].Waiter != waiter || snap.Arcs[0].Holder != holder || snap.Arcs[0].Entity != "a" {
		t.Errorf("arcs = %+v", snap.Arcs)
	}
	if snap.Stats.Grants != 2 || snap.Stats.Waits != 1 {
		t.Errorf("stats = %+v, want 2 grants 1 wait", snap.Stats)
	}

	// Stats in the snapshot track the live system, and committed
	// transactions report their terminal status until forgotten.
	if _, err := s.Step(holder); err != nil { // commit releases locks
		t.Fatal(err)
	}
	snap = s.DebugSnapshot()
	for _, ts := range snap.Txns {
		if ts.ID == holder && ts.Status != "committed" {
			t.Errorf("holder status after commit = %q", ts.Status)
		}
	}
}
