package lock

import (
	"math/rand"
	"reflect"
	"testing"

	"partialrollback/internal/txn"
)

func TestExclusiveConflict(t *testing.T) {
	tab := NewTable()
	granted, _, err := tab.Acquire(1, "a", Exclusive)
	if err != nil || !granted {
		t.Fatalf("first X: %v %v", granted, err)
	}
	granted, blockers, err := tab.Acquire(2, "a", Exclusive)
	if err != nil || granted {
		t.Fatalf("second X should wait")
	}
	if !reflect.DeepEqual(blockers, []txn.ID{1}) {
		t.Errorf("blockers = %v", blockers)
	}
	if e, ok := tab.WaitingOn(2); !ok || e != "a" {
		t.Error("waiting index")
	}
	grants, err := tab.Release(1, "a")
	if err != nil {
		t.Fatal(err)
	}
	if len(grants) != 1 || grants[0].Txn != 2 || grants[0].Mode != Exclusive {
		t.Errorf("grants = %v", grants)
	}
	if _, ok := tab.WaitingOn(2); ok {
		t.Error("2 should no longer wait")
	}
	if err := tab.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

func TestSharedCompatibility(t *testing.T) {
	tab := NewTable()
	for id := txn.ID(1); id <= 3; id++ {
		granted, _, err := tab.Acquire(id, "a", Shared)
		if err != nil || !granted {
			t.Fatalf("shared %v: %v %v", id, granted, err)
		}
	}
	granted, blockers, err := tab.Acquire(4, "a", Exclusive)
	if err != nil || granted {
		t.Fatal("X against 3 S holders should wait")
	}
	if len(blockers) != 3 {
		t.Errorf("blockers = %v", blockers)
	}
	// Releasing two of three S holders does not grant the X.
	for id := txn.ID(1); id <= 2; id++ {
		grants, err := tab.Release(id, "a")
		if err != nil || len(grants) != 0 {
			t.Fatalf("premature grant: %v %v", grants, err)
		}
	}
	grants, err := tab.Release(3, "a")
	if err != nil || len(grants) != 1 || grants[0].Txn != 4 {
		t.Fatalf("final release grants = %v, %v", grants, err)
	}
}

func TestSharedGrantsBatchOnRelease(t *testing.T) {
	tab := NewTable()
	mustAcquire(t, tab, 1, "a", Exclusive)
	for id := txn.ID(2); id <= 4; id++ {
		if g, _, _ := tab.Acquire(id, "a", Shared); g {
			t.Fatal("S against X should wait")
		}
	}
	grants, err := tab.Release(1, "a")
	if err != nil {
		t.Fatal(err)
	}
	if len(grants) != 3 {
		t.Errorf("all shared waiters should be granted together: %v", grants)
	}
}

func TestSharedJumpsQueue(t *testing.T) {
	// Holders {S}, queue [X]: a new S is granted immediately (grant
	// decisions consult holders only), keeping the invariant that every
	// queued waiter conflicts with a current holder.
	tab := NewTable()
	mustAcquire(t, tab, 1, "a", Shared)
	if g, _, _ := tab.Acquire(2, "a", Exclusive); g {
		t.Fatal("X should wait")
	}
	g, _, err := tab.Acquire(3, "a", Shared)
	if err != nil || !g {
		t.Fatal("S should jump the queued X")
	}
	if err := tab.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

func TestPromoteSkipsIncompatible(t *testing.T) {
	// queue [X2, S3]: after the X holder releases, X2 is granted and S3
	// keeps waiting on X2.
	tab := NewTable()
	mustAcquire(t, tab, 1, "a", Exclusive)
	if g, _, _ := tab.Acquire(2, "a", Exclusive); g {
		t.Fatal()
	}
	if g, _, _ := tab.Acquire(3, "a", Shared); g {
		t.Fatal()
	}
	grants, err := tab.Release(1, "a")
	if err != nil || len(grants) != 1 || grants[0].Txn != 2 {
		t.Fatalf("grants = %v", grants)
	}
	if e, ok := tab.WaitingOn(3); !ok || e != "a" {
		t.Error("S3 must still wait")
	}
	if err := tab.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

func TestAcquireErrors(t *testing.T) {
	tab := NewTable()
	mustAcquire(t, tab, 1, "a", Exclusive)
	if _, _, err := tab.Acquire(1, "a", Shared); err == nil {
		t.Error("re-request of held entity must error")
	}
	if g, _, _ := tab.Acquire(2, "a", Shared); g {
		t.Fatal()
	}
	if _, _, err := tab.Acquire(2, "b", Shared); err == nil {
		t.Error("request while waiting must error")
	}
	if _, err := tab.Release(3, "a"); err == nil {
		t.Error("release of entity not held must error")
	}
	if _, err := tab.Release(1, "zzz"); err == nil {
		t.Error("release of unknown entity must error")
	}
}

func TestRemoveWaiter(t *testing.T) {
	tab := NewTable()
	mustAcquire(t, tab, 1, "a", Exclusive)
	if g, _, _ := tab.Acquire(2, "a", Exclusive); g {
		t.Fatal()
	}
	grants, removed := tab.RemoveWaiter(2, "a")
	if !removed || len(grants) != 0 {
		t.Errorf("remove waiter: %v %v", grants, removed)
	}
	if _, ok := tab.WaitingOn(2); ok {
		t.Error("still marked waiting")
	}
	if _, removed := tab.RemoveWaiter(2, "a"); removed {
		t.Error("double removal")
	}
}

func TestQueueAndHolders(t *testing.T) {
	tab := NewTable()
	mustAcquire(t, tab, 1, "a", Exclusive)
	_, _, _ = tab.Acquire(2, "a", Shared)
	_, _, _ = tab.Acquire(3, "a", Exclusive)
	q := tab.Queue("a")
	if len(q) != 2 || q[0].Txn != 2 || q[1].Txn != 3 {
		t.Errorf("queue = %v", q)
	}
	if h := tab.Holders("a"); len(h) != 1 || h[0] != 1 {
		t.Errorf("holders = %v", h)
	}
	if m, ok := tab.ModeOf(1, "a"); !ok || m != Exclusive {
		t.Error("mode")
	}
	if got := tab.HeldBy(1); len(got) != 1 || got[0] != "a" {
		t.Errorf("held = %v", got)
	}
	if tab.Queue("nope") != nil || tab.Holders("nope") != nil {
		t.Error("unknown entity")
	}
}

func TestCompatibleAndStrings(t *testing.T) {
	if !Compatible(Shared, Shared) || Compatible(Shared, Exclusive) ||
		Compatible(Exclusive, Shared) || Compatible(Exclusive, Exclusive) {
		t.Error("compatibility matrix")
	}
	if Shared.String() != "S" || Exclusive.String() != "X" {
		t.Error("mode strings")
	}
}

// TestQuickRandomOpsKeepInvariants drives the table with random
// acquire/release/remove operations and checks invariants throughout.
func TestQuickRandomOpsKeepInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for rep := 0; rep < 50; rep++ {
		tab := NewTable()
		const txns, ents = 6, 4
		for step := 0; step < 300; step++ {
			id := txn.ID(1 + rng.Intn(txns))
			name := string(rune('a' + rng.Intn(ents)))
			switch rng.Intn(4) {
			case 0, 1:
				if _, waiting := tab.WaitingOn(id); waiting {
					continue
				}
				if _, held := tab.ModeOf(id, name); held {
					continue
				}
				m := Shared
				if rng.Intn(2) == 0 {
					m = Exclusive
				}
				if _, _, err := tab.Acquire(id, name, m); err != nil {
					t.Fatalf("step %d acquire: %v", step, err)
				}
			case 2:
				if _, held := tab.ModeOf(id, name); held {
					if _, err := tab.Release(id, name); err != nil {
						t.Fatalf("step %d release: %v", step, err)
					}
				}
			case 3:
				if e, waiting := tab.WaitingOn(id); waiting {
					tab.RemoveWaiter(id, e)
				}
			}
			if err := tab.CheckInvariants(); err != nil {
				t.Fatalf("step %d: %v", step, err)
			}
		}
	}
}

func mustAcquire(t *testing.T, tab *Table, id txn.ID, name string, m Mode) {
	t.Helper()
	granted, _, err := tab.Acquire(id, name, m)
	if err != nil || !granted {
		t.Fatalf("acquire %v %s %v: granted=%v err=%v", id, name, m, granted, err)
	}
}
