package lock

import (
	"fmt"
	"testing"

	"partialrollback/internal/intern"
	"partialrollback/internal/txn"
)

// benchTable builds a table over n interned entities and returns the
// table plus the IDs, with one warm-up acquire/release per entity so
// every internal slice has reached steady-state capacity.
func benchTable(n int) (*Table, []intern.ID) {
	names := intern.NewTable()
	t := NewTableInterned(names)
	ids := make([]intern.ID, n)
	for i := 0; i < n; i++ {
		ids[i] = names.Intern(string(rune('a'+i%26)) + "ent")
	}
	return t, ids
}

// BenchmarkGrantRelease measures the uncontended hot path: one
// transaction acquiring and releasing an exclusive lock through the
// interned API. This is the per-operation cost every Step pays.
func BenchmarkGrantRelease(b *testing.B) {
	t, _ := benchTable(0)
	names := t.Names()
	ent := names.Intern("hot")
	id := txn.ID(1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		granted, _, err := t.AcquireID(id, ent, Exclusive, nil)
		if err != nil || !granted {
			b.Fatalf("acquire: granted=%v err=%v", granted, err)
		}
		if _, err := t.ReleaseID(id, ent, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// TestGrantReleaseZeroAlloc pins the acceptance criterion: the
// uncontended grant/release cycle allocates nothing in steady state.
func TestGrantReleaseZeroAlloc(t *testing.T) {
	tab, _ := benchTable(0)
	ent := tab.Names().Intern("hot")
	id := txn.ID(1)
	var gbuf []GrantID
	n := testing.AllocsPerRun(200, func() {
		granted, _, err := tab.AcquireID(id, ent, Exclusive, nil)
		if err != nil || !granted {
			t.Fatalf("acquire: granted=%v err=%v", granted, err)
		}
		gbuf, err = tab.ReleaseID(id, ent, gbuf[:0])
		if err != nil {
			t.Fatal(err)
		}
	})
	if n != 0 {
		t.Fatalf("grant/release allocates %v per op, want 0", n)
	}
}

// TestWaitAndPromoteZeroAlloc covers the contended path with buffer
// reuse: queue a conflicting waiter (append-into-caller blockers),
// retract it, release. Steady state allocates nothing.
func TestWaitAndPromoteZeroAlloc(t *testing.T) {
	tab, _ := benchTable(0)
	ent := tab.Names().Intern("hot")
	holder, waiter := txn.ID(1), txn.ID(2)
	var blockers []txn.ID
	var gbuf []GrantID
	n := testing.AllocsPerRun(200, func() {
		if granted, _, err := tab.AcquireID(holder, ent, Exclusive, nil); err != nil || !granted {
			t.Fatalf("holder acquire: granted=%v err=%v", granted, err)
		}
		var err error
		granted := false
		granted, blockers, err = tab.AcquireID(waiter, ent, Exclusive, blockers[:0])
		if err != nil || granted || len(blockers) != 1 || blockers[0] != holder {
			t.Fatalf("waiter acquire: granted=%v blockers=%v err=%v", granted, blockers, err)
		}
		gbuf, err = tab.ReleaseID(holder, ent, gbuf[:0])
		if err != nil || len(gbuf) != 1 || gbuf[0].Txn != waiter {
			t.Fatalf("release: grants=%v err=%v", gbuf, err)
		}
		gbuf, err = tab.ReleaseID(waiter, ent, gbuf[:0])
		if err != nil {
			t.Fatal(err)
		}
	})
	if n != 0 {
		t.Fatalf("wait/promote cycle allocates %v per op, want 0", n)
	}
}

// TestInternedTableFirstTouchAllocs pins that a table made over an
// interner that already holds its entities sizes the entry slice once:
// the first grant on the last of 10 000 entities costs the same
// allocations as one on the first (growing the slice on first touch
// reallocated it 18 more times).
func TestInternedTableFirstTouchAllocs(t *testing.T) {
	const n = 10000
	names := intern.NewTable()
	for i := 0; i < n; i++ {
		names.Intern(fmt.Sprintf("e%d", i))
	}
	firstTouch := func(ent intern.ID) float64 {
		return testing.AllocsPerRun(10, func() {
			tab := NewTableInterned(names)
			if granted, _, err := tab.AcquireID(1, ent, Exclusive, nil); err != nil || !granted {
				t.Fatalf("acquire: granted=%v err=%v", granted, err)
			}
		})
	}
	if lo, hi := firstTouch(0), firstTouch(n-1); hi != lo {
		t.Fatalf("first grant allocates %v on entity %d, %v on entity 0", hi, n-1, lo)
	}
}
