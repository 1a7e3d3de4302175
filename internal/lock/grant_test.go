package lock

import (
	"errors"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"partialrollback/internal/intern"
	"partialrollback/internal/txn"
)

// Grant, queue and promotion scenarios through the interned API the
// engine drives (AcquireID, ReleaseID, RemoveWaiterID). Several tests
// keep the names they had when the table also offered lock-free shared
// grants; each pins the same observable behaviour on the one table.

// internedTable builds a table over n interned entities.
func internedTable(t testing.TB, n int) (*Table, []intern.ID) {
	t.Helper()
	names := intern.NewTable()
	tab := NewTableInterned(names)
	ids := make([]intern.ID, n)
	for i := range ids {
		ids[i] = names.Intern("e" + string(rune('0'+i%10)) + string(rune('a'+i/10)))
	}
	return tab, ids
}

// mustGrant acquires ent for id and fails the test unless it is
// granted immediately.
func mustGrant(t testing.TB, tab *Table, id txn.ID, ent intern.ID, m Mode) {
	t.Helper()
	granted, blockers, err := tab.AcquireID(id, ent, m, nil)
	if err != nil || !granted {
		t.Fatalf("%v %v on %d: granted=%v blockers=%v err=%v", id, m, ent, granted, blockers, err)
	}
}

// mustRelease releases id's hold on ent and returns the promotions.
func mustRelease(t testing.TB, tab *Table, id txn.ID, ent intern.ID) []GrantID {
	t.Helper()
	grants, err := tab.ReleaseID(id, ent, nil)
	if err != nil {
		t.Fatal(err)
	}
	return grants
}

// assertIdle fails unless ent has no holders and no queue.
func assertIdle(t testing.TB, tab *Table, ent intern.ID) {
	t.Helper()
	if got := tab.HoldersAppend(ent, nil); len(got) != 0 {
		t.Errorf("entity %d: holders %v, want none", ent, got)
	}
	if q := tab.Queue(tab.Names().Name(ent)); len(q) != 0 {
		t.Errorf("entity %d: waiters %v, want none", ent, q)
	}
}

// TestFastSharedCAS: shared grants coexist, an exclusive request queues
// behind them, and the entity drains to idle once everyone releases.
func TestFastSharedCAS(t *testing.T) {
	tab, ents := internedTable(t, 4)
	e := ents[0]
	mustGrant(t, tab, 1, e, Shared)
	mustGrant(t, tab, 2, e, Shared)
	if got := tab.HoldersAppend(e, nil); !reflect.DeepEqual(got, []txn.ID{1, 2}) {
		t.Fatalf("holders = %v, want [1 2]", got)
	}
	granted, _, err := tab.AcquireID(3, e, Exclusive, nil)
	if err != nil || granted {
		t.Fatalf("exclusive over shared holders: granted=%v err=%v", granted, err)
	}
	if g := mustRelease(t, tab, 1, e); len(g) != 0 {
		t.Fatalf("release with a shared holder left promoted %v", g)
	}
	if g := mustRelease(t, tab, 2, e); !reflect.DeepEqual(g, []GrantID{{Txn: 3, Ent: e, Mode: Exclusive}}) {
		t.Fatalf("last shared release promoted %v, want T3 X", g)
	}
	if g := mustRelease(t, tab, 3, e); len(g) != 0 {
		t.Fatalf("idle release promoted %v", g)
	}
	assertIdle(t, tab, e)
	if held := tab.HeldBy(3); len(held) != 0 {
		t.Errorf("T3 still holds %v", held)
	}
	if err := tab.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestFastSharedFailsWhenTableOwned: a shared request queues behind an
// exclusive holder and is promoted when that holder releases.
func TestFastSharedFailsWhenTableOwned(t *testing.T) {
	tab, ents := internedTable(t, 4)
	e := ents[1]
	mustGrant(t, tab, 1, e, Exclusive)
	granted, blockers, err := tab.AcquireID(2, e, Shared, nil)
	if err != nil || granted || !reflect.DeepEqual(blockers, []txn.ID{1}) {
		t.Fatalf("shared under exclusive: granted=%v blockers=%v err=%v", granted, blockers, err)
	}
	if name, ok := tab.WaitingOn(2); !ok || name != tab.Names().Name(e) {
		t.Fatalf("T2 waiting on %q (%v), want %q", name, ok, tab.Names().Name(e))
	}
	if g := mustRelease(t, tab, 1, e); !reflect.DeepEqual(g, []GrantID{{Txn: 2, Ent: e, Mode: Shared}}) {
		t.Fatalf("release promoted %v, want T2 S", g)
	}
	if m, ok := tab.ModeOfID(2, e); !ok || m != Shared {
		t.Fatalf("T2 mode = %v (%v), want S", m, ok)
	}
	if _, ok := tab.WaitingOn(2); ok {
		t.Fatal("promoted T2 still marked waiting")
	}
	mustRelease(t, tab, 2, e)
	assertIdle(t, tab, e)
	if err := tab.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestSharedOwnedGrant: a shared grant joins an all-shared holder set,
// and an exclusive holder keeps the next shared request out.
func TestSharedOwnedGrant(t *testing.T) {
	tab, ents := internedTable(t, 4)
	e := ents[2]
	mustGrant(t, tab, 1, e, Shared)
	mustGrant(t, tab, 2, e, Shared)
	if got := tab.HoldersAppend(e, nil); len(got) != 2 {
		t.Fatalf("holders = %v, want 2", got)
	}
	for _, id := range []txn.ID{1, 2} {
		if m, ok := tab.ModeOfID(id, e); !ok || m != Shared {
			t.Fatalf("%v mode = %v (%v), want S", id, m, ok)
		}
	}
	mustRelease(t, tab, 2, e)
	mustRelease(t, tab, 1, e)
	mustGrant(t, tab, 3, e, Exclusive)
	if granted, _, err := tab.AcquireID(4, e, Shared, nil); err != nil || granted {
		t.Fatalf("shared over an exclusive holder: granted=%v err=%v", granted, err)
	}
	if err := tab.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestMigrateFastShared: an exclusive request blocked by two shared
// holders gets both as blockers, appended sorted after whatever the
// caller's buffer already holds.
func TestMigrateFastShared(t *testing.T) {
	tab, ents := internedTable(t, 4)
	e := ents[3]
	mustGrant(t, tab, 2, e, Shared)
	mustGrant(t, tab, 1, e, Shared)
	buf := []txn.ID{99}
	granted, blockers, err := tab.AcquireID(3, e, Exclusive, buf)
	if err != nil || granted {
		t.Fatalf("exclusive over two shared holders: granted=%v err=%v", granted, err)
	}
	if !reflect.DeepEqual(blockers, []txn.ID{99, 1, 2}) {
		t.Fatalf("blockers = %v, want [99 1 2]", blockers)
	}
	if err := tab.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if g, removed := tab.RemoveWaiterID(3, e, nil); !removed || len(g) != 0 {
		t.Fatalf("retract: removed=%v grants=%v", removed, g)
	}
	if err := tab.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestStripeAcquireCounters: every grant is reported exactly once —
// either as granted=true from AcquireID or as a GrantID from
// ReleaseID/RemoveWaiterID — over a seeded random walk of acquires,
// releases and retractions. After every operation each transaction's
// reported holds must equal what the table says it holds.
func TestStripeAcquireCounters(t *testing.T) {
	tab, ents := internedTable(t, 3)
	const txns = 6
	held := map[txn.ID]map[intern.ID]bool{}
	waiting := map[txn.ID]intern.ID{}
	for id := txn.ID(1); id <= txns; id++ {
		held[id] = map[intern.ID]bool{}
	}
	immediate, promoted := 0, 0
	record := func(grants []GrantID) {
		for _, g := range grants {
			if held[g.Txn][g.Ent] {
				t.Fatalf("grant of %d to %v reported twice", g.Ent, g.Txn)
			}
			if w, ok := waiting[g.Txn]; !ok || w != g.Ent {
				t.Fatalf("promotion of %v on %d, which it was not waiting for", g.Txn, g.Ent)
			}
			delete(waiting, g.Txn)
			held[g.Txn][g.Ent] = true
			promoted++
		}
	}
	rng := rand.New(rand.NewSource(7))
	for step := 0; step < 2000; step++ {
		id := txn.ID(1 + rng.Intn(txns))
		ent := ents[rng.Intn(len(ents))]
		w, isWaiting := waiting[id]
		switch {
		case isWaiting && rng.Intn(2) == 0:
			g, removed := tab.RemoveWaiterID(id, w, nil)
			if !removed {
				t.Fatalf("%v not queued on %d", id, w)
			}
			delete(waiting, id)
			record(g)
		case len(held[id]) > 0 && rng.Intn(2) == 0:
			for _, e := range ents {
				if held[id][e] {
					ent = e
					break
				}
			}
			delete(held[id], ent)
			record(mustRelease(t, tab, id, ent))
		case !isWaiting && !held[id][ent]:
			m := Shared
			if rng.Intn(2) == 0 {
				m = Exclusive
			}
			granted, _, err := tab.AcquireID(id, ent, m, nil)
			if err != nil {
				t.Fatal(err)
			}
			if granted {
				held[id][ent] = true
				immediate++
			} else {
				waiting[id] = ent
			}
		}
		for id := txn.ID(1); id <= txns; id++ {
			want := []string(nil)
			for e := range held[id] {
				want = append(want, tab.Names().Name(e))
			}
			got := tab.HeldBy(id)
			if len(got) != len(want) {
				t.Fatalf("step %d: %v holds %v in the table, %d reported", step, id, got, len(want))
			}
			for _, name := range want {
				e, _ := tab.Names().Lookup(name)
				if !held[id][e] {
					t.Fatalf("step %d: %v holds unreported %q", step, id, name)
				}
			}
		}
		if err := tab.CheckInvariants(); err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
	}
	if immediate == 0 || promoted == 0 {
		t.Fatalf("walk reported %d immediate and %d promoted grants; want both", immediate, promoted)
	}
}

// TestStripedFastPathsConcurrent has 8 goroutines (run with -race)
// cycle grants and releases on shared entities under one caller mutex,
// the way the engine drives the table: a request that would wait is
// retracted in the same critical section, so holds overlap across
// goroutines but no queue outlives a critical section. Afterwards the
// invariant sweep is clean and every entity is idle.
func TestStripedFastPathsConcurrent(t *testing.T) {
	tab, ents := internedTable(t, 8)
	const iters = 2000
	var mu sync.Mutex
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			id := txn.ID(g + 1)
			mode := Shared
			if g%2 == 1 {
				mode = Exclusive
			}
			var blockers []txn.ID
			var grants []GrantID
			for i := 0; i < iters; i++ {
				e := ents[(g+i)%len(ents)]
				mu.Lock()
				granted, b, err := tab.AcquireID(id, e, mode, blockers[:0])
				blockers = b
				if err == nil && !granted {
					grants, _ = tab.RemoveWaiterID(id, e, grants[:0])
				}
				mu.Unlock()
				if err != nil {
					errs <- err
					return
				}
				if !granted {
					continue
				}
				mu.Lock()
				grants, err = tab.ReleaseID(id, e, grants[:0])
				mu.Unlock()
				if err != nil {
					errs <- err
					return
				}
				if len(grants) != 0 {
					errs <- errPromoted
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	for _, e := range ents {
		assertIdle(t, tab, e)
	}
	if err := tab.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

var errPromoted = errors.New("release promoted a waiter, but none should be queued")

// TestFastSharedZeroAlloc pins the shared cycle: a second shared
// grant joining a held entity and its release allocate nothing in
// steady state.
func TestFastSharedZeroAlloc(t *testing.T) {
	tab, ents := internedTable(t, 4)
	e := ents[0]
	mustGrant(t, tab, 1, e, Shared)
	var gbuf []GrantID
	n := testing.AllocsPerRun(200, func() {
		granted, _, err := tab.AcquireID(2, e, Shared, nil)
		if err != nil || !granted {
			t.Fatalf("shared grant: granted=%v err=%v", granted, err)
		}
		gbuf, err = tab.ReleaseID(2, e, gbuf[:0])
		if err != nil {
			t.Fatal(err)
		}
	})
	if n != 0 {
		t.Fatalf("shared grant/release allocates %v per op, want 0", n)
	}
}

// TestStripedGrantReleaseZeroAlloc pins the exclusive cycle of a
// transaction holding two entities at once (a held list with more than
// one record) at zero allocations in steady state.
func TestStripedGrantReleaseZeroAlloc(t *testing.T) {
	tab, ents := internedTable(t, 4)
	id := txn.ID(7)
	var gbuf []GrantID
	n := testing.AllocsPerRun(200, func() {
		for _, e := range ents[1:3] {
			granted, _, err := tab.AcquireID(id, e, Exclusive, nil)
			if err != nil || !granted {
				t.Fatalf("exclusive grant: granted=%v err=%v", granted, err)
			}
		}
		for _, e := range ents[1:3] {
			var err error
			if gbuf, err = tab.ReleaseID(id, e, gbuf[:0]); err != nil {
				t.Fatal(err)
			}
		}
	})
	if n != 0 {
		t.Fatalf("exclusive grant/release allocates %v per op, want 0", n)
	}
}

// BenchmarkUncontendedSharedLock measures an uncontended shared
// grant/release through the table the way the engine pays for it:
// under the single mutex that serializes every step.
func BenchmarkUncontendedSharedLock(b *testing.B) {
	b.Run("table", func(b *testing.B) {
		names := intern.NewTable()
		tab := NewTableInterned(names)
		e := names.Intern("hot")
		id := txn.ID(1)
		var mu sync.Mutex
		var gbuf []GrantID
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			mu.Lock()
			granted, _, err := tab.AcquireID(id, e, Shared, nil)
			mu.Unlock()
			if err != nil || !granted {
				b.Fatalf("acquire: granted=%v err=%v", granted, err)
			}
			mu.Lock()
			gbuf, err = tab.ReleaseID(id, e, gbuf[:0])
			mu.Unlock()
			if err != nil {
				b.Fatal(err)
			}
		}
	})
}
