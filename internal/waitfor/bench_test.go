package waitfor

import (
	"fmt"
	"testing"

	"partialrollback/internal/lock"
	"partialrollback/internal/txn"
)

// TestNoDeadlockCheckZeroAlloc pins the acceptance criterion: the
// no-deadlock wait check (HasCycleThrough / CyclesThrough returning
// nothing) allocates nothing on a live graph.
func TestNoDeadlockCheckZeroAlloc(t *testing.T) {
	g := New()
	// A chain with branches; no cycle anywhere.
	for i := 0; i < 32; i++ {
		g.AddWait(txn.ID(i), txn.ID(i+1), fmt.Sprintf("e%d", i))
		g.AddWait(txn.ID(i), txn.ID(i+2), fmt.Sprintf("e%d", i+1))
	}
	if n := testing.AllocsPerRun(200, func() {
		if g.HasCycleThrough(0) {
			t.Fatal("unexpected cycle")
		}
		if got := g.CyclesThrough(0, 1); got != nil {
			t.Fatalf("unexpected cycles %v", got)
		}
	}); n != 0 {
		t.Fatalf("no-deadlock check allocates %v per run, want 0", n)
	}
}

// TestLockTableCycleCheckZeroAlloc pins the per-wait deadlock check
// the engine runs: CycleThrough over a lock table allocates nothing once
// its buffer has grown. The table holds a branching chain of 32 waiters
// with no cycle: T_i waits to lock e_i exclusively, which T_i+1 and
// T_i+2 hold shared.
func TestLockTableCycleCheckZeroAlloc(t *testing.T) {
	tab := lock.NewTable()
	const n = 32
	for i := 1; i <= n; i++ {
		for _, h := range []int{i + 1, i + 2} {
			if ok, _, err := tab.Acquire(txn.ID(h), fmt.Sprintf("e%d", i), lock.Shared); !ok || err != nil {
				t.Fatalf("T%d shared e%d: granted %v, %v", h, i, ok, err)
			}
		}
	}
	for i := 1; i <= n; i++ {
		if ok, _, err := tab.Acquire(txn.ID(i), fmt.Sprintf("e%d", i), lock.Exclusive); ok || err != nil {
			t.Fatalf("T%d exclusive e%d: granted %v, %v", i, i, ok, err)
		}
	}
	var buf []txn.ID
	if n := testing.AllocsPerRun(200, func() {
		var cycle bool
		if cycle, buf = CycleThrough(tab, 1, buf); cycle {
			t.Fatal("unexpected cycle")
		}
	}); n != 0 {
		t.Fatalf("lock-table cycle check allocates %v per run, want 0", n)
	}
	if len(buf) != n+2 {
		t.Fatalf("walk from T1 reached %d transactions, want %d", len(buf), n+2)
	}
}

// benchChain builds a wait-for chain of n transactions with no cycle.
func benchChain(n int) *Graph {
	g := New()
	for i := 0; i < n-1; i++ {
		g.AddWait(txn.ID(i), txn.ID(i+1), fmt.Sprintf("e%d", i))
	}
	return g
}

// BenchmarkWaitNoDeadlock measures the per-wait deadlock check on a
// graph with no cycle — the common case every blocked request pays.
func BenchmarkWaitNoDeadlock(b *testing.B) {
	g := benchChain(64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if g.HasCycleThrough(0) {
			b.Fatal("unexpected cycle")
		}
	}
}

// BenchmarkCyclesThrough measures full cycle enumeration on a graph
// that actually deadlocks (a ring with chords), the rare slow path.
func BenchmarkCyclesThrough(b *testing.B) {
	g := New()
	const ring = 8
	for i := 0; i < ring; i++ {
		g.AddWait(txn.ID(i), txn.ID((i+1)%ring), fmt.Sprintf("e%d", i))
	}
	g.AddWait(2, 5, "chord1")
	g.AddWait(4, 1, "chord2")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if got := g.CyclesThrough(0, 0); len(got) == 0 {
			b.Fatal("expected cycles")
		}
	}
}
