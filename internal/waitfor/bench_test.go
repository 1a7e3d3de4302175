package waitfor

import (
	"fmt"
	"testing"

	"partialrollback/internal/txn"
)

// TestRemoveTxnDropsOnlyIncidentArcs pins the O(degree) RemoveTxn
// rework: removing one transaction drops exactly its incident arcs
// (both directions, all labels) and leaves every other arc — including
// arcs whose label sets share entities with the removed node — intact.
func TestRemoveTxnDropsOnlyIncidentArcs(t *testing.T) {
	g := New()
	// 1 waits for 2 (a,b); 2 waits for 3 (c); 3 waits for 1 (d);
	// 4 waits for 2 (a); 5 waits for 6 (a) — disjoint from 2.
	g.AddWait(1, 2, "a")
	g.AddWait(1, 2, "b")
	g.AddWait(2, 3, "c")
	g.AddWait(3, 1, "d")
	g.AddWait(4, 2, "a")
	g.AddWait(5, 6, "a")

	g.RemoveTxn(2)

	if got := fmt.Sprint(g.Arcs()); got != "[T3 -d-> T1 T5 -a-> T6]" {
		t.Fatalf("after RemoveTxn(2): arcs = %s, want 3 -d-> 1 and 5 -a-> 6 only", got)
	}
	// The removed vertex is really gone: re-adding starts clean, with
	// no old arc or label.
	g.AddWait(2, 5, "z")
	if got := fmt.Sprint(g.Arcs()); got != "[T2 -z-> T5 T3 -d-> T1 T5 -a-> T6]" {
		t.Errorf("re-added node 2 has stale state: arcs = %s", got)
	}
}

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
