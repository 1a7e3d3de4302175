package waitfor

import (
	"cmp"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"partialrollback/internal/lock"
	"partialrollback/internal/txn"
)

func TestArcsAndLabels(t *testing.T) {
	g := New()
	g.AddWait(1, 2, "a")
	g.AddWait(1, 2, "b")
	g.AddWait(3, 2, "a")
	arcs := g.Arcs()
	if len(arcs) != 3 {
		t.Fatalf("arcs = %v", arcs)
	}
	if got := fmt.Sprint(arcs); got != "[T1 -a-> T2 T1 -b-> T2 T3 -a-> T2]" {
		t.Errorf("arcs = %s", got)
	}
}

func TestRemoveWaitDropsArcWhenLabelsEmpty(t *testing.T) {
	g := New()
	g.AddWait(1, 2, "a")
	g.AddWait(1, 2, "b")
	g.RemoveWait(1, 2, "a")
	if len(g.Arcs()) != 1 {
		t.Error("label removal dropped arc early")
	}
	g.RemoveWait(1, 2, "b")
	if len(g.Arcs()) != 0 {
		t.Error("arc should be gone")
	}
	g.RemoveWait(9, 9, "z") // no-op
}

func TestCyclesAndForest(t *testing.T) {
	g := New()
	g.AddWait(1, 2, "a")
	g.AddWait(2, 3, "b")
	if g.HasCycle() || !g.IsForest() {
		t.Error("chain")
	}
	if g.HasCycleThrough(3) {
		t.Error("chain has no cycle through 3")
	}
	if c := g.ComponentOf(3); len(c.Members) != 1 || c.Members[0] != 3 {
		t.Errorf("chain component of 3 = %v, want [T3]", c.Members)
	}
	// 3 waiting on 1 closes the cycle 3 -> 1 -> 2 -> 3.
	g.AddWait(3, 1, "c")
	if !g.HasCycle() || g.IsForest() || !g.HasCycleThrough(3) {
		t.Error("cycle not detected")
	}
	if c := g.ComponentOf(3); fmt.Sprint(c.Members) != "[T1 T2 T3]" {
		t.Errorf("component of 3 = %v, want [T1 T2 T3]", c.Members)
	}
	cycles := g.CyclesThrough(3, 0)
	if len(cycles) != 1 || len(cycles[0]) != 3 || cycles[0][0] != 3 {
		t.Errorf("cycles = %v", cycles)
	}
}

func TestMultiCyclesThroughRequester(t *testing.T) {
	g := New()
	// Figure 3(c) shape: 2->1 (a), 3->1 (b), 1->2 (f), 1->3 (f).
	g.AddWait(2, 1, "a")
	g.AddWait(3, 1, "b")
	g.AddWait(1, 2, "f")
	g.AddWait(1, 3, "f")
	cycles := g.CyclesThrough(1, 0)
	if len(cycles) != 2 {
		t.Fatalf("cycles = %v", cycles)
	}
	for _, c := range cycles {
		if c[0] != 1 {
			t.Errorf("cycle must start at requester: %v", c)
		}
	}
}

// TestComponentOf checks the requester's component, its arcs and each
// member's contested entities on Figure 3(c)'s shape plus a waiter (4)
// and a holder (5) that lie on no cycle.
func TestComponentOf(t *testing.T) {
	g := New()
	g.AddWait(2, 1, "a")
	g.AddWait(3, 1, "b")
	g.AddWait(1, 2, "f")
	g.AddWait(1, 3, "f")
	g.AddWait(4, 1, "a")
	g.AddWait(2, 5, "g")
	c := g.ComponentOf(1)
	if got := fmt.Sprint(c.Members, c.Succ); got != "[T1 T2 T3] [[1 2] [0] [0]]" {
		t.Errorf("members, succ = %s", got)
	}
	var contested []string
	for _, ls := range c.Contested {
		var names []string
		for _, l := range ls {
			names = append(names, g.Names().Name(l))
		}
		contested = append(contested, strings.Join(names, ","))
	}
	if got := strings.Join(contested, " "); got != "a,b f f" {
		t.Errorf("contested = %q, want T1 {a,b}, T2 {f}, T3 {f}", got)
	}
	if c := g.ComponentOf(9); len(c.Members) != 1 || c.Members[0] != 9 {
		t.Errorf("unknown transaction's component = %v", c.Members)
	}
}

func TestString(t *testing.T) {
	g := New()
	g.AddWait(1, 2, "a")
	s := g.String()
	if !strings.Contains(s, "T2 -a-> T1") {
		t.Errorf("paper orientation missing: %q", s)
	}
	if fmt.Sprint(Arc{Waiter: 1, Holder: 2, Entity: "a"}) != "T1 -a-> T2" {
		t.Error("arc string")
	}
}

// TestRebuildMatchesIncremental drives a lock table with a seeded
// random walk of acquires, releases and retractions and, after every
// step, checks the lock-table deadlock check against the whole rebuilt
// graph (checkOracle). The name is historical: the test once compared
// an incrementally maintained graph with the rebuild.
func TestRebuildMatchesIncremental(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for rep := 0; rep < 30; rep++ {
		tab := lock.NewTable()
		for step := 0; step < 200; step++ {
			applyStep(t, tab, oracleIDs[rng.Intn(len(oracleIDs))], oracleEnts[rng.Intn(len(oracleEnts))], rng.Intn(4))
			checkOracle(t, tab)
		}
	}
}

// FuzzWaitCycle decodes shared and exclusive acquires, releases and
// retractions over a few transactions and entities from the fuzz bytes,
// one byte a step, and checks checkOracle after each.
func FuzzWaitCycle(f *testing.F) {
	f.Add([]byte{0x05, 0x09, 0x2d, 0x31, 0x4d, 0x51, 0x21})
	f.Add([]byte{0x00, 0x04, 0x08, 0x0c, 0x10, 0x21, 0x25, 0x29})
	f.Fuzz(func(t *testing.T, data []byte) {
		tab := lock.NewTable()
		for _, b := range data {
			applyStep(t, tab, oracleIDs[int(b>>2&7)%len(oracleIDs)], oracleEnts[int(b>>5)%len(oracleEnts)], int(b&3))
			checkOracle(t, tab)
		}
	})
}

var (
	oracleIDs  = []txn.ID{1, 2, 3, 4, 5}
	oracleEnts = []string{"a", "b", "c"}
)

// applyStep applies one step to tab: kind 0 and 1 acquire name shared
// and exclusive, 2 releases it, 3 retracts id's queued request. A step
// the table would refuse (id already waits, holds name, or does not
// hold or wait as the step needs) is skipped.
func applyStep(t *testing.T, tab *lock.Table, id txn.ID, name string, kind int) {
	t.Helper()
	_, waiting := tab.WaitingOn(id)
	_, holds := tab.ModeOf(id, name)
	switch {
	case kind <= 1 && !waiting && !holds:
		m := lock.Shared
		if kind == 1 {
			m = lock.Exclusive
		}
		if _, _, err := tab.Acquire(id, name, m); err != nil {
			t.Fatal(err)
		}
	case kind == 2 && holds:
		if _, err := tab.Release(id, name); err != nil {
			t.Fatal(err)
		}
	case kind == 3 && waiting:
		e, _ := tab.WaitingOn(id)
		tab.RemoveWaiter(id, e)
	}
}

// checkOracle checks, for every transaction, the lock-table check
// against the graph rebuilt over all of them: CycleThrough agrees with
// HasCycleThrough, and the graph RebuildFrom builds gives the same
// ComponentOf and CyclesThrough. The rebuilt arcs themselves are
// checked against a derivation through the table's name-keyed API.
func checkOracle(t *testing.T, tab *lock.Table) {
	t.Helper()
	if err := tab.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	whole := Rebuild(tab, oracleIDs)
	if got, want := fmt.Sprint(whole.Arcs()), fmt.Sprint(namedArcs(tab, oracleIDs)); got != want {
		t.Fatalf("rebuilt arcs %s, want %s", got, want)
	}
	var buf []txn.ID
	for _, id := range oracleIDs {
		var cycle bool
		cycle, buf = CycleThrough(tab, id, buf)
		if want := whole.HasCycleThrough(id); cycle != want {
			t.Fatalf("CycleThrough(%v) = %v, graph says %v; arcs %v", id, cycle, want, whole.Arcs())
		}
		part := RebuildFrom(tab, id)
		if got, want := componentString(part, id), componentString(whole, id); got != want {
			t.Fatalf("component of %v from the reachable part %s, whole graph %s; arcs %v", id, got, want, whole.Arcs())
		}
		if got, want := fmt.Sprint(part.CyclesThrough(id, 0)), fmt.Sprint(whole.CyclesThrough(id, 0)); got != want {
			t.Fatalf("cycles through %v from the reachable part %s, whole graph %s", id, got, want)
		}
	}
}

// namedArcs derives the arcs of ids from the lock table's name-keyed
// API: each waiter's arc to every holder of its entity whose mode
// conflicts with its queued request.
func namedArcs(tab *lock.Table, ids []txn.ID) []Arc {
	var out []Arc
	for _, id := range ids {
		name, ok := tab.WaitingOn(id)
		if !ok {
			continue
		}
		mode := lock.Exclusive
		for _, w := range tab.Queue(name) {
			if w.Txn == id {
				mode = w.Mode
			}
		}
		for _, h := range tab.Holders(name) {
			if hm, _ := tab.ModeOf(h, name); h != id && (mode == lock.Exclusive || hm == lock.Exclusive) {
				out = append(out, Arc{Waiter: id, Holder: h, Entity: name})
			}
		}
	}
	slices.SortFunc(out, func(a, b Arc) int {
		return cmp.Or(cmp.Compare(a.Waiter, b.Waiter), cmp.Compare(a.Holder, b.Holder), cmp.Compare(a.Entity, b.Entity))
	})
	return out
}

// componentString renders id's component with each member's contested
// entities as a sorted name set.
func componentString(g *Graph, id txn.ID) string {
	c := g.ComponentOf(id)
	contested := make([][]string, len(c.Contested))
	for i, ls := range c.Contested {
		for _, l := range ls {
			contested[i] = append(contested[i], g.Names().Name(l))
		}
		slices.Sort(contested[i])
		contested[i] = slices.Compact(contested[i])
	}
	return fmt.Sprint(c.Members, c.Succ, contested)
}
