package waitfor

import (
	"fmt"
	"math/rand"
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

func TestClearEntityWaits(t *testing.T) {
	g := New()
	g.AddWait(1, 2, "a")
	g.AddWait(1, 3, "a")
	g.AddWait(1, 3, "b")
	g.ClearEntityWaits(1, "a")
	arcs := g.Arcs()
	if len(arcs) != 1 || arcs[0].Entity != "b" {
		t.Errorf("arcs = %v", arcs)
	}
}

func TestRemoveAllWaitsBy(t *testing.T) {
	g := New()
	g.AddWait(1, 2, "a")
	g.AddWait(1, 3, "b")
	g.AddWait(4, 1, "c")
	g.RemoveAllWaitsBy(1)
	if got := g.Arcs(); len(got) != 1 || got[0] != (Arc{Waiter: 4, Holder: 1, Entity: "c"}) {
		t.Errorf("arcs = %v, want only the incoming 4 -c-> 1", got)
	}
}

func TestRemoveTxn(t *testing.T) {
	g := New()
	g.AddWait(1, 2, "a")
	g.AddWait(3, 1, "b")
	g.RemoveTxn(1)
	if len(g.Arcs()) != 0 {
		t.Errorf("arcs = %v", g.Arcs())
	}
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

// TestRebuildMatchesIncremental drives a lock table with random
// operations and checks that incremental maintenance (as core would do
// it) matches the from-scratch rebuild.
func TestRebuildMatchesIncremental(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for rep := 0; rep < 30; rep++ {
		tab := lock.NewTable()
		g := New()
		ids := []txn.ID{1, 2, 3, 4, 5}
		for _, id := range ids {
			g.AddTxn(id)
		}
		ents := []string{"a", "b", "c"}
		refresh := func(name string) {
			holders := tab.Holders(name)
			for _, w := range tab.Queue(name) {
				g.ClearEntityWaits(w.Txn, name)
				for _, h := range holders {
					if h == w.Txn {
						continue
					}
					hm, _ := tab.ModeOf(h, name)
					if w.Mode == lock.Exclusive || hm == lock.Exclusive {
						g.AddWait(w.Txn, h, name)
					}
				}
			}
		}
		for step := 0; step < 200; step++ {
			id := ids[rng.Intn(len(ids))]
			name := ents[rng.Intn(len(ents))]
			switch rng.Intn(3) {
			case 0:
				if _, w := tab.WaitingOn(id); w {
					continue
				}
				if _, h := tab.ModeOf(id, name); h {
					continue
				}
				m := lock.Shared
				if rng.Intn(2) == 0 {
					m = lock.Exclusive
				}
				granted, blockers, err := tab.Acquire(id, name, m)
				if err != nil {
					t.Fatal(err)
				}
				if granted {
					refresh(name)
				} else {
					for _, b := range blockers {
						g.AddWait(id, b, name)
					}
				}
			case 1:
				if _, h := tab.ModeOf(id, name); h {
					grants, err := tab.Release(id, name)
					if err != nil {
						t.Fatal(err)
					}
					refresh(name)
					for _, gr := range grants {
						g.RemoveAllWaitsBy(gr.Txn)
						refresh(gr.Entity)
					}
				}
			case 2:
				if e, w := tab.WaitingOn(id); w {
					grants, _ := tab.RemoveWaiter(id, e)
					g.RemoveAllWaitsBy(id)
					refresh(e)
					for _, gr := range grants {
						g.RemoveAllWaitsBy(gr.Txn)
						refresh(gr.Entity)
					}
				}
			}
			want := Rebuild(tab, ids)
			if fmt.Sprint(g.Arcs()) != fmt.Sprint(want.Arcs()) {
				t.Fatalf("step %d diverged:\n got %v\nwant %v", step, g.Arcs(), want.Arcs())
			}
		}
	}
}
