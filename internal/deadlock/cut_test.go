package deadlock

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"

	"partialrollback/internal/core"
	"partialrollback/internal/graph"
	"partialrollback/internal/txn"
	"partialrollback/internal/waitfor"
)

// randomDeadlock builds a wait-for graph over transactions 1..n whose
// part without the requester r is acyclic (its arcs follow a random
// topological order), with random plan costs (some members cannot be
// rolled back) and random entry order.
func randomDeadlock(seed int64, size uint8) (*waitfor.Graph, Info) {
	rng := rand.New(rand.NewSource(seed))
	n := 2 + int(size)%9
	r := txn.ID(1 + rng.Intn(n))
	var order []txn.ID
	for _, i := range rng.Perm(n) {
		if id := txn.ID(i + 1); id != r {
			order = append(order, id)
		}
	}
	g := waitfor.New()
	g.AddTxn(r)
	for i, u := range order {
		for _, w := range order[i+1:] {
			if rng.Intn(3) == 0 {
				g.AddWait(u, w, fmt.Sprint("e", w))
			}
		}
		if rng.Intn(3) == 0 {
			g.AddWait(r, u, fmt.Sprint("e", u))
		}
		if rng.Intn(3) == 0 {
			g.AddWait(u, r, fmt.Sprint("e", r))
		}
	}
	costs := map[txn.ID]int64{}
	entries := map[txn.ID]int64{}
	for i, p := range rng.Perm(n) {
		id := txn.ID(i + 1)
		entries[id] = int64(p)
		if rng.Intn(5) > 0 {
			costs[id] = int64(rng.Intn(6))
		}
	}
	c := g.ComponentOf(r)
	return g, Info{
		Requester: r,
		Members:   c.Members,
		Succ:      c.Succ,
		Plan: func(id txn.ID) (core.Victim, bool) {
			cost, ok := costs[id]
			return core.Victim{Txn: id, Cost: cost}, ok
		},
		Entry: func(id txn.ID) int64 { return entries[id] },
	}
}

// exactCut runs the exhaustive subset search over every cycle through
// the requester, with only the members allow admits as candidates.
func exactCut(cycles [][]txn.ID, in Info, allow func(txn.ID) bool) ([]txn.ID, int64, bool) {
	inst := graph.CutInstance{Cost: map[int]int64{}}
	for _, c := range cycles {
		var cycle []int
		for _, id := range c {
			cycle = append(cycle, int(id))
		}
		inst.Cycles = append(inst.Cycles, cycle)
	}
	for _, id := range in.Members {
		if v, ok := in.Plan(id); ok && allow(id) {
			inst.Cost[int(id)] = v.Cost
		}
	}
	cut, cost, ok := graph.MinCostCutExact(inst, 20)
	var out []txn.ID
	for _, v := range cut {
		out = append(out, txn.ID(v))
	}
	return out, cost, ok
}

func victimIDs(vs []core.Victim) (ids []txn.ID, cost int64) {
	for _, v := range vs {
		ids = append(ids, v.Txn)
		cost += v.Cost
	}
	return ids, cost
}

// hits reports whether cycle c has a member in chosen.
func hits(c []txn.ID, chosen map[txn.ID]bool) bool {
	for _, id := range c {
		if chosen[id] {
			return true
		}
	}
	return false
}

// youngestPerCycle is the ordered fallback restated over an explicit
// cycle list: the first cycle no victim breaks loses its youngest
// member that has a plan, until every cycle is broken.
func youngestPerCycle(cycles [][]txn.ID, in Info) ([]txn.ID, bool) {
	chosen := map[txn.ID]bool{}
	for _, c := range cycles {
		if hits(c, chosen) {
			continue
		}
		best, found := txn.ID(0), false
		for _, id := range c {
			if _, ok := in.Plan(id); ok && (!found || in.Entry(id) > in.Entry(best)) {
				best, found = id, true
			}
		}
		if !found {
			return nil, false
		}
		chosen[best] = true
	}
	return sortedKeys(chosen), true
}

// youngestFirst is youngest-victim restated over an explicit cycle
// list: members youngest first (ties by ID) are taken while they break
// a cycle no victim breaks yet.
func youngestFirst(cycles [][]txn.ID, in Info) ([]txn.ID, bool) {
	order := append([]txn.ID(nil), in.Members...)
	sort.SliceStable(order, func(i, j int) bool { return in.Entry(order[i]) > in.Entry(order[j]) })
	chosen := map[txn.ID]bool{}
	for _, id := range order {
		if _, ok := in.Plan(id); !ok {
			continue
		}
		for _, c := range cycles {
			if !hits(c, chosen) && slices.Contains(c, id) {
				chosen[id] = true
				break
			}
		}
	}
	for _, c := range cycles {
		if !hits(c, chosen) {
			return nil, false
		}
	}
	return sortedKeys(chosen), true
}

func sortedKeys(set map[txn.ID]bool) []txn.ID {
	var out []txn.ID
	for id := range set {
		out = append(out, id)
	}
	slices.Sort(out)
	return out
}

// agree fails t unless the policy's victims (or its error) match the
// cycle-list restatement's.
func agree(t *testing.T, p Policy, in Info, want []txn.ID, ok bool, g *waitfor.Graph) {
	t.Helper()
	got, err := p.Choose(in)
	ids, _ := victimIDs(got)
	if (err == nil) != ok || !reflect.DeepEqual(ids, want) {
		t.Fatalf("%s = %v (err %v), over the cycle list = %v (ok %v)\n%s", p.Name(), ids, err, want, ok, g)
	}
}

// FuzzVictimCut checks the max-flow cut against graph.MinCostCutExact
// over the uncapped cycle enumeration, on random graphs whose part
// without the requester is acyclic: min-cost, and ordered-min-cost
// whenever its younger-only cut exists, choose the same cost and the
// same victim set (the smallest ID-ordered bitmask among optimal
// covers). The ordered fallback and youngest-victim must choose what
// their rules choose over the enumerated cycle list.
func FuzzVictimCut(f *testing.F) {
	for seed := int64(0); seed < 16; seed++ {
		f.Add(seed, uint8(seed))
	}
	f.Fuzz(func(t *testing.T, seed int64, size uint8) {
		g, in := randomDeadlock(seed, size)
		cycles := g.CyclesThrough(in.Requester, 0)
		if len(cycles) == 0 {
			return
		}
		want, wantCost, ok := exactCut(cycles, in, func(txn.ID) bool { return true })
		got, err := MinCost{}.Choose(in)
		if !ok {
			if err == nil {
				t.Fatalf("min-cost chose %v, but no cover exists", got)
			}
		} else if ids, cost := victimIDs(got); err != nil || cost != wantCost || !reflect.DeepEqual(ids, want) {
			t.Fatalf("min-cost = %v (cost %d, err %v), exact = %v (cost %d)\n%s", ids, cost, err, want, wantCost, g)
		}

		reqEntry := in.Entry(in.Requester)
		want, wantCost, ok = exactCut(cycles, in, func(id txn.ID) bool { return in.Entry(id) > reqEntry })
		got, err = OrderedMinCost{}.Choose(in)
		if ok {
			if ids, cost := victimIDs(got); err != nil || cost != wantCost || !reflect.DeepEqual(ids, want) {
				t.Fatalf("ordered = %v (cost %d, err %v), exact = %v (cost %d)\n%s", ids, cost, err, want, wantCost, g)
			}
		} else {
			want, ok := youngestPerCycle(cycles, in)
			agree(t, OrderedMinCost{}, in, want, ok, g)
		}
		want, ok = youngestFirst(cycles, in)
		agree(t, Oldest{}, in, want, ok, g)
	})
}
