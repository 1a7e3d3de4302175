package deadlock

import (
	"fmt"
	"reflect"
	"slices"
	"sort"
	"testing"

	"partialrollback/internal/core"
	"partialrollback/internal/txn"
)

// makeInfo builds an Info over the union of the given cycles' arcs
// (each cycle lists its members in wait order, starting at the
// requester) with per-txn costs, entries and targets.
func makeInfo(requester txn.ID, cycles [][]txn.ID, costs map[txn.ID]int64, entries map[txn.ID]int64) Info {
	var arcs [][2]txn.ID
	for _, c := range cycles {
		for i := range c {
			arcs = append(arcs, [2]txn.ID{c[i], c[(i+1)%len(c)]})
		}
	}
	return makeArcInfo(requester, arcs, costs, entries)
}

// makeArcInfo builds an Info whose component is every transaction on
// the given waiter->holder arcs.
func makeArcInfo(requester txn.ID, arcs [][2]txn.ID, costs map[txn.ID]int64, entries map[txn.ID]int64) Info {
	set := map[txn.ID]bool{requester: true}
	for _, a := range arcs {
		set[a[0]], set[a[1]] = true, true
	}
	var members []txn.ID
	for id := range set {
		members = append(members, id)
	}
	sort.Slice(members, func(i, j int) bool { return members[i] < members[j] })
	idx := map[txn.ID]int{}
	for i, id := range members {
		idx[id] = i
	}
	succ := make([][]int, len(members))
	for _, a := range arcs {
		u, w := idx[a[0]], idx[a[1]]
		if !slices.Contains(succ[u], w) {
			succ[u] = append(succ[u], w)
		}
	}
	for _, s := range succ {
		sort.Ints(s)
	}
	return Info{
		Requester: requester,
		Members:   members,
		Succ:      succ,
		Plan: func(id txn.ID) (core.Victim, bool) {
			c, ok := costs[id]
			if !ok {
				return core.Victim{}, false
			}
			return core.Victim{Txn: id, Target: 1, Cost: c}, true
		},
		Entry: func(id txn.ID) int64 { return entries[id] },
	}
}

func victims(t *testing.T, p Policy, in Info) []txn.ID {
	t.Helper()
	vs, err := p.Choose(in)
	if err != nil {
		t.Fatalf("%s: %v", p.Name(), err)
	}
	out := make([]txn.ID, len(vs))
	for i, v := range vs {
		out[i] = v.Txn
	}
	return out
}

// TestParticipants pins that victims come from the requester's
// component only, even when a transaction outside it has a cheaper
// plan.
func TestParticipants(t *testing.T) {
	in := makeInfo(1, [][]txn.ID{{1, 3}, {1, 2, 3}},
		map[txn.ID]int64{1: 9, 2: 5, 3: 7, 4: 0},
		map[txn.ID]int64{1: 1, 2: 2, 3: 3, 4: 4})
	if !reflect.DeepEqual(in.Members, []txn.ID{1, 2, 3}) {
		t.Fatalf("members = %v", in.Members)
	}
	for _, p := range []Policy{MinCost{}, OrderedMinCost{}, Requester{}, Oldest{}} {
		for _, v := range victims(t, p, in) {
			if v == 4 {
				t.Errorf("%s chose T4, which is on no cycle", p.Name())
			}
		}
	}
}

func TestMinCostSingleCycle(t *testing.T) {
	// Figure 1's numbers: T2 cost 4, T3 cost 6, T4 cost 5.
	in := makeInfo(4,
		[][]txn.ID{{4, 3, 2}},
		map[txn.ID]int64{2: 4, 3: 6, 4: 5},
		map[txn.ID]int64{2: 2, 3: 3, 4: 4})
	if got := victims(t, MinCost{}, in); !reflect.DeepEqual(got, []txn.ID{2}) {
		t.Errorf("victims = %v, want [T2]", got)
	}
}

func TestMinCostMultiCyclePrefersSharedVertex(t *testing.T) {
	// Cycles {1,2} and {1,3}; costs: 1: 10, 2: 3, 3: 4. Cutting {2,3}
	// costs 7 < 10, so both go.
	in := makeInfo(1,
		[][]txn.ID{{1, 2}, {1, 3}},
		map[txn.ID]int64{1: 10, 2: 3, 3: 4},
		map[txn.ID]int64{1: 1, 2: 2, 3: 3})
	if got := victims(t, MinCost{}, in); !reflect.DeepEqual(got, []txn.ID{2, 3}) {
		t.Errorf("victims = %v, want [T2 T3]", got)
	}
	// Make the shared vertex cheap: it wins.
	in2 := makeInfo(1,
		[][]txn.ID{{1, 2}, {1, 3}},
		map[txn.ID]int64{1: 5, 2: 3, 3: 4},
		map[txn.ID]int64{1: 1, 2: 2, 3: 3})
	if got := victims(t, MinCost{}, in2); !reflect.DeepEqual(got, []txn.ID{1}) {
		t.Errorf("victims = %v, want [T1]", got)
	}
}

func TestRequesterPolicy(t *testing.T) {
	in := makeInfo(7,
		[][]txn.ID{{7, 8}, {7, 9}},
		map[txn.ID]int64{7: 100, 8: 1, 9: 1},
		map[txn.ID]int64{7: 1, 8: 2, 9: 3})
	if got := victims(t, Requester{}, in); !reflect.DeepEqual(got, []txn.ID{7}) {
		t.Errorf("victims = %v", got)
	}
	// Requester without a plan fails.
	in.Plan = func(txn.ID) (core.Victim, bool) { return core.Victim{}, false }
	if _, err := (Requester{}).Choose(in); err == nil {
		t.Error("want error")
	}
}

func TestOrderedMinCostPrefersYounger(t *testing.T) {
	// Requester 1 is oldest; both 2 and 3 are younger. Cheapest younger
	// cover is chosen; the requester must NOT self-preempt.
	in := makeInfo(1,
		[][]txn.ID{{1, 2, 3}},
		map[txn.ID]int64{1: 1, 2: 5, 3: 4},
		map[txn.ID]int64{1: 1, 2: 2, 3: 3})
	if got := victims(t, OrderedMinCost{}, in); !reflect.DeepEqual(got, []txn.ID{3}) {
		t.Errorf("victims = %v, want [T3] (cheapest younger), even though requester costs 1", got)
	}
}

func TestOrderedMinCostFallsBackToRequester(t *testing.T) {
	// Requester 3 is the youngest: it must back off itself.
	in := makeInfo(3,
		[][]txn.ID{{3, 1, 2}},
		map[txn.ID]int64{1: 1, 2: 1, 3: 50},
		map[txn.ID]int64{1: 1, 2: 2, 3: 3})
	if got := victims(t, OrderedMinCost{}, in); !reflect.DeepEqual(got, []txn.ID{3}) {
		t.Errorf("victims = %v, want [T3]", got)
	}
}

func TestOrderedRespectsTheorem2Relation(t *testing.T) {
	// Every victim must be strictly younger than the requester, or be
	// the requester itself.
	in := makeInfo(2,
		[][]txn.ID{{2, 1, 4}, {2, 3}},
		map[txn.ID]int64{1: 1, 2: 10, 3: 2, 4: 3},
		map[txn.ID]int64{1: 1, 2: 2, 3: 3, 4: 4})
	got := victims(t, OrderedMinCost{}, in)
	for _, v := range got {
		if v != 2 && !(v == 3 || v == 4) {
			t.Errorf("victim %v is older than requester", v)
		}
	}
	// T1 (older, cheapest) must never be chosen.
	for _, v := range got {
		if v == 1 {
			t.Error("ordered policy chose an older victim")
		}
	}
}

func TestYoungestVictim(t *testing.T) {
	in := makeInfo(1,
		[][]txn.ID{{1, 2, 3}},
		map[txn.ID]int64{1: 1, 2: 1, 3: 1},
		map[txn.ID]int64{1: 10, 2: 30, 3: 20})
	if got := victims(t, Oldest{}, in); !reflect.DeepEqual(got, []txn.ID{2}) {
		t.Errorf("victims = %v, want [T2] (latest entry)", got)
	}
}

func TestYoungestVictimMultiCycle(t *testing.T) {
	in := makeInfo(1,
		[][]txn.ID{{1, 2}, {1, 3}},
		map[txn.ID]int64{1: 1, 2: 1, 3: 1},
		map[txn.ID]int64{1: 10, 2: 30, 3: 20})
	got := victims(t, Oldest{}, in)
	if len(got) != 2 || got[0] != 2 || got[1] != 3 {
		t.Errorf("victims = %v, want [T2 T3]", got)
	}
}

func TestPolicyNames(t *testing.T) {
	names := map[string]Policy{
		"min-cost":         MinCost{},
		"ordered-min-cost": OrderedMinCost{},
		"requester":        Requester{},
		"youngest-victim":  Oldest{},
	}
	for want, p := range names {
		if p.Name() != want {
			t.Errorf("%T name = %q", p, p.Name())
		}
	}
}

func TestNoCoverableVictims(t *testing.T) {
	in := makeInfo(1, [][]txn.ID{{1, 2}}, map[txn.ID]int64{}, map[txn.ID]int64{1: 1, 2: 2})
	if _, err := (MinCost{}).Choose(in); err == nil {
		t.Error("no plans: want error")
	}
	if _, err := (OrderedMinCost{}).Choose(in); err == nil {
		t.Error("ordered: want error")
	}
	if _, err := (Oldest{}).Choose(in); err == nil {
		t.Error("youngest: want error")
	}
}

func TestVictimString(t *testing.T) {
	v := core.Victim{Txn: 2, Target: 1, Cost: 4}
	if v.String() == "" {
		t.Error("victim string")
	}
}

// TestParse covers prsim's flag names: every policy under each of the
// three resolvers, and the two unknown-name errors.
func TestParse(t *testing.T) {
	for _, pol := range []string{"min-cost", "ordered-min-cost", "requester", "youngest-victim"} {
		for prev, want := range map[string]core.Resolver{
			"": Detect{}, "wound-wait": WoundWait{}, "wait-die": WaitDie{},
		} {
			r, err := Parse(prev, pol)
			if err != nil {
				t.Fatalf("Parse(%q, %q): %v", prev, pol, err)
			}
			if fmt.Sprintf("%T", r) != fmt.Sprintf("%T", want) || r.Name() != pol {
				t.Errorf("Parse(%q, %q) = %T named %q", prev, pol, r, r.Name())
			}
		}
	}
	if _, err := Parse("", "bogus"); err == nil || err.Error() != `unknown policy "bogus"` {
		t.Errorf("unknown policy: %v", err)
	}
	if _, err := Parse("bogus", "min-cost"); err == nil || err.Error() != `unknown prevention "bogus"` {
		t.Errorf("unknown prevention: %v", err)
	}
}
