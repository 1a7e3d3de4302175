package sdg

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"partialrollback/internal/graph"
)

// export renders the state-dependency graph in the paper's Figure 4
// form: vertices are lock states 0..n, chained by consecutive edges,
// with an extra edge {u-1, j} for each written target's destruction
// interval (u = first-write index, j = last-write index, j > u). The
// articulation points of this graph that are interior vertices
// correspond to the well-defined states (Corollary 1).
func export(g *Graph) *graph.Undirected {
	u := graph.NewUndirected()
	for q := 0; q <= g.n; q++ {
		u.AddNode(q)
		if q > 0 {
			u.AddEdge(q-1, q)
		}
	}
	for _, iv := range g.Intervals() {
		lo := iv.First - 1
		if lo < 0 {
			lo = 0
		}
		u.AddEdge(lo, iv.Last)
	}
	return u
}

func TestEmptyGraphAllWellDefined(t *testing.T) {
	g := New()
	if !g.WellDefined(0) {
		t.Error("state 0")
	}
	g.OnLock()
	g.OnLock()
	for q := 0; q <= 2; q++ {
		if !g.WellDefined(q) {
			t.Errorf("state %d with no writes", q)
		}
	}
	if g.WellDefined(-1) || g.WellDefined(3) {
		t.Error("out of range states are not well-defined")
	}
}

func TestIntervalDestruction(t *testing.T) {
	g := New()
	g.OnLock() // lock index 1
	g.OnWrite("A")
	g.OnLock()     // 2
	g.OnLock()     // 3
	g.OnWrite("A") // interval [1,3): destroys 1,2
	g.OnLock()     // 4
	want := []int{0, 3, 4}
	if got := g.WellDefinedStates(); !reflect.DeepEqual(got, want) {
		t.Errorf("well-defined = %v, want %v", got, want)
	}
	if g.LatestWellDefinedAtOrBelow(2) != 0 {
		t.Errorf("latest <= 2 = %d", g.LatestWellDefinedAtOrBelow(2))
	}
	if g.LatestWellDefinedAtOrBelow(3) != 3 {
		t.Error("latest <= 3")
	}
	if g.LatestWellDefinedAtOrBelow(99) != 4 {
		t.Error("clamping")
	}
	ivs := g.Intervals()
	if len(ivs) != 1 || ivs[0].Target != "A" || ivs[0].First != 1 || ivs[0].Last != 3 {
		t.Errorf("intervals = %v", ivs)
	}
	if rho, ok := g.RestorabilityIndex("A"); !ok || rho != 0 {
		t.Errorf("restorability = %d %v", rho, ok)
	}
	if u, ok := g.FirstWrite("A"); !ok || u != 1 {
		t.Errorf("first write = %d %v", u, ok)
	}
}

func TestSingleWriteTargetsDestroyNothing(t *testing.T) {
	g := New()
	g.OnLock()
	g.OnWrite("A")
	g.OnWrite("A") // same interval
	g.OnLock()
	for q := 0; q <= 2; q++ {
		if !g.WellDefined(q) {
			t.Errorf("state %d", q)
		}
	}
	if len(g.Intervals()) != 0 {
		t.Error("no interval expected")
	}
}

func TestRestoreActions(t *testing.T) {
	g := New()
	g.OnLock() // 1
	g.OnWrite("A")
	g.OnLock() // 2
	g.OnWrite("B")
	// Rolling to state 1: A first written at 1 <= 1 -> keep; B first
	// written at 2 > 1 -> pristine.
	if g.RestoreActionFor("A", 1) != KeepCurrent {
		t.Error("A should keep")
	}
	if g.RestoreActionFor("B", 1) != ResetPristine {
		t.Error("B should reset")
	}
	if g.RestoreActionFor("never", 1) != ResetPristine {
		t.Error("unwritten targets reset (no-op)")
	}
}

func TestRollback(t *testing.T) {
	g := New()
	g.OnLock() // 1
	g.OnWrite("A")
	g.OnLock() // 2
	g.OnWrite("B")
	g.OnLock()     // 3
	g.OnWrite("A") // destroys 1,2
	if err := g.Rollback(2); err == nil {
		t.Error("rollback to destroyed state must fail")
	}
	if err := g.Rollback(0); err != nil {
		t.Fatal(err)
	}
	if g.LockIndex() != 0 {
		t.Error("lock index not reset")
	}
	if _, ok := g.FirstWrite("A"); ok {
		t.Error("A record should be gone")
	}
	// Graph is reusable after rollback.
	g.OnLock()
	g.OnWrite("A")
	if !g.WellDefined(1) {
		t.Error("fresh writes after rollback")
	}
}

func TestRollbackKeepsEarlierRecords(t *testing.T) {
	g := New()
	g.OnLock() // 1
	g.OnWrite("A")
	g.OnLock() // 2
	g.OnLock() // 3
	g.OnWrite("B")
	// State 2: A kept (first write 1 <= 2, last 1 <= 2), B dropped.
	if err := g.Rollback(2); err != nil {
		t.Fatal(err)
	}
	if u, ok := g.FirstWrite("A"); !ok || u != 1 {
		t.Error("A record lost")
	}
	if _, ok := g.FirstWrite("B"); ok {
		t.Error("B record should be dropped")
	}
}

func TestStopMonitoring(t *testing.T) {
	g := New()
	g.OnLock()
	g.StopMonitoring()
	g.OnWrite("A")
	g.OnLock()
	g.OnWrite("A")
	if len(g.Intervals()) != 0 {
		t.Error("writes after StopMonitoring must not be tracked")
	}
	if g.Monitoring() {
		t.Error("monitoring flag")
	}
}

func TestExportArticulationCorrespondence(t *testing.T) {
	g := New()
	for i := 0; i < 6; i++ {
		g.OnLock()
	}
	// Figure 4 pattern: A@[1,4], D@[4,5], B@[5,6].
	sim := func(target string, idxs ...int) {
		// Directly install intervals via first/last manipulation: write
		// at each index is simulated by temporary lock-index override.
		for _, j := range idxs {
			g.firstWrite[target] = min(idxs...)
			if j > g.lastWrite[target] {
				g.lastWrite[target] = j
			}
		}
	}
	sim("A", 1, 4)
	sim("D", 4, 5)
	sim("B", 5, 6)
	u := export(g)
	arts := map[int]bool{}
	for _, v := range u.ArticulationPoints() {
		arts[v] = true
	}
	for q := 1; q < 6; q++ {
		if g.WellDefined(q) != arts[q] {
			t.Errorf("state %d: well-defined %v, articulation %v", q, g.WellDefined(q), arts[q])
		}
	}
}

func min(xs ...int) int {
	m := xs[0]
	for _, x := range xs {
		if x < m {
			m = x
		}
	}
	return m
}

// oracle recomputes well-definedness from a raw write log.
type wlog struct {
	target string
	li     int
}

func oracleWellDefined(n int, log []wlog, q int) bool {
	if q < 0 || q > n {
		return false
	}
	first := map[string]int{}
	last := map[string]int{}
	for _, w := range log {
		if _, ok := first[w.target]; !ok {
			first[w.target] = w.li
		}
		last[w.target] = w.li
	}
	for tgt, u := range first {
		if u <= q && q < last[tgt] {
			return false
		}
	}
	return true
}

func TestQuickWellDefinedMatchesOracle(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := New()
		var log []wlog
		n := 0
		targets := []string{"A", "B", "C", "l1"}
		for step := 0; step < 30; step++ {
			if rng.Intn(2) == 0 {
				g.OnLock()
				n++
			} else if n > 0 {
				tgt := targets[rng.Intn(len(targets))]
				g.OnWrite(tgt)
				log = append(log, wlog{tgt, n})
			}
		}
		for q := -1; q <= n+1; q++ {
			if g.WellDefined(q) != oracleWellDefined(n, log, q) {
				return false
			}
		}
		// LatestWellDefinedAtOrBelow is the max well-defined <= q.
		for q := 0; q <= n; q++ {
			got := g.LatestWellDefinedAtOrBelow(q)
			if !g.WellDefined(got) || got > q {
				return false
			}
			for r := got + 1; r <= q; r++ {
				if g.WellDefined(r) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickRollbackConsistent: rolling back to a well-defined state
// leaves a graph equivalent to replaying the write log prefix.
func TestQuickRollbackConsistent(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := New()
		var log []wlog
		n := 0
		targets := []string{"A", "B", "l"}
		for step := 0; step < 25; step++ {
			if rng.Intn(2) == 0 {
				g.OnLock()
				n++
			} else if n > 0 {
				tgt := targets[rng.Intn(len(targets))]
				g.OnWrite(tgt)
				log = append(log, wlog{tgt, n})
			}
		}
		if n == 0 {
			return true
		}
		q := g.LatestWellDefinedAtOrBelow(rng.Intn(n + 1))
		if err := g.Rollback(q); err != nil {
			return false
		}
		// Replay prefix into a fresh graph.
		fresh := New()
		for i := 0; i < q; i++ {
			fresh.OnLock()
		}
		for _, w := range log {
			if w.li <= q {
				// Writes with lock index <= q survive... but OnWrite
				// records at the *current* lock index; emulate by
				// setting counters directly through the public API is
				// impossible, so compare observable behavior instead.
				_ = w
			}
		}
		// Observable equivalence: every state 0..q has the same
		// well-definedness as the oracle over the surviving prefix.
		prefix := []wlog{}
		for _, w := range log {
			if w.li <= q {
				prefix = append(prefix, w)
			}
		}
		for r := 0; r <= q; r++ {
			if g.WellDefined(r) != oracleWellDefined(q, prefix, r) {
				return false
			}
		}
		return g.LockIndex() == q
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestRenderableIntervalString(t *testing.T) {
	iv := Interval{Target: "A", First: 1, Last: 3}
	if fmt.Sprint(iv) == "" {
		t.Error("interval should print")
	}
}
