// Package sdg implements the paper's state-dependency graph (§4): the
// bookkeeping for the single-copy rollback strategy, which keeps only
// one local copy per entity and therefore can restore only the
// *well-defined* lock states.
//
// Numbering (see DESIGN.md §2 for the derivation): lock state q is the
// transaction state immediately before its (q+1)-th lock request; an
// operation's lock index is the number of lock requests strictly before
// it, so the value of a target at lock state q reflects exactly the
// writes with lock index <= q. For a write target (entity or local
// variable) first written at lock index u, the paper's *index of
// restorability* is u-1; a later write at lock index j destroys the
// lock states q with u <= q < j — equivalently u-1 < q < j, the
// condition of Theorem 4 on the edge {u-1, j}.
//
// A lock state q is well-defined at the current point iff no write
// interval [u, j) contains it. Lock state 0 is always well-defined
// (total rollback); the current state is trivially well-defined.
package sdg

import (
	"fmt"
	"sort"
)

// Interval records the destruction interval of one write: states q
// with First <= q < Last are not restorable for Target.
type Interval struct {
	Target      string
	First, Last int // first-write lock index u, this-write lock index j
}

// Graph is the per-transaction state-dependency bookkeeping. The zero
// value is not usable; call New.
type Graph struct {
	// n is the number of lock requests executed so far, i.e. the
	// current lock index. Lock states 0..n exist.
	n int
	// firstWrite maps each written target to the lock index of its
	// first (surviving) write.
	firstWrite map[string]int
	// lastWrite maps each written target to the lock index of its most
	// recent (surviving) write.
	lastWrite map[string]int
	// writes holds the full sorted distinct write lock indexes per
	// target — needed for precise pruning when a checkpointed (hybrid)
	// rollback lands inside a destruction interval.
	writes map[string][]int
	// monitoring is cleared once the transaction declares its last
	// lock request (§5); afterwards writes are no longer tracked.
	monitoring bool
}

// New returns an empty state-dependency graph (no locks, no writes).
func New() *Graph {
	return &Graph{
		firstWrite: map[string]int{},
		lastWrite:  map[string]int{},
		writes:     map[string][]int{},
		monitoring: true,
	}
}

// OnLock records a granted lock request; the current lock index
// advances.
func (g *Graph) OnLock() { g.n++ }

// LockIndex returns the current lock index n (states 0..n exist).
func (g *Graph) LockIndex() int { return g.n }

// OnWrite records a write to target (entity or local variable) at the
// current lock index.
func (g *Graph) OnWrite(target string) {
	if !g.monitoring {
		return
	}
	if _, ok := g.firstWrite[target]; !ok {
		g.firstWrite[target] = g.n
	}
	g.lastWrite[target] = g.n
	if ws := g.writes[target]; len(ws) == 0 || ws[len(ws)-1] != g.n {
		g.writes[target] = append(ws, g.n)
	}
}

// StopMonitoring implements the §5 declared-last-lock optimization: the
// transaction can no longer deadlock, so further writes need not be
// tracked.
func (g *Graph) StopMonitoring() { g.monitoring = false }

// Monitoring reports whether writes are still tracked.
func (g *Graph) Monitoring() bool { return g.monitoring }

// WellDefined reports whether lock state q is currently restorable:
// 0 <= q <= n and no write interval [u, j) contains q.
func (g *Graph) WellDefined(q int) bool {
	if q < 0 || q > g.n {
		return false
	}
	for target, u := range g.firstWrite {
		if u <= q && q < g.lastWrite[target] {
			return false
		}
	}
	return true
}

// LatestWellDefinedAtOrBelow returns the largest well-defined lock
// state <= q. State 0 is always well-defined, so the result is always
// >= 0 (q is clamped into [0, n]).
func (g *Graph) LatestWellDefinedAtOrBelow(q int) int {
	if q > g.n {
		q = g.n
	}
	for ; q > 0; q-- {
		if g.WellDefined(q) {
			return q
		}
	}
	return 0
}

// WellDefinedStates returns all currently well-defined lock states in
// increasing order.
func (g *Graph) WellDefinedStates() []int {
	var out []int
	for q := 0; q <= g.n; q++ {
		if g.WellDefined(q) {
			out = append(out, q)
		}
	}
	return out
}

// Intervals returns the active destruction intervals, sorted by target
// name. Targets whose writes all share one lock index produce an empty
// interval and are omitted.
func (g *Graph) Intervals() []Interval {
	var out []Interval
	for target, u := range g.firstWrite {
		if j := g.lastWrite[target]; j > u {
			out = append(out, Interval{Target: target, First: u, Last: j})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Target < out[j].Target })
	return out
}

// RestorabilityIndex returns the paper's index of restorability for
// target (first-write lock index minus one) and whether target has been
// written.
func (g *Graph) RestorabilityIndex(target string) (int, bool) {
	u, ok := g.firstWrite[target]
	return u - 1, ok
}

// FirstWrite returns the lock index of target's first surviving write.
func (g *Graph) FirstWrite(target string) (int, bool) {
	u, ok := g.firstWrite[target]
	return u, ok
}

// Rollback restores the bookkeeping to lock state q, which must be
// well-defined. Write records at lock indexes > q are undone: a target
// first written after q is forgotten entirely; a target first written
// at or before q keeps its record, clamped to q. (Well-definedness
// guarantees no target has writes on both sides of q, so clamping never
// actually fires for surviving targets; it is kept as a defensive
// invariant.)
func (g *Graph) Rollback(q int) error {
	if !g.WellDefined(q) {
		return fmt.Errorf("sdg: rollback to lock state %d which is not well-defined", q)
	}
	g.prune(q)
	return nil
}

// ForceRollback restores the bookkeeping to lock state q without
// requiring well-definedness — used by the hybrid (bounded-extra-copy)
// strategy when a checkpoint makes q restorable despite spanning write
// intervals. Write records above q are pruned precisely using the full
// write lists.
func (g *Graph) ForceRollback(q int) error {
	if q < 0 || q > g.n {
		return fmt.Errorf("sdg: rollback to lock state %d outside [0, %d]", q, g.n)
	}
	g.prune(q)
	return nil
}

// prune drops write records with lock index > q and resets the lock
// index.
func (g *Graph) prune(q int) {
	for target, ws := range g.writes {
		keep := ws[:0]
		for _, j := range ws {
			if j <= q {
				keep = append(keep, j)
			}
		}
		if len(keep) == 0 {
			delete(g.writes, target)
			delete(g.firstWrite, target)
			delete(g.lastWrite, target)
			continue
		}
		g.writes[target] = keep
		g.firstWrite[target] = keep[0]
		g.lastWrite[target] = keep[len(keep)-1]
	}
	g.n = q
}

// RestoreAction says how the engine must restore one target when
// rolling back to a given state.
type RestoreAction int

// Restore actions: keep the current single copy (all its writes are at
// or before the target state) or reset to the pristine value (global
// value for entities, initial value for locals; no surviving write).
const (
	KeepCurrent RestoreAction = iota
	ResetPristine
)

// RestoreActionFor returns how to restore target when rolling back to
// well-defined state q.
func (g *Graph) RestoreActionFor(target string, q int) RestoreAction {
	u, written := g.firstWrite[target]
	if !written || u > q {
		return ResetPristine
	}
	return KeepCurrent
}
