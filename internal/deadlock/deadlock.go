// Package deadlock implements victim selection for deadlock removal
// (§3). Detection itself is a cycle search in the concurrency graph
// (internal/waitfor); this package decides *who* to roll back and *how
// far*, given the cycles closed by one lock request and per-victim
// rollback plans computed by the engine.
//
// All cycles closed by a single wait response pass through the
// requesting transaction (§3.2), so rolling back the requester always
// suffices; the policies below trade optimality (minimum summed
// rollback cost, an NP-complete vertex-cut problem in general) against
// the potentially-infinite-mutual-preemption hazard of Figure 2, which
// Theorem 2 eliminates with a time-invariant partial order on
// transactions.
package deadlock

import (
	"fmt"
	"sort"

	"partialrollback/internal/graph"
	"partialrollback/internal/txn"
)

// Victim is one rollback decision: roll Txn back to lock state Target
// at cost Cost (the paper's state-index distance; see §3.1).
type Victim struct {
	Txn    txn.ID
	Target int   // lock state index to roll back to
	Cost   int64 // state-index distance lost
}

func (v Victim) String() string {
	return fmt.Sprintf("%v->state %d (cost %d)", v.Txn, v.Target, v.Cost)
}

// Info describes one detected deadlock.
type Info struct {
	// Requester is the transaction whose lock request closed the
	// cycle(s).
	Requester txn.ID
	// Cycles lists the simple cycles through Requester, each starting
	// at Requester.
	Cycles [][]txn.ID
	// Plan computes the rollback plan for a deadlock participant: the
	// latest lock state at which it would hold none of the cycle
	// entities it currently blocks (adjusted to a well-defined state
	// under the single-copy strategy), and the cost of rolling back to
	// it. ok is false if the transaction cannot be rolled back.
	Plan func(id txn.ID) (v Victim, ok bool)
	// Entry returns the transaction's entry sequence number (its
	// position in the Theorem 2 ordering; smaller means earlier).
	Entry func(id txn.ID) int64
	// Preemptions returns how many times the transaction has already
	// been rolled back (victim aging; may be nil, treated as zero).
	Preemptions func(id txn.ID) int64
}

func (in Info) preemptions(id txn.ID) int64 {
	if in.Preemptions == nil {
		return 0
	}
	return in.Preemptions(id)
}

// Participants returns the distinct transactions on any cycle, sorted.
func (in Info) Participants() []txn.ID {
	set := map[txn.ID]bool{}
	for _, c := range in.Cycles {
		for _, id := range c {
			set[id] = true
		}
	}
	out := make([]txn.ID, 0, len(set))
	for id := range set {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Policy selects the victim set for a deadlock. Implementations must
// return victims whose combined rollback breaks every cycle in Info.
type Policy interface {
	// Name identifies the policy in metrics and experiment rows.
	Name() string
	// Choose returns the victims to roll back.
	Choose(in Info) ([]Victim, error)
}

// ParsePolicy returns the policy whose Name is s.
func ParsePolicy(s string) (Policy, error) {
	for _, p := range []Policy{MinCost{}, OrderedMinCost{}, Requester{}, Oldest{}, Greedy{}} {
		if p.Name() == s {
			return p, nil
		}
	}
	return nil, fmt.Errorf("unknown policy %q", s)
}

// maxExactCut bounds the exhaustive vertex-cut search; deadlock cycles
// involve few transactions, so this is generous.
const maxExactCut = 20

// chooseByCut picks a minimum-cost victim set restricted to allowed
// (nil means all participants), via exact search with greedy fallback.
func chooseByCut(in Info, allowed map[txn.ID]bool) ([]Victim, error) {
	plans := map[txn.ID]Victim{}
	inst := graph.CutInstance{Cost: map[int]int64{}}
	for _, c := range in.Cycles {
		cycle := make([]int, len(c))
		for i, id := range c {
			cycle[i] = int(id)
		}
		inst.Cycles = append(inst.Cycles, cycle)
	}
	for _, id := range in.Participants() {
		if allowed != nil && !allowed[id] {
			continue
		}
		v, ok := in.Plan(id)
		if !ok {
			continue
		}
		plans[id] = v
		inst.Cost[int(id)] = v.Cost
	}
	cut, _, ok := graph.MinCostCutExact(inst, maxExactCut)
	if !ok {
		cut, _, ok = graph.MinCostCutGreedy(inst)
	}
	if !ok {
		return nil, fmt.Errorf("deadlock: no rollback-capable victim set covers all cycles (requester %v)", in.Requester)
	}
	victims := make([]Victim, 0, len(cut))
	for _, v := range cut {
		victims = append(victims, plans[txn.ID(v)])
	}
	sort.Slice(victims, func(i, j int) bool { return victims[i].Txn < victims[j].Txn })
	return victims, nil
}

// MinCost is the §3.1 cost-optimal policy: the cheapest victim set that
// breaks every cycle (for a single cycle, the single cheapest member —
// Figure 1's choice). It is vulnerable to potentially infinite mutual
// preemption (Figure 2).
type MinCost struct{}

// Name implements Policy.
func (MinCost) Name() string { return "min-cost" }

// Choose implements Policy.
func (MinCost) Choose(in Info) ([]Victim, error) { return chooseByCut(in, nil) }

// Greedy is MinCost with the greedy cut heuristic forced, for the E8
// exact-vs-greedy comparison.
type Greedy struct{}

// Name implements Policy.
func (Greedy) Name() string { return "greedy" }

// Choose implements Policy.
func (Greedy) Choose(in Info) ([]Victim, error) {
	plans := map[txn.ID]Victim{}
	inst := graph.CutInstance{Cost: map[int]int64{}}
	for _, c := range in.Cycles {
		cycle := make([]int, len(c))
		for i, id := range c {
			cycle[i] = int(id)
		}
		inst.Cycles = append(inst.Cycles, cycle)
	}
	for _, id := range in.Participants() {
		v, ok := in.Plan(id)
		if !ok {
			continue
		}
		plans[id] = v
		inst.Cost[int(id)] = v.Cost
	}
	cut, _, ok := graph.MinCostCutGreedy(inst)
	if !ok {
		return nil, fmt.Errorf("deadlock: greedy found no cover (requester %v)", in.Requester)
	}
	victims := make([]Victim, 0, len(cut))
	for _, v := range cut {
		victims = append(victims, plans[txn.ID(v)])
	}
	sort.Slice(victims, func(i, j int) bool { return victims[i].Txn < victims[j].Txn })
	return victims, nil
}

// Requester always rolls back the transaction that caused the
// conflict; §3.2 observes this breaks every cycle at once. Like
// MinCost, it is NOT livelock-free: on symmetric workloads transactions
// can take turns self-preempting forever (Figure 2's phenomenon), so it
// suits single-resolution analysis rather than closed-loop execution;
// use OrderedMinCost there.
type Requester struct{}

// Name implements Policy.
func (Requester) Name() string { return "requester" }

// Choose implements Policy.
func (Requester) Choose(in Info) ([]Victim, error) {
	v, ok := in.Plan(in.Requester)
	if !ok {
		return nil, fmt.Errorf("deadlock: requester %v cannot be rolled back", in.Requester)
	}
	return []Victim{v}, nil
}

// OrderedMinCost is the Theorem 2 policy: a transaction T_i may be
// rolled back as a result of a conflict caused by T_j only if T_i
// entered the system strictly later than T_j (entry order is the
// time-invariant partial order ω). Among the permitted victim sets the
// cheapest cover is chosen. When no strictly-younger participant can
// cover the cycles — the requester is the youngest — the requester
// itself backs off (the wait-die degenerate case): the youngest
// self-preempting cannot sustain mutual preemption, because every other
// participant keeps its progress.
//
// The strictness matters: allowing an *older* requester to self-preempt
// while a younger victim was available creates exactly the symmetric
// ping-pong of Figure 2 (two transactions alternately rolling
// themselves back forever).
type OrderedMinCost struct{}

// Name implements Policy.
func (OrderedMinCost) Name() string { return "ordered-min-cost" }

// Choose implements Policy.
func (o OrderedMinCost) Choose(in Info) ([]Victim, error) {
	reqEntry := in.Entry(in.Requester)
	younger := map[txn.ID]bool{}
	for _, id := range in.Participants() {
		if id != in.Requester && in.Entry(id) > reqEntry {
			younger[id] = true
		}
	}
	if len(younger) > 0 {
		if victims, err := chooseByCut(in, younger); err == nil {
			return victims, nil
		}
	}
	// No strictly-younger victim set covers every cycle (e.g. some
	// cycle's other members are all older than the requester — possible
	// with shared locks and multi-cycle closures; the randomized soak
	// test found stable preemption rings when the requester simply
	// backed off here). The fallback therefore applies wound-wait's
	// liveness rule through detection: every remaining cycle loses its
	// *youngest* member. The globally oldest active transaction is never
	// anyone's youngest, so its progress is monotone and the system
	// cannot churn forever.
	remaining := in.Cycles
	var victims []Victim
	chosen := map[txn.ID]bool{}
	for len(remaining) > 0 {
		cycle := remaining[0]
		var best txn.ID
		found := false
		covered := false
		for _, id := range cycle {
			if chosen[id] {
				covered = true
				break
			}
			if _, ok := in.Plan(id); !ok {
				continue
			}
			if !found || in.Entry(id) > in.Entry(best) {
				best, found = id, true
			}
		}
		if !covered {
			if !found {
				return nil, fmt.Errorf("deadlock: ordered policy has no legal victim (requester %v)", in.Requester)
			}
			chosen[best] = true
			v, _ := in.Plan(best)
			victims = append(victims, v)
		}
		var kept [][]txn.ID
		for _, c := range remaining {
			hit := false
			for _, m := range c {
				if chosen[m] {
					hit = true
					break
				}
			}
			if !hit {
				kept = append(kept, c)
			}
		}
		remaining = kept
	}
	sort.Slice(victims, func(i, j int) bool { return victims[i].Txn < victims[j].Txn })
	return victims, nil
}

// Oldest rolls back the participant with the latest entry time (the
// youngest), breaking ties by ID — the classic timestamp victim rule,
// restated as a partial-order policy. Included as an ablation baseline.
type Oldest struct{}

// Name implements Policy.
func (Oldest) Name() string { return "youngest-victim" }

// Choose implements Policy.
func (Oldest) Choose(in Info) ([]Victim, error) {
	// The youngest participant may not cover all cycles by itself when
	// several cycles exist; cover cycles greedily youngest-first.
	parts := in.Participants()
	sort.Slice(parts, func(i, j int) bool {
		ei, ej := in.Entry(parts[i]), in.Entry(parts[j])
		if ei != ej {
			return ei > ej // youngest first
		}
		return parts[i] < parts[j]
	})
	remaining := make([][]txn.ID, len(in.Cycles))
	copy(remaining, in.Cycles)
	var victims []Victim
	for _, id := range parts {
		if len(remaining) == 0 {
			break
		}
		covers := false
		var kept [][]txn.ID
		for _, c := range remaining {
			hit := false
			for _, m := range c {
				if m == id {
					hit = true
					break
				}
			}
			if hit {
				covers = true
			} else {
				kept = append(kept, c)
			}
		}
		if !covers {
			continue
		}
		v, ok := in.Plan(id)
		if !ok {
			continue
		}
		victims = append(victims, v)
		remaining = kept
	}
	if len(remaining) > 0 {
		return nil, fmt.Errorf("deadlock: youngest-victim could not cover all cycles (requester %v)", in.Requester)
	}
	sort.Slice(victims, func(i, j int) bool { return victims[i].Txn < victims[j].Txn })
	return victims, nil
}
