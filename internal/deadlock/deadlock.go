// Package deadlock implements the engine's conflict resolution (§3):
// three core.Resolvers, chosen per System through core.Config.Resolver.
// Detect is §2 rule 3: a wait that closes a cycle in the concurrency
// graph (the lock table, walked through internal/waitfor) is resolved
// by rolling back victims that a Policy picks, each as far as its
// rollback plan says. WoundWait and WaitDie are §3.3's timestamp
// rules, with detection kept as their safety net. Parse builds any of
// them from prsim's flag names.
//
// A Policy decides *who* to roll back and *how far*, given the
// requester's strongly connected component and per-member rollback
// plans computed by the engine. All cycles closed by a single wait
// response pass through the requesting transaction r (§3.2), so
// rolling back r always suffices.
// §3.2 calls the cheapest victim set — a minimum-cost vertex set that
// meets every cycle — NP-complete, as it is for arbitrary cycle
// families. The engine's instance is polynomial. The engine resolves
// every deadlock as the wait that closes it is made, so the graph
// minus r is acyclic, and each member has one fixed plan cost. A cycle
// through r is then r followed by a path from one of r's successors to
// one of its predecessors, and the cheapest cover is either r alone or
// a minimum-cost vertex cut separating those two sets: one small
// max-flow. The policies trade that optimum against the potentially
// infinite mutual preemption of Figure 2, which Theorem 2 eliminates
// with a time-invariant partial order on transactions.
package deadlock

import (
	"fmt"
	"slices"
	"sort"

	"partialrollback/internal/core"
	"partialrollback/internal/txn"
)

// Info describes one detected deadlock.
type Info struct {
	// Requester is the transaction whose lock request closed the
	// cycle(s).
	Requester txn.ID
	// Members is Requester's strongly connected component of the
	// concurrency graph in ascending ID order: the transactions on some
	// cycle through Requester, Requester included.
	Members []txn.ID
	// Succ[i] lists, ascending, the indices in Members of the members
	// Members[i] waits for. The graph it describes minus Requester must
	// be acyclic.
	Succ [][]int
	// Plan computes the rollback plan for a deadlock participant: the
	// latest lock state at which it would hold none of the entities
	// other members wait for (adjusted to a well-defined state under
	// the single-copy strategy), and the cost of rolling back to it. ok
	// is false if the transaction cannot be rolled back.
	Plan func(id txn.ID) (v core.Victim, ok bool)
	// Entry returns the transaction's entry sequence number (its
	// position in the Theorem 2 ordering; smaller means earlier).
	Entry func(id txn.ID) int64
}

// Policy selects the victim set for a deadlock. Implementations must
// return victims whose combined rollback breaks every cycle through
// the requester.
type Policy interface {
	// Name identifies the policy in metrics and experiment rows.
	Name() string
	// Choose returns the victims to roll back.
	Choose(in Info) ([]core.Victim, error)
}

// instance is one Choose call's view of an Info: the requester's index
// and every member's plan, computed once.
type instance struct {
	Info
	r     int
	plans []core.Victim
	ok    []bool // ok[i]: Members[i] can be rolled back
}

func newInstance(in Info) *instance {
	x := &instance{Info: in, plans: make([]core.Victim, len(in.Members)), ok: make([]bool, len(in.Members))}
	for i, id := range in.Members {
		if id == in.Requester {
			x.r = i
		}
		x.plans[i], x.ok[i] = in.Plan(id)
	}
	return x
}

func (x *instance) entry(i int) int64 { return x.Entry(x.Members[i]) }

// victims returns the plans of the members in set, in ascending ID
// order.
func (x *instance) victims(set []int) []core.Victim {
	slices.Sort(set)
	out := make([]core.Victim, len(set))
	for k, i := range set {
		out[k] = x.plans[i]
	}
	return out
}

// reach marks the members reachable from start without entering a
// removed member or the requester; back reports whether some path
// reaches the requester.
func (x *instance) reach(start int, removed []bool) (seen []bool, back bool) {
	seen = make([]bool, len(x.Members))
	stack := []int{start}
	for len(stack) > 0 {
		u := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, w := range x.Succ[u] {
			if w == x.r {
				back = true
			} else if !removed[w] && !seen[w] {
				seen[w] = true
				stack = append(stack, w)
			}
		}
	}
	return seen, back
}

// firstCycle returns the first cycle through the requester that avoids
// the removed members, in the order waitfor.Graph.CyclesThrough
// enumerates cycles (successors in ascending ID order), as member
// indices starting at the requester; nil when none is left. The graph
// minus the requester is acyclic, so a member from which the requester
// was not reached never reaches it: one DFS with a dead mark suffices.
func (x *instance) firstCycle(removed []bool) []int {
	dead := make([]bool, len(x.Members))
	path := []int{x.r}
	var dfs func(u int) bool
	dfs = func(u int) bool {
		for _, w := range x.Succ[u] {
			if w == x.r {
				return true
			}
			if removed[w] || dead[w] {
				continue
			}
			path = append(path, w)
			if dfs(w) {
				return true
			}
			path = path[:len(path)-1]
			dead[w] = true
		}
		return false
	}
	if dfs(x.r) {
		return path
	}
	return nil
}

// cut returns a minimum-cost set of members other than the requester
// whose removal leaves no cycle through it, and its cost; cost[i] < 0
// marks member i as not removable, and ok is false when no such set
// exists. It is one max-flow over the split graph: member v becomes
// v_in -> v_out with capacity cost[v], an arc u -> w between
// non-requester members becomes u_out -> w_in, the source feeds the
// requester's successors and its predecessors drain into the sink, all
// with unbounded capacity.
func (x *instance) cut(cost []int64) (set []int, total int64, ok bool) {
	n := len(x.Members)
	inf := int64(1)
	for i, c := range cost {
		if i != x.r && c > 0 {
			inf += c
		}
	}
	net := newNetwork(2*n + 2)
	src, sink := 2*n, 2*n+1
	for v := range x.Members {
		if v == x.r {
			continue
		}
		c := cost[v]
		if c < 0 {
			c = inf
		}
		net.add(2*v, 2*v+1, c)
	}
	for u, succ := range x.Succ {
		for _, w := range succ {
			switch {
			case u == x.r:
				net.add(src, 2*w, inf)
			case w == x.r:
				net.add(2*u+1, sink, inf)
			default:
				net.add(2*u+1, 2*w, inf)
			}
		}
	}
	total, source := net.maxFlow(src, sink, inf)
	if total >= inf {
		return nil, 0, false
	}
	for v := range x.Members {
		if v != x.r && source[2*v] && !source[2*v+1] {
			set = append(set, v)
		}
	}
	return set, total, true
}

// cheapest returns the cheapest set of members, drawn from those that
// are allowed (nil allows all) and can be rolled back, whose removal
// breaks every cycle through the requester (the requester alone when
// it is allowed and no cut is cheaper). Ties go to the set whose
// ID-ordered bitmask is smallest, the one an exhaustive subset search
// in ascending order finds first: candidates are excluded in
// descending ID order while the optimal cost holds.
func (x *instance) cheapest(allowed []bool) ([]core.Victim, bool) {
	excluded := make([]bool, len(x.Members))
	cost := make([]int64, len(x.Members))
	best := func() ([]int, int64, bool) {
		for i := range cost {
			cost[i] = -1
			if (allowed == nil || allowed[i]) && x.ok[i] && !excluded[i] {
				cost[i] = x.plans[i].Cost
			}
		}
		set, total, ok := x.cut(cost)
		if c := cost[x.r]; c >= 0 && (!ok || c <= total) {
			return []int{x.r}, c, true
		}
		return set, total, ok
	}
	set, opt, ok := best()
	if !ok {
		return nil, false
	}
	for i := len(x.Members) - 1; i >= 0; i-- {
		excluded[i] = true
		if !slices.Contains(set, i) {
			continue
		}
		if s, c, ok := best(); ok && c == opt {
			set = s
		} else {
			excluded[i] = false
		}
	}
	return x.victims(set), true
}

// network is a flow network with residual capacities; edge e's reverse
// is e^1.
type network struct {
	adj [][]int // node -> edge indices
	to  []int
	cap []int64
}

func newNetwork(nodes int) *network { return &network{adj: make([][]int, nodes)} }

func (n *network) add(u, v int, c int64) {
	n.adj[u] = append(n.adj[u], len(n.to))
	n.to = append(n.to, v)
	n.cap = append(n.cap, c)
	n.adj[v] = append(n.adj[v], len(n.to))
	n.to = append(n.to, u)
	n.cap = append(n.cap, 0)
}

// maxFlow pushes flow from s to t along shortest augmenting paths
// (Edmonds–Karp) until none is left or the flow reaches limit. It
// returns the flow and the nodes reachable from s in the final
// residual graph, the source side of a minimum cut.
func (n *network) maxFlow(s, t int, limit int64) (int64, []bool) {
	var flow int64
	via := make([]int, len(n.adj)) // edge that reached each node
	seen := make([]bool, len(n.adj))
	queue := make([]int, 0, len(n.adj))
	for {
		clear(seen)
		seen[s] = true
		queue = append(queue[:0], s)
		for head := 0; head < len(queue) && !seen[t]; head++ {
			u := queue[head]
			for _, e := range n.adj[u] {
				if w := n.to[e]; n.cap[e] > 0 && !seen[w] {
					seen[w], via[w] = true, e
					queue = append(queue, w)
				}
			}
		}
		if !seen[t] || flow >= limit {
			return flow, seen
		}
		b := limit - flow
		for v := t; v != s; v = n.to[via[v]^1] {
			b = min(b, n.cap[via[v]])
		}
		for v := t; v != s; v = n.to[via[v]^1] {
			n.cap[via[v]] -= b
			n.cap[via[v]^1] += b
		}
		flow += b
	}
}

// MinCost is the §3.1 cost-optimal policy: the cheapest victim set that
// breaks every cycle (for a single cycle, the single cheapest member —
// Figure 1's choice). It is vulnerable to potentially infinite mutual
// preemption (Figure 2).
type MinCost struct{}

// Name implements Policy.
func (MinCost) Name() string { return "min-cost" }

// Choose implements Policy.
func (MinCost) Choose(in Info) ([]core.Victim, error) {
	x := newInstance(in)
	victims, ok := x.cheapest(nil)
	if !ok {
		return nil, fmt.Errorf("deadlock: no rollback-capable victim set covers all cycles (requester %v)", in.Requester)
	}
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
func (Requester) Choose(in Info) ([]core.Victim, error) {
	v, ok := in.Plan(in.Requester)
	if !ok {
		return nil, fmt.Errorf("deadlock: requester %v cannot be rolled back", in.Requester)
	}
	return []core.Victim{v}, nil
}

// OrderedMinCost is the Theorem 2 policy: a transaction T_i may be
// rolled back as a result of a conflict caused by T_j only if T_i
// entered the system strictly later than T_j (entry order is the
// time-invariant partial order ω). Among the permitted victim sets the
// cheapest cover is chosen: the cut in which every member not
// strictly younger than the requester is unremovable. When no such cut
// exists — e.g. the requester is the youngest — the fallback below
// applies.
//
// The strictness matters: allowing an *older* requester to self-preempt
// while a younger victim was available creates exactly the symmetric
// ping-pong of Figure 2 (two transactions alternately rolling
// themselves back forever).
type OrderedMinCost struct{}

// Name implements Policy.
func (OrderedMinCost) Name() string { return "ordered-min-cost" }

// Choose implements Policy.
func (OrderedMinCost) Choose(in Info) ([]core.Victim, error) {
	x := newInstance(in)
	reqEntry := x.entry(x.r)
	younger := make([]bool, len(in.Members))
	for i := range younger {
		younger[i] = i != x.r && x.entry(i) > reqEntry
	}
	if victims, ok := x.cheapest(younger); ok {
		return victims, nil
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
	removed := make([]bool, len(in.Members))
	var chosen []int
	for cycle := x.firstCycle(removed); cycle != nil; cycle = x.firstCycle(removed) {
		best := -1
		for _, v := range cycle {
			if x.ok[v] && (best < 0 || x.entry(v) > x.entry(best)) {
				best = v
			}
		}
		if best < 0 {
			return nil, fmt.Errorf("deadlock: ordered policy has no legal victim (requester %v)", in.Requester)
		}
		removed[best] = true
		chosen = append(chosen, best)
		if best == x.r {
			break
		}
	}
	return x.victims(chosen), nil
}

// Oldest rolls back the participant with the latest entry time (the
// youngest), breaking ties by ID — the classic timestamp victim rule,
// restated as a partial-order policy. Included as an ablation baseline.
type Oldest struct{}

// Name implements Policy.
func (Oldest) Name() string { return "youngest-victim" }

// Choose implements Policy.
func (Oldest) Choose(in Info) ([]core.Victim, error) {
	x := newInstance(in)
	// The youngest participant may not break every cycle by itself;
	// members are taken youngest first while they still lie on a cycle
	// through the requester.
	order := make([]int, len(in.Members))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(i, j int) bool { return x.entry(order[i]) > x.entry(order[j]) })
	removed := make([]bool, len(in.Members))
	var chosen []int
	for _, v := range order {
		fwd, left := x.reach(x.r, removed)
		if !left {
			break
		}
		if _, back := x.reach(v, removed); !x.ok[v] || v != x.r && !(fwd[v] && back) {
			continue
		}
		removed[v] = true
		chosen = append(chosen, v)
		if v == x.r {
			break
		}
	}
	if _, left := x.reach(x.r, removed); left && !removed[x.r] {
		return nil, fmt.Errorf("deadlock: youngest-victim could not cover all cycles (requester %v)", in.Requester)
	}
	return x.victims(chosen), nil
}
