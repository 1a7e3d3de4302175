// Package waitfor is the paper's labeled concurrency graph G(T) (§3):
// an arc exists between T_j and T_i, labeled with entity A, when T_i is
// waiting to lock A and T_j holds a lock on A.
//
// The lock table is the graph's only record (lock.Table.WaitsFor
// yields each waiter's arcs), so nothing here is kept in step with it.
// CycleThrough, the per-wait deadlock check, walks the lock table from
// the requester without changing it, and allocates nothing once its
// caller's buffer has grown. Only when it finds a cycle does a caller
// build a Graph: RebuildFrom materializes the requester's
// forward-reachable waiters for victim selection, and Rebuild the arcs
// of a given set of transactions for inspection.
//
// Internally arcs are stored waiter -> holder (the direction a cycle
// search from the requester follows); the paper draws them holder ->
// waiter. Rendering code flips the direction and says so.
//
// Theorem 1: in an exclusive-lock-only system there is no deadlock at
// time t iff G(T) is a forest. For shared+exclusive systems the
// deadlock-free graph is a general acyclic digraph and one wait
// response may close several cycles at once, all through the requester
// (§3.2).
//
// Representation: per-node adjacency (out-edges carrying label sets of
// interned entity IDs, plus a reverse in-list); HasCycleThrough's
// stamped DFS over reachable nodes allocates nothing. On a deadlock,
// ComponentOf hands victim selection the requester's strongly
// connected component in two linear DFS passes. Simple-cycle
// enumeration (CyclesThrough) mirrors graph.Digraph.AllCyclesThrough
// exactly, successors in ascending ID order; it feeds only reports and
// error text.
package waitfor

import (
	"cmp"
	"fmt"
	"slices"
	"sort"

	"partialrollback/internal/intern"
	"partialrollback/internal/lock"
	"partialrollback/internal/txn"
)

// Arc is one wait-for relationship.
type Arc struct {
	Waiter, Holder txn.ID
	Entity         string
}

func (a Arc) String() string {
	return fmt.Sprintf("%v -%s-> %v", a.Waiter, a.Entity, a.Holder)
}

// edge is one labeled arc waiter -> holder. Labels are a small set of
// interned entity IDs, scanned linearly (an arc rarely carries more
// than a couple of entities).
type edge struct {
	to     txn.ID
	labels []intern.ID
}

type node struct {
	id     txn.ID
	out    []edge
	in     []txn.ID // waiters with an arc to this node
	stamp  uint64   // visited mark for stamped traversals
	onPath bool     // cycle-enumeration path membership
	idx    int      // position in the last ComponentOf result
}

// Graph is the concurrency graph. The zero value is not usable; call
// New or NewInterned.
type Graph struct {
	names *intern.Table
	nodes map[txn.ID]*node

	labelPool [][]intern.ID

	stamp uint64  // generation counter for node.stamp
	stack []*node // reusable DFS stack
	path  []txn.ID
}

// New returns an empty concurrency graph with a private interner
// (names are interned on first AddWait).
func New() *Graph {
	return NewInterned(intern.NewTable())
}

// NewInterned returns an empty concurrency graph sharing names —
// normally the entity store's interner, so graph labels and lock-table
// IDs agree.
func NewInterned(names *intern.Table) *Graph {
	return &Graph{names: names, nodes: map[txn.ID]*node{}}
}

// Names exposes the graph's interner.
func (g *Graph) Names() *intern.Table { return g.names }

func (g *Graph) node(id txn.ID) *node {
	n := g.nodes[id]
	if n == nil {
		n = &node{id: id}
		g.nodes[id] = n
	}
	return n
}

func (g *Graph) putLabels(ls []intern.ID) {
	if cap(ls) > 0 {
		g.labelPool = append(g.labelPool, ls[:0])
	}
}

func (g *Graph) getLabels() []intern.ID {
	if k := len(g.labelPool); k > 0 {
		ls := g.labelPool[k-1]
		g.labelPool = g.labelPool[:k-1]
		return ls
	}
	return nil
}

// AddTxn ensures the vertex for id exists.
func (g *Graph) AddTxn(id txn.ID) { g.node(id) }

func removeID(s *[]txn.ID, id txn.ID) {
	for i, v := range *s {
		if v == id {
			(*s)[i] = (*s)[len(*s)-1]
			*s = (*s)[:len(*s)-1]
			return
		}
	}
}

// AddWait records that waiter now waits for holder over entity.
func (g *Graph) AddWait(waiter, holder txn.ID, entity string) {
	g.AddWaitID(waiter, holder, g.names.Intern(entity))
}

// AddWaitID is AddWait by intern ID — the allocation-free hot path.
func (g *Graph) AddWaitID(waiter, holder txn.ID, ent intern.ID) {
	nw := g.node(waiter)
	nh := g.node(holder)
	for i := range nw.out {
		if nw.out[i].to == holder {
			for _, l := range nw.out[i].labels {
				if l == ent {
					return
				}
			}
			nw.out[i].labels = append(nw.out[i].labels, ent)
			return
		}
	}
	ls := append(g.getLabels(), ent)
	nw.out = append(nw.out, edge{to: holder, labels: ls})
	nh.in = append(nh.in, waiter)
}

// RemoveWait drops the entity label from the waiter->holder arc,
// removing the arc when no labels remain.
func (g *Graph) RemoveWait(waiter, holder txn.ID, entity string) {
	ent, ok := g.names.Lookup(entity)
	if !ok {
		return
	}
	g.RemoveWaitID(waiter, holder, ent)
}

// RemoveWaitID is RemoveWait by intern ID.
func (g *Graph) RemoveWaitID(waiter, holder txn.ID, ent intern.ID) {
	nw := g.nodes[waiter]
	if nw == nil {
		return
	}
	for i := range nw.out {
		if nw.out[i].to != holder {
			continue
		}
		ls := nw.out[i].labels
		for j, l := range ls {
			if l == ent {
				ls[j] = ls[len(ls)-1]
				nw.out[i].labels = ls[:len(ls)-1]
				break
			}
		}
		if len(nw.out[i].labels) == 0 {
			g.putLabels(nw.out[i].labels)
			nw.out[i] = nw.out[len(nw.out)-1]
			nw.out[len(nw.out)-1].labels = nil
			nw.out = nw.out[:len(nw.out)-1]
			if nh := g.nodes[holder]; nh != nil {
				removeID(&nh.in, waiter)
			}
		}
		return
	}
}

// Arcs returns all arcs, sorted by waiter, holder, entity.
func (g *Graph) Arcs() []Arc {
	var out []Arc
	for _, n := range g.nodes {
		for i := range n.out {
			for _, l := range n.out[i].labels {
				out = append(out, Arc{Waiter: n.id, Holder: n.out[i].to, Entity: g.names.Name(l)})
			}
		}
	}
	slices.SortFunc(out, func(a, b Arc) int {
		return cmp.Or(cmp.Compare(a.Waiter, b.Waiter), cmp.Compare(a.Holder, b.Holder), cmp.Compare(a.Entity, b.Entity))
	})
	return out
}

// HasCycle reports whether any directed cycle (deadlock) exists: one
// HasCycleThrough per node, quadratic, for checks and figures only.
func (g *Graph) HasCycle() bool {
	for id := range g.nodes {
		if g.HasCycleThrough(id) {
			return true
		}
	}
	return false
}

// IsForest reports Theorem 1's condition: the graph, viewed as
// undirected, is acyclic. Parallel arcs u->v and v->u count as a
// cycle, as do self loops.
func (g *Graph) IsForest() bool {
	seen := make(map[txn.ID]bool, len(g.nodes))
	for _, root := range g.nodes {
		if seen[root.id] {
			continue
		}
		type frame struct {
			v    txn.ID
			from txn.ID
		}
		// Transaction IDs are non-negative, so -1 is a safe
		// "no parent" sentinel.
		stack := []frame{{root.id, -1}}
		seen[root.id] = true
		for len(stack) > 0 {
			f := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			n := g.nodes[f.v]
			// Undirected neighbor multiset.
			nbrs := map[txn.ID]int{}
			for i := range n.out {
				nbrs[n.out[i].to]++
			}
			for _, p := range n.in {
				nbrs[p]++
			}
			if nbrs[f.v] > 0 {
				return false // self loop
			}
			usedParentEdge := false
			for w, mult := range nbrs {
				if w == f.from && !usedParentEdge {
					usedParentEdge = true
					if mult > 1 {
						return false // parallel arcs both ways
					}
					continue
				}
				if seen[w] {
					return false
				}
				seen[w] = true
				stack = append(stack, frame{w, f.v})
			}
		}
	}
	return true
}

// nextStamp starts a new traversal generation.
func (g *Graph) nextStamp() uint64 {
	g.stamp++
	return g.stamp
}

// HasCycleThrough reports whether at least one directed cycle passes
// through id — equivalently, whether id is reachable from any of its
// successors: one stamped DFS over the reachable subgraph, zero
// allocations, no cycle materialized. CycleThrough answers the same
// question on the lock table itself.
func (g *Graph) HasCycleThrough(id txn.ID) bool {
	n := g.nodes[id]
	if n == nil || len(n.out) == 0 {
		return false
	}
	s := g.nextStamp()
	g.stack = g.stack[:0]
	for i := range n.out {
		if n.out[i].to == id {
			return true // self loop
		}
		w := g.nodes[n.out[i].to]
		if w.stamp != s {
			w.stamp = s
			g.stack = append(g.stack, w)
		}
	}
	for len(g.stack) > 0 {
		x := g.stack[len(g.stack)-1]
		g.stack = g.stack[:len(g.stack)-1]
		for i := range x.out {
			if x.out[i].to == id {
				return true
			}
			w := g.nodes[x.out[i].to]
			if w.stamp != s {
				w.stamp = s
				g.stack = append(g.stack, w)
			}
		}
	}
	return false
}

// Component is the strongly connected component of a requester in
// the concurrency graph: the transactions reachable from it that also
// reach it. While the graph minus the requester is acyclic (the engine
// resolves every deadlock when the request that closes it waits), the
// members are exactly the transactions on some cycle through the
// requester, and every arc between members lies on such a cycle.
type Component struct {
	// Members lists the component in ascending ID order, requester
	// included.
	Members []txn.ID
	// Succ[i] lists, ascending, the indices in Members of the members
	// Members[i] waits for.
	Succ [][]int
	// Contested[i] lists the entities Members[i] holds that another
	// member waits for: the labels on arcs into it from inside the
	// component, i.e. the union over every cycle through the requester.
	Contested [][]intern.ID
}

// ComponentOf returns id's strongly connected component: one forward
// stamped DFS from id, then one backward DFS over the in-lists that
// stays inside the forward-reached set. It has no cap; a transaction
// on no cycle gets the one-member component {id}.
func (g *Graph) ComponentOf(id txn.ID) Component {
	r := g.nodes[id]
	if r == nil {
		return Component{Members: []txn.ID{id}, Succ: make([][]int, 1), Contested: make([][]intern.ID, 1)}
	}
	fwd := g.nextStamp()
	r.stamp = fwd
	g.stack = append(g.stack[:0], r)
	for len(g.stack) > 0 {
		x := g.stack[len(g.stack)-1]
		g.stack = g.stack[:len(g.stack)-1]
		for i := range x.out {
			if w := g.nodes[x.out[i].to]; w.stamp != fwd {
				w.stamp = fwd
				g.stack = append(g.stack, w)
			}
		}
	}
	in := g.nextStamp()
	r.stamp = in
	members := []*node{r}
	g.stack = append(g.stack[:0], r)
	for len(g.stack) > 0 {
		x := g.stack[len(g.stack)-1]
		g.stack = g.stack[:len(g.stack)-1]
		for _, p := range x.in {
			if w := g.nodes[p]; w.stamp == fwd {
				w.stamp = in
				members = append(members, w)
				g.stack = append(g.stack, w)
			}
		}
	}
	slices.SortFunc(members, func(a, b *node) int { return cmp.Compare(a.id, b.id) })
	c := Component{
		Members:   make([]txn.ID, len(members)),
		Succ:      make([][]int, len(members)),
		Contested: make([][]intern.ID, len(members)),
	}
	for i, m := range members {
		m.idx = i
		c.Members[i] = m.id
	}
	for i, m := range members {
		for k := range m.out {
			w := g.nodes[m.out[k].to]
			if w.stamp != in {
				continue
			}
			c.Succ[i] = append(c.Succ[i], w.idx)
			c.Contested[w.idx] = append(c.Contested[w.idx], m.out[k].labels...)
		}
		sort.Ints(c.Succ[i])
	}
	return c
}

// CyclesThrough enumerates the simple cycles containing id, up to
// limit (limit <= 0: unlimited). Each cycle starts at id. The
// no-cycle case is answered by HasCycleThrough without allocating;
// enumeration itself (the actual-deadlock path) visits successors in
// ascending transaction-ID order, matching the historical
// graph.Digraph.AllCyclesThrough traversal exactly.
func (g *Graph) CyclesThrough(id txn.ID, limit int) [][]txn.ID {
	if !g.HasCycleThrough(id) {
		return nil
	}
	v := g.nodes[id]
	var cycles [][]txn.ID
	g.path = append(g.path[:0], id)
	v.onPath = true
	var dfs func(x *node) bool // true when limit reached
	dfs = func(x *node) bool {
		succ := make([]txn.ID, 0, len(x.out))
		for i := range x.out {
			succ = append(succ, x.out[i].to)
		}
		sortTxnIDs(succ)
		for _, w := range succ {
			if w == id {
				cycles = append(cycles, append([]txn.ID(nil), g.path...))
				if limit > 0 && len(cycles) >= limit {
					return true
				}
				continue
			}
			wn := g.nodes[w]
			if wn.onPath {
				continue
			}
			wn.onPath = true
			g.path = append(g.path, w)
			if dfs(wn) {
				return true
			}
			g.path = g.path[:len(g.path)-1]
			wn.onPath = false
		}
		return false
	}
	dfs(v)
	// On a limit-abort the path still holds the live DFS stack; clear
	// its onPath marks (covers the normal case too, where only id
	// remains).
	for _, pid := range g.path {
		g.nodes[pid].onPath = false
	}
	g.path = g.path[:0]
	return cycles
}

// CycleThrough reports whether id's wait closes a cycle in the
// concurrency graph the lock table t records: whether id waits for
// itself, directly or through other waiters. It is the per-wait
// deadlock check. The walk starts at id and follows lock.Table.WaitsFor
// (the holders of the one entity each waiter is queued on), stopping at
// the first arc back to id, and changes nothing in t. buf is scratch,
// returned for reuse: a caller that keeps it allocates nothing.
func CycleThrough(t *lock.Table, id txn.ID, buf []txn.ID) (bool, []txn.ID) {
	return walk(t, id, buf, true)
}

// RebuildFrom builds the part of the concurrency graph reachable from
// id: id and every transaction it waits for, directly or through other
// waiters, with their arcs. That holds id's strongly connected
// component and every cycle through id, so ComponentOf(id) and
// CyclesThrough(id, …) answer as on the whole graph. The graph shares
// t's interner, so its labels are t's entity IDs.
func RebuildFrom(t *lock.Table, id txn.ID) *Graph {
	_, ids := walk(t, id, nil, false)
	return Rebuild(t, ids)
}

// walk collects in buf[:0] id and every transaction reachable from it
// along wait-for arcs, in discovery order, and reports whether an arc
// leads back to id; with stop set it returns at the first such arc.
// The collected list is the visited set, searched linearly: the
// waiters a wait reaches are a handful, and a scan beats a map there.
func walk(t *lock.Table, id txn.ID, buf []txn.ID, stop bool) (cycle bool, seen []txn.ID) {
	seen = append(buf[:0], id)
	for i := 0; i < len(seen); i++ {
		n := len(seen)
		_, seen, _ = t.WaitsFor(seen[i], seen)
		k := n
		for _, h := range seen[n:] {
			if h == id {
				if stop {
					return true, seen[:k]
				}
				cycle = true
			}
			if !slices.Contains(seen[:k], h) {
				seen[k] = h
				k++
			}
		}
		seen = seen[:k]
	}
	return cycle, seen
}

// Rebuild builds the concurrency graph of the transactions ids from
// the lock table t: for each that waits, an arc to every holder
// WaitsFor names. The graph shares t's interner.
func Rebuild(t *lock.Table, ids []txn.ID) *Graph {
	g := NewInterned(t.Names())
	var holders []txn.ID
	for _, id := range ids {
		ent, hs, ok := t.WaitsFor(id, holders[:0])
		holders = hs
		if !ok {
			continue
		}
		for _, h := range hs {
			g.AddWaitID(id, h, ent)
		}
	}
	return g
}

// String renders the arcs one per line in the paper's holder->waiter
// orientation.
func (g *Graph) String() string {
	s := ""
	for _, a := range g.Arcs() {
		s += fmt.Sprintf("%v -%s-> %v (holds; waited on by)\n", a.Holder, a.Entity, a.Waiter)
	}
	return s
}

// sortTxnIDs sorts ascending in place without the sort.Slice closure
// allocation; the lists here are adjacency lists of a single node.
func sortTxnIDs(ids []txn.ID) {
	for i := 1; i < len(ids); i++ {
		for j := i; j > 0 && ids[j] < ids[j-1]; j-- {
			ids[j], ids[j-1] = ids[j-1], ids[j]
		}
	}
}
