// Package history records lock-hold episodes of committed transactions
// and checks conflict serializability — the oracle behind the paper's
// remark that "rollbacks do not interfere with the serializability of
// the two-phase protocol" (§2).
//
// A Recorder is driven by engine events: subscribe Recorder.OnEvent to
// core.Config.OnEvent (or to any tap that forwards it, such as
// server.Config.OnEvent) and it observes whatever drives the engine,
// one process or a network node. A grant opens a hold; an unlock or
// the commit closes it. Holds discarded by rollback are retracted: the
// rolled back computation never happened, so it must not constrain the
// serialization order. The engine emits each release before the grants
// it causes, so the recorder's logical clock orders them the same way.
// The checker builds the conflict graph over committed transactions
// (edges ordered by hold-interval precedence on each entity) and
// verifies it is acyclic.
package history

import (
	"fmt"
	"sort"
	"sync"

	"partialrollback/internal/core"
	"partialrollback/internal/graph"
	"partialrollback/internal/txn"
)

// Mode mirrors lock modes without importing internal/lock (history is
// observational and keeps no lock semantics of its own).
type Mode int

// Access modes.
const (
	Read Mode = iota
	Write
)

func (m Mode) String() string {
	if m == Write {
		return "W"
	}
	return "R"
}

// Episode is one completed lock-hold: txn held entity in mode over
// [Grant, Release) on the recorder's logical clock.
type Episode struct {
	Txn            txn.ID
	Entity         string
	Mode           Mode
	Grant, Release int64
}

// Recorder accumulates episodes. Safe for concurrent use: it
// serializes internally (one mutex; recording is opt-in and off the
// default hot path), so readers need not hold the engine mutex.
type Recorder struct {
	mu    sync.Mutex
	clock int64
	// open maps (txn, entity) to the grant clock and mode of the
	// in-progress hold.
	open map[txn.ID]map[string]openHold
	// granted lists each live transaction's granted entities in grant
	// order. Under OnEvent entry i is the lock acquired at lock index i,
	// so a rollback to lock state q retracts entries q and later.
	granted map[txn.ID][]string
	// done holds completed episodes of transactions not yet committed
	// (a two-phase transaction may unlock before committing).
	done map[txn.ID][]Episode
	// committed holds the episodes of committed transactions.
	committed []Episode
}

type openHold struct {
	grant int64
	mode  Mode
}

// NewRecorder returns an empty recorder.
func NewRecorder() *Recorder {
	return &Recorder{
		open:    map[txn.ID]map[string]openHold{},
		granted: map[txn.ID][]string{},
		done:    map[txn.ID][]Episode{},
	}
}

// tick advances the clock; caller holds r.mu.
func (r *Recorder) tick() int64 {
	r.clock++
	return r.clock
}

// OnEvent records one engine event; pass it as core.Config.OnEvent.
// EventGrant opens a hold (mode from Detail: "S" reads, "X" writes),
// EventUnlock closes one, EventCommit closes the rest and commits,
// EventAbort discards the transaction, and EventRollback retracts the
// holds acquired at lock index ToLockState or later. Other kinds are
// ignored. It relies on the engine emitting each release before the
// grants that release causes.
func (r *Recorder) OnEvent(e core.Event) {
	switch e.Kind {
	case core.EventGrant:
		m := Read
		if e.Detail == "X" {
			m = Write
		}
		r.OnGrant(e.Txn, e.Entity, m)
	case core.EventUnlock:
		r.OnRelease(e.Txn, e.Entity)
	case core.EventCommit:
		r.OnCommit(e.Txn)
	case core.EventAbort:
		r.OnAbort(e.Txn)
	case core.EventRollback:
		r.retractFrom(e.Txn, e.ToLockState)
	}
}

// retractFrom discards id's in-progress holds acquired at lock index q
// or later (a rollback to lock state q).
func (r *Recorder) retractFrom(id txn.ID, q int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	g := r.granted[id]
	if q >= len(g) {
		return
	}
	for _, name := range g[q:] {
		delete(r.open[id], name)
	}
	r.granted[id] = g[:q]
}

// Hook returns an event hook that feeds r and then next, for drivers
// whose caller may bring its own hook; next may be nil.
func (r *Recorder) Hook(next func(core.Event)) func(core.Event) {
	if next == nil {
		return r.OnEvent
	}
	return func(e core.Event) {
		r.OnEvent(e)
		next(e)
	}
}

// OnGrant records that id acquired entity in mode.
func (r *Recorder) OnGrant(id txn.ID, entityName string, m Mode) {
	r.mu.Lock()
	defer r.mu.Unlock()
	t := r.tick()
	if r.open[id] == nil {
		r.open[id] = map[string]openHold{}
	}
	r.open[id][entityName] = openHold{grant: t, mode: m}
	r.granted[id] = append(r.granted[id], entityName)
}

// OnRelease completes the hold of entity by id (unlock with install, or
// commit-time release).
func (r *Recorder) OnRelease(id txn.ID, entityName string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.onRelease(id, entityName)
}

// onRelease is OnRelease; caller holds r.mu.
func (r *Recorder) onRelease(id txn.ID, entityName string) {
	t := r.tick()
	h, ok := r.open[id][entityName]
	if !ok {
		return
	}
	delete(r.open[id], entityName)
	r.done[id] = append(r.done[id], Episode{
		Txn: id, Entity: entityName, Mode: h.mode, Grant: h.grant, Release: t,
	})
}

// OnRetract discards the in-progress hold of entity by id (rollback
// released the lock without installing a value; the episode never
// happened).
func (r *Recorder) OnRetract(id txn.ID, entityName string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	delete(r.open[id], entityName)
}

// OnCommit moves id's completed episodes into the committed history.
// Any still-open holds are closed at the current clock first (commit
// releases all remaining locks).
func (r *Recorder) OnCommit(id txn.ID) {
	r.mu.Lock()
	defer r.mu.Unlock()
	names := make([]string, 0, len(r.open[id]))
	for e := range r.open[id] {
		names = append(names, e)
	}
	sort.Strings(names)
	for _, e := range names {
		r.onRelease(id, e)
	}
	r.committed = append(r.committed, r.done[id]...)
	r.drop(id)
}

// OnAbort discards everything recorded for id.
func (r *Recorder) OnAbort(id txn.ID) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.drop(id)
}

// drop forgets id's uncommitted holds and episodes; caller holds r.mu.
func (r *Recorder) drop(id txn.ID) {
	delete(r.done, id)
	delete(r.open, id)
	delete(r.granted, id)
}

// Committed returns the committed episodes (shared slice; treat as
// read-only, and only after the engine has quiesced).
func (r *Recorder) Committed() []Episode {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.committed
}

// ConflictEdge is one edge of the conflict graph: From must serialize
// before To because of conflicting access to Entity.
type ConflictEdge struct {
	From, To txn.ID
	Entity   string
}

// CheckSerializable builds the conflict graph over the committed
// episodes and returns its edges, failing if two conflicting holds
// overlap in time (a locking violation) or if the graph has a cycle
// (not conflict-serializable).
func (r *Recorder) CheckSerializable() ([]ConflictEdge, error) {
	byEntity := map[string][]Episode{}
	for _, ep := range r.committed {
		byEntity[ep.Entity] = append(byEntity[ep.Entity], ep)
	}
	g := graph.NewDigraph()
	var edges []ConflictEdge
	names := make([]string, 0, len(byEntity))
	for e := range byEntity {
		names = append(names, e)
	}
	sort.Strings(names)
	for _, entityName := range names {
		eps := byEntity[entityName]
		sort.Slice(eps, func(i, j int) bool { return eps[i].Grant < eps[j].Grant })
		for i := 0; i < len(eps); i++ {
			for j := i + 1; j < len(eps); j++ {
				a, b := eps[i], eps[j]
				if a.Txn == b.Txn {
					continue
				}
				if a.Mode == Read && b.Mode == Read {
					continue
				}
				if b.Grant < a.Release {
					return nil, fmt.Errorf(
						"history: conflicting holds of %q overlap: %v [%d,%d) %v vs %v [%d,%d) %v",
						entityName, a.Txn, a.Grant, a.Release, a.Mode, b.Txn, b.Grant, b.Release, b.Mode)
				}
				g.AddEdge(int(a.Txn), int(b.Txn))
				edges = append(edges, ConflictEdge{From: a.Txn, To: b.Txn, Entity: entityName})
			}
		}
	}
	if g.HasCycle() {
		return edges, fmt.Errorf("history: conflict graph has a cycle; execution not conflict-serializable")
	}
	return edges, nil
}

// SerialOrder returns a topological order of the committed transactions
// consistent with the conflict graph — an equivalent serial execution.
// It fails under the same conditions as CheckSerializable.
func (r *Recorder) SerialOrder() ([]txn.ID, error) {
	edges, err := r.CheckSerializable()
	if err != nil {
		return nil, err
	}
	all := map[txn.ID]bool{}
	for _, ep := range r.committed {
		all[ep.Txn] = true
	}
	indeg := map[txn.ID]int{}
	succ := map[txn.ID]map[txn.ID]bool{}
	for id := range all {
		indeg[id] = 0
	}
	for _, e := range edges {
		if succ[e.From] == nil {
			succ[e.From] = map[txn.ID]bool{}
		}
		if !succ[e.From][e.To] {
			succ[e.From][e.To] = true
			indeg[e.To]++
		}
	}
	var ready []txn.ID
	for id, d := range indeg {
		if d == 0 {
			ready = append(ready, id)
		}
	}
	sort.Slice(ready, func(i, j int) bool { return ready[i] < ready[j] })
	var order []txn.ID
	for len(ready) > 0 {
		id := ready[0]
		ready = ready[1:]
		order = append(order, id)
		var next []txn.ID
		for s := range succ[id] {
			indeg[s]--
			if indeg[s] == 0 {
				next = append(next, s)
			}
		}
		sort.Slice(next, func(i, j int) bool { return next[i] < next[j] })
		ready = append(ready, next...)
		sort.Slice(ready, func(i, j int) bool { return ready[i] < ready[j] })
	}
	if len(order) != len(all) {
		return nil, fmt.Errorf("history: topological sort incomplete (%d of %d)", len(order), len(all))
	}
	return order, nil
}
