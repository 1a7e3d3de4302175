// Package history records lock-hold episodes of committed transactions
// and checks conflict serializability — the oracle behind the paper's
// remark that "rollbacks do not interfere with the serializability of
// the two-phase protocol" (§2).
//
// The engine reports a grant when a lock is acquired and a release when
// the entity is unlocked with its value installed (or the transaction
// commits). Episodes discarded by rollback are retracted: the rolled
// back computation never happened, so it must not constrain the
// serialization order. The checker builds the conflict graph over
// committed transactions (edges ordered by hold-interval precedence on
// each entity) and verifies it is acyclic.
package history

import (
	"fmt"
	"sort"
	"sync"

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
		open: map[txn.ID]map[string]openHold{},
		done: map[txn.ID][]Episode{},
	}
}

// Tick advances and returns the logical clock.
func (r *Recorder) Tick() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.tick()
}

// tick advances the clock; caller holds r.mu.
func (r *Recorder) tick() int64 {
	r.clock++
	return r.clock
}

// Now returns the current clock without advancing it.
func (r *Recorder) Now() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.clock
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
	delete(r.done, id)
	delete(r.open, id)
}

// OnAbort discards everything recorded for id.
func (r *Recorder) OnAbort(id txn.ID) {
	r.mu.Lock()
	defer r.mu.Unlock()
	delete(r.done, id)
	delete(r.open, id)
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
