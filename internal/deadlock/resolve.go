package deadlock

import (
	"fmt"
	"sort"

	"partialrollback/internal/core"
	"partialrollback/internal/intern"
	"partialrollback/internal/txn"
	"partialrollback/internal/waitfor"
)

// Detect resolves a wait that closes a cycle in the concurrency graph
// (§2 rule 3): the requester's strongly connected component is rebuilt
// from the lock table, Policy picks victims from it, and each is rolled
// back per its plan. A wait that closes no cycle stands.
type Detect struct {
	// Policy selects the victims. Nil means OrderedMinCost (the
	// Theorem 2 safe policy).
	Policy Policy
	// StarvationLimit escalates fairness: when a waiting transaction's
	// conflict survives this many deadlock resolutions it participated
	// in, every strictly-younger holder of its awaited entity is
	// wounded (partially rolled back to release it) — wound-wait applied
	// on demand. Without it, minimal cycle-breaking can starve an old
	// waiter forever while younger transactions re-form cycles around it
	// (found by the randomized soak test). 0 means the default (8);
	// negative disables escalation.
	StarvationLimit int
}

func (d Detect) policy() Policy {
	if d.Policy == nil {
		return OrderedMinCost{}
	}
	return d.Policy
}

// Name implements core.Resolver: the victim policy's name.
func (d Detect) Name() string { return d.policy().Name() }

// Resolve implements core.Resolver.
func (d Detect) Resolve(w *core.Wait) error {
	if !closesCycle(w) {
		return nil
	}
	pol := d.policy()
	r := w.Requester
	// Each member's contested entities are the labels on its arcs in
	// from the component: every such arc lies on a cycle through the
	// requester, so this is the union over all of them.
	g := waitfor.RebuildFrom(w.Table, r)
	comp := g.ComponentOf(r)
	report := &core.DeadlockReport{
		Requester:  r,
		Entity:     w.EntityName,
		Cycles:     g.CyclesThrough(r, core.ReportedCycles),
		Candidates: make(map[txn.ID]core.Victim, len(comp.Members)),
	}
	for i, id := range comp.Members {
		if v, ok := w.Plan(id, comp.Contested[i]); ok {
			report.Candidates[id] = v
		}
	}
	victims, err := pol.Choose(Info{
		Requester: r,
		Members:   comp.Members,
		Succ:      comp.Succ,
		Plan: func(id txn.ID) (core.Victim, bool) {
			v, ok := report.Candidates[id]
			return v, ok
		},
		Entry: w.Entry,
	})
	if err != nil {
		return fmt.Errorf("deadlock: policy %q: %w", pol.Name(), err)
	}
	report.Victims = victims
	w.Deadlock(report)
	for _, v := range victims {
		if err := w.RollBack(v, core.CauseVictim); err != nil {
			return err
		}
	}
	// The victims' releases must have broken every cycle; if the
	// requester still waits it must now wait safely.
	if _, waiting := w.WaitingOn(r); waiting && closesCycle(w) {
		left := waitfor.RebuildFrom(w.Table, r).CyclesThrough(r, 1)
		return fmt.Errorf("deadlock: policy %q left a cycle unbroken: %v", pol.Name(), left[0])
	}
	return d.escalate(w, comp.Members)
}

// closesCycle reports whether the requester's wait closes a cycle,
// walking the lock table with the engine's scratch buffer.
func closesCycle(w *core.Wait) bool {
	cycle, buf := waitfor.CycleThrough(w.Table, w.Requester, w.Scratch)
	w.Scratch = buf
	return cycle
}

// escalate ages the waits of deadlock participants: a participant
// still waiting after StarvationLimit resolutions of deadlocks it was
// part of gets wound-wait treatment — every strictly-younger holder of
// its awaited entity is partially rolled back to release it. Minimal
// cycle-breaking alone can otherwise starve an old waiter
// indefinitely: each resolution frees only one of several holds (e.g.
// one of two shared locks) and the ring re-forms.
func (d Detect) escalate(w *core.Wait, members []txn.ID) error {
	limit := d.StarvationLimit
	if limit < 0 {
		return nil
	}
	if limit == 0 {
		limit = 8
	}
	var starved []txn.ID
	for _, id := range members {
		if w.Starved(id, limit) {
			starved = append(starved, id)
		}
	}
	sort.Slice(starved, func(i, j int) bool { return w.Entry(starved[i]) < w.Entry(starved[j]) })
	for _, id := range starved {
		ent, waiting := w.WaitingOn(id)
		if !waiting {
			continue // an earlier escalation unblocked it
		}
		for _, h := range w.Table.HoldersAppend(ent, nil) {
			if w.Entry(h) <= w.Entry(id) {
				continue // only younger holders are wounded
			}
			plan, ok := w.Plan(h, []intern.ID{ent})
			if !ok {
				continue
			}
			if err := w.RollBack(plan, core.CauseEscalation); err != nil {
				return err
			}
		}
	}
	return nil
}

// WoundWait is §3.3's wound-wait rule: an older requester wounds every
// younger conflicting holder, rolling it back just far enough to
// release the awaited entity (strategy-adjusted, so partially: the
// paper observes these mechanisms "in no way invalidate the advantages
// of rolling a transaction back to the latest possible state in which
// the conflict necessitating the rollback no longer exists"); a
// younger requester waits. Holders that can no longer be rolled back
// (shrinking phase or declared last lock) are waited for instead: they
// can never join a cycle. Shared-lock grants can jump the timestamp
// order, so a cycle can still form in rare interleavings; the embedded
// Detect resolves it.
type WoundWait struct{ Detect }

// Resolve implements core.Resolver.
func (ww WoundWait) Resolve(w *core.Wait) error {
	r := w.Requester
	contested := []intern.ID{w.Entity}
	for _, b := range w.Blockers {
		if w.Entry(b) < w.Entry(r) {
			continue // older holder: wait for it
		}
		plan, ok := w.Plan(b, contested)
		if !ok {
			continue // unwoundable (shrinking/declared); safe to wait
		}
		if err := w.RollBack(plan, core.CauseWound); err != nil {
			return err
		}
	}
	if _, waiting := w.WaitingOn(r); !waiting {
		return nil // the wounds released the entity and the request was granted
	}
	return ww.Detect.Resolve(w)
}

// WaitDie is §3.3's wait-die rule: an older requester waits; a younger
// one dies, rolled back to its initial state (the classical restart,
// kept total regardless of strategy as the baseline), and re-runs from
// scratch when next scheduled. The embedded Detect is the safety net,
// as under WoundWait.
type WaitDie struct{ Detect }

// Resolve implements core.Resolver.
func (wd WaitDie) Resolve(w *core.Wait) error {
	r := w.Requester
	for _, b := range w.Blockers {
		if w.Entry(b) < w.Entry(r) {
			return w.RollBack(core.Victim{Txn: r}, core.CauseDie)
		}
	}
	return wd.Detect.Resolve(w)
}

// Parse returns the resolver that prsim's -prevention and -policy
// flags name: prevention "" (detection), "wound-wait" or "wait-die",
// each with the policy whose Name is policy.
func Parse(prevention, policy string) (core.Resolver, error) {
	var d Detect
	for _, p := range []Policy{MinCost{}, OrderedMinCost{}, Requester{}, Oldest{}} {
		if p.Name() == policy {
			d.Policy = p
		}
	}
	if d.Policy == nil {
		return nil, fmt.Errorf("unknown policy %q", policy)
	}
	switch prevention {
	case "":
		return d, nil
	case "wound-wait":
		return WoundWait{d}, nil
	case "wait-die":
		return WaitDie{d}, nil
	}
	return nil, fmt.Errorf("unknown prevention %q", prevention)
}
