package core

import (
	"fmt"
	"sort"

	"partialrollback/internal/deadlock"
	"partialrollback/internal/intern"
	"partialrollback/internal/lock"
	"partialrollback/internal/sdg"
	"partialrollback/internal/txn"
	"partialrollback/internal/waitfor"
)

// release releases t's lock on ent and applies any promoted grants.
func (s *System) release(t *tstate, ent intern.ID) error {
	grants, err := s.locks.ReleaseID(t.id, ent, s.grantsBuf[:0])
	s.grantsBuf = grants
	if err != nil {
		return err
	}
	s.applyGrants(grants)
	return nil
}

// planRollback computes the §3.1 rollback plan for one deadlock
// participant: the latest lock state at which it holds none of its
// contested entities, adjusted to the latest well-defined state under
// the single-copy strategy or to the initial state under total
// restart, and the state-index cost of rolling back there.
func (s *System) planRollback(t *tstate, contested []intern.ID) (deadlock.Victim, bool) {
	if t.unlocked || t.declaredLast || t.status == StatusCommitted || len(contested) == 0 {
		return deadlock.Victim{}, false
	}
	target := t.lockIndex
	for _, ent := range contested {
		sl := t.findSlot(ent)
		if sl == nil {
			continue
		}
		if sl.heldAt < target {
			target = sl.heldAt
		}
	}
	if target == t.lockIndex {
		return deadlock.Victim{}, false // holds none of the contested entities
	}
	switch s.cfg.Strategy {
	case Total:
		target = 0
	case SDG:
		target = t.sdg.LatestWellDefinedAtOrBelow(target)
	case Hybrid:
		target = t.hyb.LatestRestorableAtOrBelow(target)
	}
	if target >= len(t.lockStates) {
		return deadlock.Victim{}, false
	}
	return deadlock.Victim{
		Txn:    t.id,
		Target: target,
		Cost:   t.stateIndex - t.lockStates[target].stateIndex,
	}, true
}

// resolveDeadlock handles §2 rule 3: the wait of requester on
// entityName closed one or more cycles; pick victims from the
// requester's strongly connected component per the configured policy
// and roll each back. The component comes from the part of the
// concurrency graph reachable from the requester, built from the lock
// table now that a cycle is known to exist. Each member's contested
// entities are the labels on its arcs in from the component: every
// such arc lies on a cycle through the requester, so this is the union
// over all of them.
func (s *System) resolveDeadlock(requester *tstate, entityName string) (*DeadlockReport, error) {
	s.stats.Deadlocks++
	g := waitfor.RebuildFrom(s.locks, requester.id)
	comp := g.ComponentOf(requester.id)
	report := &DeadlockReport{
		Requester:  requester.id,
		Entity:     entityName,
		Cycles:     g.CyclesThrough(requester.id, ReportedCycles),
		Candidates: make(map[txn.ID]deadlock.Victim, len(comp.Members)),
	}
	for i, id := range comp.Members {
		if v, ok := s.planRollback(s.txns[id], comp.Contested[i]); ok {
			report.Candidates[id] = v
		}
	}
	info := deadlock.Info{
		Requester: requester.id,
		Members:   comp.Members,
		Succ:      comp.Succ,
		Plan: func(id txn.ID) (deadlock.Victim, bool) {
			v, ok := report.Candidates[id]
			return v, ok
		},
		Entry: func(id txn.ID) int64 { return s.txns[id].entry },
	}
	victims, err := s.policy.Choose(info)
	if err != nil {
		return nil, fmt.Errorf("core: deadlock policy %q: %w", s.policy.Name(), err)
	}
	report.Victims = victims
	s.stats.Victims += int64(len(victims))
	s.emit(Event{Kind: EventDeadlock, Txn: requester.id, Entity: entityName, Deadlock: report})
	for _, v := range victims {
		t, ok := s.txns[v.Txn]
		if !ok {
			return nil, fmt.Errorf("core: policy chose unknown victim %v", v.Txn)
		}
		if err := s.rollbackTo(t, v.Target); err != nil {
			return nil, err
		}
	}
	// The victims' releases must have broken every cycle; if the
	// requester still waits it must now wait safely.
	if requester.status == StatusWaiting && s.waitCycle(requester) {
		left := waitfor.RebuildFrom(s.locks, requester.id).CyclesThrough(requester.id, 1)
		return report, fmt.Errorf("core: policy %q left a cycle unbroken: %v", s.policy.Name(), left[0])
	}
	if err := s.escalateStarvation(comp.Members); err != nil {
		return report, err
	}
	return report, nil
}

// escalateStarvation ages the waits of deadlock participants: a
// participant still waiting after StarvationLimit resolutions of
// deadlocks it was part of gets wound-wait treatment — every
// strictly-younger holder of its awaited entity is partially rolled
// back to release it. Minimal cycle-breaking alone can otherwise starve
// an old waiter indefinitely: each resolution frees only one of several
// holds (e.g. one of two shared locks) and the ring re-forms.
func (s *System) escalateStarvation(members []txn.ID) error {
	if s.cfg.StarvationLimit < 0 {
		return nil
	}
	var starved []*tstate
	for _, id := range members {
		t, ok := s.txns[id]
		if !ok || t.status != StatusWaiting {
			continue
		}
		t.starveRounds++
		if t.starveRounds >= s.cfg.StarvationLimit {
			starved = append(starved, t)
		}
	}
	sort.Slice(starved, func(i, j int) bool { return starved[i].entry < starved[j].entry })
	for _, t := range starved {
		if t.status != StatusWaiting {
			continue // an earlier escalation unblocked it
		}
		ent := t.waitEnt
		for _, h := range s.locks.HoldersAppend(ent, nil) {
			holder, ok := s.txns[h]
			if !ok || holder.entry <= t.entry {
				continue // only younger holders are wounded
			}
			plan, ok := s.planRollback(holder, []intern.ID{ent})
			if !ok {
				continue
			}
			if err := s.rollbackTo(holder, plan.Target); err != nil {
				return err
			}
			s.stats.Escalations++
		}
		t.starveRounds = 0
	}
	return nil
}

// restoreSingleCopy applies the SDG restore rules: targets first
// written at or before q keep their single copy (well-definedness
// guarantees no later writes survive); others reset to pristine values
// (global value for entities, initial value for locals).
func (s *System) restoreSingleCopy(t *tstate, q int) error {
	for i := range t.slots {
		sl := &t.slots[i]
		if sl.mode != lock.Exclusive {
			continue
		}
		if t.sdg.RestoreActionFor("e:"+s.names.Name(sl.ent), q) == sdg.ResetPristine {
			sl.copy = s.store.MustGetID(sl.ent)
		}
	}
	for slot, init := range t.x.Init {
		if t.sdg.RestoreActionFor("l:"+t.x.Locals[slot], q) == sdg.ResetPristine {
			t.locals[slot] = init
		}
	}
	return nil
}

// releaseFrom releases, in name order (deterministic event streams),
// every lock t acquired at lock index q or later, discarding its local
// copies.
func (s *System) releaseFrom(t *tstate, q int) error {
	s.releaseBuf = s.releaseBuf[:0]
	for i := range t.slots {
		if t.slots[i].heldAt >= q {
			s.releaseBuf = append(s.releaseBuf, nameEnt{name: s.names.Name(t.slots[i].ent), ent: t.slots[i].ent})
		}
	}
	sortNameEnts(s.releaseBuf)
	for _, ne := range s.releaseBuf {
		t.dropSlot(ne.ent)
		if err := s.release(t, ne.ent); err != nil {
			return err
		}
	}
	return nil
}

// rollbackTo rolls t back to lock state q (§2's rollback operation):
// retract its pending request if waiting, release every lock acquired
// at lock index >= q, restore local variables and local copies per the
// configured strategy, and reset the program counter and state index.
func (s *System) rollbackTo(t *tstate, q int) error {
	if t.status == StatusCommitted {
		return fmt.Errorf("core: rollback of committed %v", t.id)
	}
	if t.unlocked {
		return fmt.Errorf("core: rollback of %v after it began unlocking", t.id)
	}
	if q < 0 || q >= len(t.lockStates) {
		return fmt.Errorf("core: rollback of %v to lock state %d outside [0, %d)", t.id, q, len(t.lockStates))
	}
	rec := t.lockStates[q]
	fromState := t.stateIndex

	// Retract a pending lock request.
	if t.status == StatusWaiting {
		grants, _ := s.locks.RemoveWaiterID(t.id, t.waitEnt, s.grantsBuf[:0])
		s.grantsBuf = grants
		t.status = StatusRunning
		t.waitEntity = ""
		t.waitEnt = intern.None
		t.signalWake()
		s.applyGrants(grants)
	}

	// Global values were never modified (updates are deferred to
	// unlock/commit), so releasing restores them per the paper's
	// rollback step 1-2.
	if err := s.releaseFrom(t, q); err != nil {
		return err
	}

	// Restore local variables and surviving local copies (steps 3-4).
	switch s.cfg.Strategy {
	case Total:
		if q != 0 {
			return fmt.Errorf("core: total strategy rollback target %d != 0", q)
		}
		copy(t.locals, t.x.Init)
	case MCS:
		if t.mcs.LockIndex() != t.lockIndex {
			return fmt.Errorf("core: %v MCS lock index out of sync (%d != %d)", t.id, t.mcs.LockIndex(), t.lockIndex)
		}
		t.mcs.Rollback(q)
		t.locals = t.mcs.CopyLocalsInto(t.locals[:0])
		for i := range t.slots {
			sl := &t.slots[i]
			if sl.mode == lock.Exclusive {
				v, ok := t.mcs.EntityValueID(sl.ent)
				if !ok {
					return fmt.Errorf("core: %v MCS lost copy of %q", t.id, s.names.Name(sl.ent))
				}
				sl.copy = v
			}
		}
	case SDG:
		if err := s.restoreSingleCopy(t, q); err != nil {
			return err
		}
		if err := t.sdg.Rollback(q); err != nil {
			return fmt.Errorf("core: %v: %w", t.id, err)
		}
	case Hybrid:
		if cp, ok := t.hyb.Checkpoint(q); ok {
			copy(t.locals, cp.Locals)
			for i := range t.slots {
				sl := &t.slots[i]
				if sl.mode != lock.Exclusive {
					continue
				}
				found := false
				for _, c := range cp.Copies {
					if c.Ent == sl.ent {
						sl.copy = c.Val
						found = true
						break
					}
				}
				if !found {
					return fmt.Errorf("core: %v checkpoint %d lacks copy of %q", t.id, q, s.names.Name(sl.ent))
				}
			}
		} else if err := s.restoreSingleCopy(t, q); err != nil {
			return err
		}
		if err := t.hyb.Rollback(q); err != nil {
			return fmt.Errorf("core: %v: %w", t.id, err)
		}
	}

	// Reset program counter and counters (step 5).
	lost := fromState - rec.stateIndex
	t.pc = rec.opIndex
	t.stateIndex = rec.stateIndex
	t.lockStates = t.lockStates[:q]
	t.lockIndex = q
	t.starveRounds = 0
	t.stats.Rollbacks++
	t.stats.OpsLost += lost
	s.stats.Rollbacks++
	s.stats.OpsLost += lost
	if q == 0 {
		t.stats.Restarts++
		s.stats.Restarts++
	}
	s.emit(Event{
		Kind: EventRollback, Txn: t.id,
		FromState: fromState, ToState: rec.stateIndex,
		Lost: lost, ToLockState: q,
	})
	return nil
}
