package core

import (
	"fmt"

	"partialrollback/internal/intern"
	"partialrollback/internal/lock"
	"partialrollback/internal/sdg"
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
func (s *System) planRollback(t *tstate, contested []intern.ID) (Victim, bool) {
	if t.unlocked || t.declaredLast || t.status == StatusCommitted || len(contested) == 0 {
		return Victim{}, false
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
		return Victim{}, false // holds none of the contested entities
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
		return Victim{}, false
	}
	return Victim{
		Txn:    t.id,
		Target: target,
		Cost:   t.stateIndex - t.lockStates[target].stateIndex,
	}, true
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
