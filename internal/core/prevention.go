package core

import (
	"fmt"

	"partialrollback/internal/intern"
	"partialrollback/internal/txn"
)

// Prevention selects a timestamp-based conflict response applied
// *instead of* plain waiting, as used by distributed systems that
// cannot maintain a global concurrency graph (§3.3). The paper observes
// these mechanisms "in no way invalidate the advantages of rolling a
// transaction back to the latest possible state in which the conflict
// necessitating the rollback no longer exists": under WoundWait the
// wounded holder is rolled back partially per the configured strategy
// rather than restarted.
type Prevention int

// Prevention modes.
const (
	// NoPrevention uses detection + victim selection (the centralized
	// scheme of §3.1/3.2).
	NoPrevention Prevention = iota
	// WoundWait: an older requester wounds younger conflicting holders
	// (they are rolled back far enough to release the entity); a
	// younger requester waits. Deadlock-free by construction.
	WoundWait
	// WaitDie: an older requester waits; a younger requester dies (is
	// rolled back to its initial state, the classical restart). Kept
	// total regardless of strategy, as the classical baseline.
	WaitDie
)

func (p Prevention) String() string {
	switch p {
	case WoundWait:
		return "wound-wait"
	case WaitDie:
		return "wait-die"
	default:
		return "detect"
	}
}

// preventConflict applies the configured prevention mode after t's
// request for t.waitEnt blocked on the given holders. It returns the
// step outcome to report.
func (s *System) preventConflict(t *tstate, blockers []txn.ID) (StepResult, error) {
	switch s.cfg.Prevention {
	case WoundWait:
		return s.woundWait(t, blockers)
	case WaitDie:
		return s.waitDie(t, blockers)
	default:
		return StepResult{}, fmt.Errorf("core: preventConflict called without prevention mode")
	}
}

// woundWait wounds every conflicting holder younger than t, rolling it
// back just far enough to release t's awaited entity
// (strategy-adjusted). Holders that can no longer be rolled back
// (shrinking phase or declared last lock) are waited for instead —
// they can never join a cycle, so the wait is safe.
func (s *System) woundWait(t *tstate, blockers []txn.ID) (StepResult, error) {
	contested := []intern.ID{t.waitEnt}
	for _, b := range blockers {
		h, ok := s.txns[b]
		if !ok || h.entry < t.entry {
			continue // older holder: wait for it
		}
		plan, ok := s.planRollback(h, contested)
		if !ok {
			continue // unwoundable (shrinking/declared); safe to wait
		}
		if err := s.rollbackTo(h, plan.Target); err != nil {
			return StepResult{}, err
		}
		s.stats.Wounds++
	}
	if t.status == StatusRunning {
		// The wounds released the entity and our queued request was
		// promoted.
		return StepResult{Outcome: Progressed}, nil
	}
	return StepResult{Outcome: Blocked}, nil
}

// waitDie lets t wait only if it is older than every conflicting
// holder; otherwise t dies: it is rolled back to its initial state (and
// will re-run from scratch when next scheduled).
func (s *System) waitDie(t *tstate, blockers []txn.ID) (StepResult, error) {
	die := false
	for _, b := range blockers {
		if h, ok := s.txns[b]; ok && h.entry < t.entry {
			die = true
			break
		}
	}
	if !die {
		return StepResult{Outcome: Blocked}, nil
	}
	if len(t.lockStates) == 0 {
		return StepResult{}, fmt.Errorf("core: wait-die victim %v has no lock states", t.id)
	}
	if err := s.rollbackTo(t, 0); err != nil {
		return StepResult{}, err
	}
	s.stats.Dies++
	return StepResult{Outcome: SelfRolledBack}, nil
}
