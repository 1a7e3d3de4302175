package core

import (
	"fmt"

	"partialrollback/internal/intern"
	"partialrollback/internal/lock"
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

// Resolver answers a lock request that must wait: §2 rule 3's
// detection with victim choice (§3.1–3.2) or one of §3.3's timestamp
// rules (internal/deadlock implements all three). The engine calls
// Resolve under its mutex, after queueing the request, with a view of
// the wait; the resolver may roll transactions back through it and
// must not call back into the System. It must leave no wait-for cycle
// behind.
//
// A System with no Resolver only queues: its caller guarantees that no
// wait closes a cycle, as ordered acquisition (Config.OrderLocks) does.
// A cycle that forms anyway is never broken; CheckInvariants reports
// it.
type Resolver interface {
	// Name identifies the resolver's victim policy in run summaries
	// and errors.
	Name() string
	// Resolve handles w. An error fails the step.
	Resolve(w *Wait) error
}

// Cause says why a Resolver rolls a transaction back; Wait.RollBack
// counts each in Stats.
type Cause int

// Rollback causes.
const (
	// CauseVictim: a deadlock victim (Stats.Victims).
	CauseVictim Cause = iota
	// CauseWound: a younger holder wounded by wound-wait (Stats.Wounds).
	CauseWound
	// CauseDie: a younger requester that died under wait-die
	// (Stats.Dies).
	CauseDie
	// CauseEscalation: a younger holder wounded on behalf of a starved
	// waiter (Stats.Escalations).
	CauseEscalation
)

// Wait is a Resolver's view of one lock request that must wait. It is
// valid only during the Resolve call it is passed to.
type Wait struct {
	// Requester is the transaction whose request for Entity (named
	// EntityName) waits.
	Requester  txn.ID
	Entity     intern.ID
	EntityName string
	// Blockers are the transactions the request waits for, ascending.
	Blockers []txn.ID
	// Table is the lock table, which is also the concurrency graph.
	Table *lock.Table
	// Scratch is a buffer the System keeps across waits, so a resolver
	// can walk the lock table without allocating: it may use it and
	// leave the grown slice here.
	Scratch []txn.ID

	s      *System
	report *DeadlockReport
}

// Entry returns the entry order of a registered transaction (Theorem
// 2's ordering; smaller means earlier), 0 for an unknown one.
func (w *Wait) Entry(id txn.ID) int64 {
	if t, ok := w.s.txns[id]; ok {
		return t.entry
	}
	return 0
}

// WaitingOn returns the entity id is waiting for, if id waits.
func (w *Wait) WaitingOn(id txn.ID) (intern.ID, bool) {
	t, ok := w.s.txns[id]
	if !ok || t.status != StatusWaiting {
		return intern.None, false
	}
	return t.waitEnt, true
}

// Starved counts one more deadlock resolution survived by id's current
// wait and reports whether that count has reached limit, restarting it
// if so. It reports false, counting nothing, when id does not wait. A
// grant or a rollback ends the wait and resets the count.
func (w *Wait) Starved(id txn.ID, limit int) bool {
	t, ok := w.s.txns[id]
	if !ok || t.status != StatusWaiting {
		return false
	}
	t.starveRounds++
	if t.starveRounds < limit {
		return false
	}
	t.starveRounds = 0
	return true
}

// Plan computes the §3.1 rollback plan of id over its contested
// entities: the latest lock state at which it holds none of them,
// adjusted to the latest well-defined state under the single-copy
// strategy or to the initial state under total restart, and the cost
// of rolling back there. ok is false when id cannot be rolled back or
// holds none of them.
func (w *Wait) Plan(id txn.ID, contested []intern.ID) (v Victim, ok bool) {
	t, found := w.s.txns[id]
	if !found {
		return Victim{}, false
	}
	return w.s.planRollback(t, contested)
}

// RollBack rolls v.Txn back to lock state v.Target (§2's rollback
// operation) and counts it in Stats under its cause.
func (w *Wait) RollBack(v Victim, c Cause) error {
	t, ok := w.s.txns[v.Txn]
	if !ok {
		return fmt.Errorf("core: resolver %q chose unknown victim %v", w.s.cfg.Resolver.Name(), v.Txn)
	}
	if err := w.s.rollbackTo(t, v.Target); err != nil {
		return err
	}
	switch c {
	case CauseVictim:
		w.s.stats.Victims++
	case CauseWound:
		w.s.stats.Wounds++
	case CauseDie:
		w.s.stats.Dies++
	case CauseEscalation:
		w.s.stats.Escalations++
	}
	return nil
}

// Deadlock records that the wait closed the cycles r describes: it
// counts one deadlock and emits EventDeadlock, and the step then
// reports BlockedDeadlock with r. Call it before rolling r's victims
// back, so the event precedes their rollbacks.
func (w *Wait) Deadlock(r *DeadlockReport) {
	w.report = r
	w.s.stats.Deadlocks++
	w.s.emit(Event{Kind: EventDeadlock, Txn: r.Requester, Entity: r.Entity, Deadlock: r})
}

// resolveWait hands t's wait on the given blockers to the configured
// Resolver and derives the step outcome from t's state afterwards: a
// recorded deadlock, a wait that stands, a grant (t's lock index grew),
// or a rollback of t itself. Caller holds s.mu.
func (s *System) resolveWait(t *tstate, blockers []txn.ID) (StepResult, error) {
	if s.cfg.Resolver == nil {
		return StepResult{Outcome: Blocked}, nil
	}
	lockIndex := t.lockIndex
	w := &s.wait
	w.Requester, w.Entity, w.EntityName, w.Blockers = t.id, t.waitEnt, t.waitEntity, blockers
	w.Table, w.s, w.report = s.locks, s, nil
	err := s.cfg.Resolver.Resolve(w)
	report := w.report
	w.Blockers, w.report = nil, nil
	switch {
	case err != nil:
		return StepResult{}, err
	case report != nil:
		return StepResult{Outcome: BlockedDeadlock, Deadlock: report}, nil
	case t.status == StatusWaiting:
		return StepResult{Outcome: Blocked}, nil
	case t.lockIndex > lockIndex:
		return StepResult{Outcome: Progressed}, nil
	default:
		return StepResult{Outcome: SelfRolledBack}, nil
	}
}
