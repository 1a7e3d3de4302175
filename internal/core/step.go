package core

import (
	"fmt"
	"time"

	"partialrollback/internal/hybrid"
	"partialrollback/internal/intern"
	"partialrollback/internal/lock"
	"partialrollback/internal/txn"
)

// lockEngine takes the engine mutex, reporting the blocked nanoseconds
// to the LockWait observer when configured.
func (s *System) lockEngine() {
	if s.cfg.LockWait == nil {
		s.mu.Lock()
		return
	}
	t0 := time.Now()
	s.mu.Lock()
	s.cfg.LockWait(int64(time.Since(t0)))
}

// Step executes the next atomic operation of transaction id. Waiting
// and committed transactions are reported as such without effect.
// Different transactions may be stepped concurrently.
func (s *System) Step(id txn.ID) (StepResult, error) {
	res, _, err := s.StepBurst(id, 1)
	return res, err
}

// StepBurst executes up to max consecutive atomic operations of
// transaction id under a single mutex acquisition, stopping early the
// moment a step does anything other than progress: commit, block (with
// or without a deadlock), rollback of the stepping transaction itself,
// or a no-op poll of a waiting/committed transaction. It returns the
// last step's result plus the number of operations the engine actually
// attempted (polls of waiting or committed transactions count zero).
//
// Conflict resolution stays operation-granular: every lock request
// inside the burst goes through exactly the same grant/wait/resolve
// logic as Step, and a wait ends the burst immediately, so the set of
// reachable schedules is unchanged — a burst merely runs a sequence of
// steps other transactions would not have been scheduled between.
// Step(id) is StepBurst(id, 1).
func (s *System) StepBurst(id txn.ID, max int) (StepResult, int, error) {
	if max < 1 {
		max = 1
	}
	s.lockEngine()
	defer s.mu.Unlock()
	t, err := s.get(id)
	if err != nil {
		return StepResult{}, 0, err
	}
	steps := 0
	for {
		res, err := s.stepLocked(t)
		if err != nil {
			t.failed = true
			return res, steps, err
		}
		if res.Outcome != AlreadyCommitted && res.Outcome != StillWaiting {
			steps++
		}
		if res.Outcome != Progressed || steps >= max {
			if res.Outcome == Blocked || res.Outcome == BlockedDeadlock || res.Outcome == StillWaiting {
				res.Wake = t.wake
			}
			return res, steps, nil
		}
	}
}

// stepLocked executes t's next atomic operation. Caller holds s.mu.
// Errors name the op by its as-sent index.
func (s *System) stepLocked(t *tstate) (StepResult, error) {
	switch t.status {
	case StatusCommitted:
		return StepResult{Outcome: AlreadyCommitted}, nil
	case StatusWaiting:
		return StepResult{Outcome: StillWaiting}, nil
	}
	s.stats.Steps++
	i := t.opIndex()
	op := &t.x.Ops[i]
	switch op.Kind {
	case txn.OpLockS, txn.OpLockX:
		return s.stepLock(t, op)
	case txn.OpRead:
		v, err := s.readEntity(t, op.Ent)
		if err != nil {
			return StepResult{}, err
		}
		if err := s.assignLocal(t, i, op, v); err != nil {
			return StepResult{}, err
		}
		s.advance(t)
		return StepResult{Outcome: Progressed}, nil
	case txn.OpWrite:
		v, err := s.evalExpr(t, i)
		if err != nil {
			return StepResult{}, err
		}
		if err := s.writeEntity(t, i, op.Ent, v); err != nil {
			return StepResult{}, err
		}
		s.advance(t)
		return StepResult{Outcome: Progressed}, nil
	case txn.OpCompute:
		v, err := s.evalExpr(t, i)
		if err != nil {
			return StepResult{}, err
		}
		if err := s.assignLocal(t, i, op, v); err != nil {
			return StepResult{}, err
		}
		s.advance(t)
		return StepResult{Outcome: Progressed}, nil
	case txn.OpUnlock:
		if err := s.unlockEntity(t, t.ents[op.Ent], t.x.Entities[op.Ent]); err != nil {
			return StepResult{}, err
		}
		t.unlocked = true
		s.advance(t)
		return StepResult{Outcome: Progressed}, nil
	case txn.OpDeclareLastLock:
		t.declaredLast = true
		if t.sdg != nil {
			t.sdg.StopMonitoring()
		}
		s.advance(t)
		return StepResult{Outcome: Progressed}, nil
	case txn.OpCommit:
		ack, err := s.commit(t)
		if err != nil {
			return StepResult{}, err
		}
		return StepResult{Outcome: Committed, Durable: ack}, nil
	default:
		return StepResult{}, fmt.Errorf("core: %v op %d: unknown kind %v", t.id, i, op.Kind)
	}
}

// advance counts one executed atomic operation.
func (s *System) advance(t *tstate) {
	t.pc++
	t.stateIndex++
	t.stats.OpsExecuted++
}

// evalExpr evaluates op i's compiled expression against the
// transaction's slot-indexed locals, allocation-free.
func (s *System) evalExpr(t *tstate, i int) (int64, error) {
	v, err := t.x.Expr(i).Eval(t.locals, t.x.Foreign, t)
	if err != nil {
		return 0, fmt.Errorf("core: %v op %d: %w", t.id, i, err)
	}
	return v, nil
}

// stepLock handles a lock-request operation for a running transaction.
func (s *System) stepLock(t *tstate, op *txn.ExecOp) (StepResult, error) {
	ent, name := t.ents[op.Ent], t.x.Entities[op.Ent]
	mode := lock.Shared
	if op.Kind == txn.OpLockX {
		mode = lock.Exclusive
	}
	// Record the lock state immediately preceding this request, unless
	// it is already recorded (cannot happen for a running transaction:
	// a retried request only re-executes after rollback truncated the
	// record).
	if len(t.lockStates) != t.lockIndex {
		return StepResult{}, fmt.Errorf("core: %v lock-state records out of sync (%d != %d)",
			t.id, len(t.lockStates), t.lockIndex)
	}
	t.lockStates = append(t.lockStates, lockStateRec{opIndex: t.pc, stateIndex: t.stateIndex})
	if t.hyb != nil && t.hyb.Planned(t.lockIndex) {
		// The state immediately preceding this request is a planned
		// checkpoint: snapshot locals and entity copies now, before the
		// request can be granted.
		s.copiesBuf = s.copiesBuf[:0]
		for i := range t.slots {
			if t.slots[i].mode == lock.Exclusive {
				s.copiesBuf = append(s.copiesBuf, hybrid.EntityCopy{Ent: t.slots[i].ent, Val: t.slots[i].copy})
			}
		}
		t.hyb.TakeCheckpoint(t.lockIndex, t.locals, s.copiesBuf)
	}

	granted, blockers, err := s.locks.AcquireID(t.id, ent, mode, s.blockersBuf[:0])
	s.blockersBuf = blockers
	if err != nil {
		return StepResult{}, err
	}
	if granted {
		s.finishGrant(t, ent, name, mode)
		return StepResult{Outcome: Progressed}, nil
	}

	// Wait response (§2 rule 2).
	t.status = StatusWaiting
	if t.wake == nil {
		t.wake = make(chan struct{}, 1)
	}
	t.waitEntity = name
	t.waitEnt = ent
	t.stats.Waits++
	s.stats.Waits++
	s.emit(Event{Kind: EventWait, Txn: t.id, Entity: name})

	return s.resolveWait(t, blockers)
}

// finishGrant completes a granted lock request for t: bookkeeping,
// local-copy creation for exclusive locks, strategy hooks, and the
// program-counter advance past the request op. Used both for immediate
// grants and for promotions of queued waiters.
func (s *System) finishGrant(t *tstate, ent intern.ID, entityName string, mode lock.Mode) {
	sl := lockSlot{ent: ent, mode: mode, heldAt: t.lockIndex}
	if mode == lock.Exclusive {
		sl.copy = s.store.MustGetID(ent)
		if t.mcs != nil {
			t.mcs.OnLockID(ent, true, sl.copy)
		}
	} else if t.mcs != nil {
		t.mcs.OnLockID(ent, false, 0)
	}
	t.slots = append(t.slots, sl)
	if t.sdg != nil {
		t.sdg.OnLock()
	}
	t.lockIndex++
	t.starveRounds = 0
	if t.status == StatusWaiting {
		t.status = StatusRunning
		t.waitEntity = ""
		t.waitEnt = intern.None
		t.signalWake()
	}
	s.advance(t)
	s.stats.Grants++
	s.emit(Event{Kind: EventGrant, Txn: t.id, Entity: entityName, Detail: mode.String()})
}

// applyGrants processes lock promotions produced by releases. The
// grants slice is usually s.grantsBuf; no callee appends to it.
func (s *System) applyGrants(grants []lock.GrantID) {
	for _, g := range grants {
		t, ok := s.txns[g.Txn]
		if !ok {
			continue
		}
		s.finishGrant(t, g.Ent, s.names.Name(g.Ent), g.Mode)
	}
}

// readEntity returns the value t observes for its locked entity e: its
// local copy for exclusive holds, the (stable) global value for shared
// holds.
func (s *System) readEntity(t *tstate, e int32) (int64, error) {
	ent := t.ents[e]
	sl := t.findSlot(ent)
	if sl == nil {
		return 0, fmt.Errorf("core: %v read of unheld entity %q", t.id, t.x.Entities[e])
	}
	if sl.mode == lock.Exclusive {
		return sl.copy, nil
	}
	return s.store.MustGetID(ent), nil
}

// writeEntity updates t's local copy of its exclusively held entity e
// (op i's target).
func (s *System) writeEntity(t *tstate, i int, e int32, v int64) error {
	ent := t.ents[e]
	sl := t.findSlot(ent)
	if sl == nil || sl.mode != lock.Exclusive {
		return fmt.Errorf("core: %v write to entity %q without exclusive lock", t.id, t.x.Entities[e])
	}
	sl.copy = v
	if t.mcs != nil {
		if err := t.mcs.WriteEntityID(ent, v); err != nil {
			return err
		}
	}
	if t.sdg != nil {
		t.sdg.OnWrite(t.writes.OpTarget[i])
	}
	return nil
}

// assignLocal updates the local variable op i assigns (Read
// destination or Compute): a declared slot, since Register validated
// the program.
func (s *System) assignLocal(t *tstate, i int, op *txn.ExecOp, v int64) error {
	t.locals[op.Local] = v
	if t.mcs != nil {
		if err := t.mcs.WriteLocalSlot(int(op.Local), v); err != nil {
			return err
		}
	}
	if t.sdg != nil {
		t.sdg.OnWrite(t.writes.OpTarget[i])
	}
	return nil
}

// unlockEntity releases one entity during the shrinking phase,
// installing the local copy as the new global value for exclusive
// holds. EventUnlock goes out before the release, so it precedes the
// grants the release causes.
func (s *System) unlockEntity(t *tstate, ent intern.ID, entityName string) error {
	sl := t.findSlot(ent)
	if sl == nil {
		return fmt.Errorf("core: %v unlock of unheld entity %q", t.id, entityName)
	}
	if sl.mode == lock.Exclusive {
		if err := s.store.InstallID(ent, sl.copy); err != nil {
			return err
		}
		if s.cfg.CommitLog != nil {
			s.cfg.CommitLog.LogInstall(CommitWrite{Ent: ent, Name: entityName, Val: sl.copy})
		}
	}
	s.emit(Event{Kind: EventUnlock, Txn: t.id, Entity: entityName})
	t.dropSlot(ent)
	if t.mcs != nil {
		t.mcs.OnUnlockID(ent)
	}
	return s.release(t, ent)
}

// commit terminates t: installs all exclusive local copies, hands the
// write-set to the commit log, emits EventCommit, then releases every
// lock (in name order, for deterministic event streams). Installing and logging before the first
// release keeps the event stream causal: EventCommit precedes the
// grants its releases cause. With a commit log configured it returns
// the durability ticket the caller's acknowledgement must wait on
// (outside the engine mutex); LogCommit runs before any later commit
// on this engine can, so log order respects per-entity install order.
func (s *System) commit(t *tstate) (CommitAck, error) {
	s.releaseBuf = s.releaseBuf[:0]
	for i := range t.slots {
		s.releaseBuf = append(s.releaseBuf, nameEnt{name: s.names.Name(t.slots[i].ent), ent: t.slots[i].ent})
	}
	sortNameEnts(s.releaseBuf)
	logged := s.cfg.CommitLog != nil
	if logged {
		s.writesBuf = s.writesBuf[:0]
	}
	for _, ne := range s.releaseBuf {
		sl := t.findSlot(ne.ent)
		if sl.mode == lock.Exclusive {
			if err := s.store.InstallID(ne.ent, sl.copy); err != nil {
				return nil, err
			}
			if logged {
				s.writesBuf = append(s.writesBuf, CommitWrite{Ent: ne.ent, Name: ne.name, Val: sl.copy})
			}
		}
	}
	var ack CommitAck
	if logged {
		ack = s.cfg.CommitLog.LogCommit(s.writesBuf)
	}
	s.stats.Commits++
	s.emit(Event{Kind: EventCommit, Txn: t.id})
	for _, ne := range s.releaseBuf {
		if err := s.release(t, ne.ent); err != nil {
			return nil, err
		}
	}
	t.slots = t.slots[:0]
	t.status = StatusCommitted
	t.pc = len(t.x.Ops)
	s.unpinAll(t)
	return ack, nil
}
