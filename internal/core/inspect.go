package core

import (
	"fmt"
	"sort"

	"partialrollback/internal/lock"
	"partialrollback/internal/txn"
	"partialrollback/internal/waitfor"
)

// Status returns the execution status of id.
func (s *System) Status(id txn.ID) (Status, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	t, err := s.get(id)
	if err != nil {
		return 0, err
	}
	return t.status, nil
}

// ProgramName returns the name of id's program.
func (s *System) ProgramName(id txn.ID) string {
	s.mu.Lock()
	defer s.mu.Unlock()
	if t, ok := s.txns[id]; ok {
		return t.x.Name
	}
	return ""
}

// Locals returns a copy of id's current local-variable values.
func (s *System) Locals(id txn.ID) (map[string]int64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	t, err := s.get(id)
	if err != nil {
		return nil, err
	}
	out := make(map[string]int64, len(t.locals))
	for slot, name := range t.x.Locals[:len(t.x.Init)] {
		out[name] = t.locals[slot]
	}
	return out, nil
}

// LocalCopy returns id's current local copy of an exclusively held
// entity.
func (s *System) LocalCopy(id txn.ID, entityName string) (int64, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	t, ok := s.txns[id]
	if !ok {
		return 0, false
	}
	ent, ok := s.names.Lookup(entityName)
	if !ok {
		return 0, false
	}
	sl := t.findSlot(ent)
	if sl == nil || sl.mode != lock.Exclusive {
		return 0, false
	}
	return sl.copy, true
}

// StateIndex returns id's current state index (atomic operations
// executed on the current attempt).
func (s *System) StateIndex(id txn.ID) int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	if t, ok := s.txns[id]; ok {
		return t.stateIndex
	}
	return 0
}

// LockIndex returns id's current lock index (lock requests granted).
func (s *System) LockIndex(id txn.ID) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	if t, ok := s.txns[id]; ok {
		return t.lockIndex
	}
	return 0
}

// Held returns the entities id holds, sorted.
func (s *System) Held(id txn.ID) []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	t, ok := s.txns[id]
	if !ok {
		return nil
	}
	var out []string
	for i := range t.slots {
		out = append(out, s.names.Name(t.slots[i].ent))
	}
	sort.Strings(out)
	return out
}

// HoldsExclusive reports whether id holds an exclusive lock on
// entityName.
func (s *System) HoldsExclusive(id txn.ID, entityName string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	m, ok := s.locks.ModeOf(id, entityName)
	return ok && m == lock.Exclusive
}

// WaitingOn returns the entity id is waiting for, if any.
func (s *System) WaitingOn(id txn.ID) (string, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	t, ok := s.txns[id]
	if !ok || t.status != StatusWaiting {
		return "", false
	}
	return t.waitEntity, true
}

// EntryOf returns id's entry sequence number (Theorem 2 ordering).
func (s *System) EntryOf(id txn.ID) int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	if t, ok := s.txns[id]; ok {
		return t.entry
	}
	return 0
}

// Runnable returns the IDs of transactions in StatusRunning, sorted.
func (s *System) Runnable() []txn.ID {
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []txn.ID
	for id, t := range s.txns {
		if t.status == StatusRunning {
			out = append(out, id)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// AllCommitted reports whether every registered transaction has
// committed.
func (s *System) AllCommitted() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, t := range s.txns {
		if t.status != StatusCommitted {
			return false
		}
	}
	return true
}

// IDs returns all registered transaction IDs, sorted.
func (s *System) IDs() []txn.ID {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]txn.ID, 0, len(s.txns))
	for id := range s.txns {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Stats returns a snapshot of the system-wide counters.
func (s *System) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}

// TxnStatsOf returns a snapshot of id's counters.
func (s *System) TxnStatsOf(id txn.ID) TxnStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	if t, ok := s.txns[id]; ok {
		return t.stats
	}
	return TxnStats{}
}

// graph builds the current concurrency graph from the lock table.
// Caller holds s.mu.
func (s *System) graph() *waitfor.Graph {
	ids := make([]txn.ID, 0, len(s.txns))
	for id := range s.txns {
		ids = append(ids, id)
	}
	return waitfor.Rebuild(s.locks, ids)
}

// Arcs returns the current concurrency-graph arcs.
func (s *System) Arcs() []waitfor.Arc {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.graph().Arcs()
}

// GraphIsForest reports Theorem 1's condition on the current
// concurrency graph.
func (s *System) GraphIsForest() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.graph().IsForest()
}

// GraphHasCycle reports whether the current concurrency graph contains
// a directed cycle: an unresolved deadlock, which a Resolver breaks in
// the step whose wait closes it and which a System without one must
// never see.
func (s *System) GraphHasCycle() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.graph().HasCycle()
}

// WellDefinedStates returns id's currently well-defined lock states
// under the single-copy strategy. It errors for other strategies.
func (s *System) WellDefinedStates(id txn.ID) ([]int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	t, err := s.get(id)
	if err != nil {
		return nil, err
	}
	if t.sdg == nil {
		return nil, fmt.Errorf("core: %v runs under %v, not sdg", id, s.cfg.Strategy)
	}
	return t.sdg.WellDefinedStates(), nil
}

// MCSPeakSpace returns id's peak MCS stack-element counts (entities,
// locals) for the Theorem 3 experiment. It errors for other strategies.
func (s *System) MCSPeakSpace(id txn.ID) (entityElems, localElems int, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	t, err := s.get(id)
	if err != nil {
		return 0, 0, err
	}
	if t.mcs == nil {
		return 0, 0, fmt.Errorf("core: %v runs under %v, not mcs", id, s.cfg.Strategy)
	}
	e, l := t.mcs.PeakSpace()
	return e, l, nil
}

// ForceRollback rolls id back to lock state q outside any deadlock —
// the raw §2 rollback operation, exposed for experiments and tests
// (e.g. reproducing Figure 4's "we could roll back T from S19 to S13 by
// simply releasing the locks held on E and F").
func (s *System) ForceRollback(id txn.ID, q int) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	t, err := s.get(id)
	if err != nil {
		return err
	}
	if s.cfg.Strategy == SDG && !t.sdg.WellDefined(q) {
		return fmt.Errorf("core: lock state %d of %v is not well-defined", q, id)
	}
	if s.cfg.Strategy == Hybrid && !t.hyb.Restorable(q) {
		return fmt.Errorf("core: lock state %d of %v is not restorable", q, id)
	}
	if s.cfg.Strategy == Total && q != 0 {
		return fmt.Errorf("core: total strategy can only roll back to state 0")
	}
	return s.rollbackTo(t, q)
}

// HybridStats returns the Hybrid strategy's live checkpoint count and
// peak extra-copy usage for id. It errors for other strategies.
func (s *System) HybridStats(id txn.ID) (checkpoints, peakCopies int, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	t, err := s.get(id)
	if err != nil {
		return 0, 0, err
	}
	if t.hyb == nil {
		return 0, 0, fmt.Errorf("core: %v runs under %v, not hybrid", id, s.cfg.Strategy)
	}
	return t.hyb.CheckpointCount(), t.hyb.PeakCopies(), nil
}

// CheckInvariants cross-checks internal consistency: the lock table's
// own invariants, an acyclic concurrency graph (rebuilt from the lock
// table, its only record), and per-transaction bookkeeping against the
// lock table. Used heavily by tests.
func (s *System) CheckInvariants() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.locks.CheckInvariants(); err != nil {
		return err
	}
	// The Resolver breaks every cycle in the step whose wait closed it,
	// and without one the caller guarantees no wait closes a cycle, so
	// between steps the graph is acyclic. A wait adds only the
	// requester's arcs to it, so the graph minus the requester is
	// acyclic during resolution too, which victim selection relies on.
	if g := s.graph(); g.HasCycle() {
		return fmt.Errorf("core: concurrency graph has a cycle between steps:\n%s", g)
	}
	for id, t := range s.txns {
		if t.status == StatusCommitted {
			continue
		}
		held := s.locks.HeldBy(id)
		if len(held) != len(t.slots) {
			return fmt.Errorf("core: %v holds %d lock slots != lock table %d", id, len(t.slots), len(held))
		}
		for _, e := range held {
			ent, ok := s.names.Lookup(e)
			var sl *lockSlot
			if ok {
				sl = t.findSlot(ent)
			}
			if sl == nil {
				return fmt.Errorf("core: %v missing heldAt for %q", id, e)
			}
			if sl.heldAt < 0 || sl.heldAt >= t.lockIndex {
				return fmt.Errorf("core: %v heldAt[%q] = %d outside [0,%d)", id, e, sl.heldAt, t.lockIndex)
			}
			m, _ := s.locks.ModeOfID(id, ent)
			if sl.mode != m {
				return fmt.Errorf("core: %v mode cache stale for %q", id, e)
			}
		}
		wantRecs := t.lockIndex
		if t.status == StatusWaiting {
			wantRecs++
		}
		if len(t.lockStates) != wantRecs {
			return fmt.Errorf("core: %v has %d lock-state records, want %d", id, len(t.lockStates), wantRecs)
		}
		if t.mcs != nil && t.mcs.LockIndex() != t.lockIndex {
			return fmt.Errorf("core: %v MCS lock index %d != %d", id, t.mcs.LockIndex(), t.lockIndex)
		}
		if t.sdg != nil && t.sdg.LockIndex() != t.lockIndex {
			return fmt.Errorf("core: %v SDG lock index %d != %d", id, t.sdg.LockIndex(), t.lockIndex)
		}
	}
	return nil
}

// PC returns id's current program counter (index of the next operation
// it will execute), or -1 for unknown transactions.
func (s *System) PC(id txn.ID) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	t, ok := s.txns[id]
	if !ok {
		return -1
	}
	return t.pc
}
