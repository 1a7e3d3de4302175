package core

import (
	"sort"

	"partialrollback/internal/txn"
	"partialrollback/internal/waitfor"
)

// HeldLock describes one lock a transaction currently holds.
type HeldLock struct {
	Entity string `json:"entity"`
	// Mode is "S" or "X".
	Mode string `json:"mode"`
	// Index is the lock index at which the lock was acquired (the lock
	// state preceding its request).
	Index int `json:"index"`
}

// TxnSnapshot is one active (or committed but not yet forgotten)
// transaction's point-in-time state, as served by the observability
// layer's /debug/txns endpoint.
type TxnSnapshot struct {
	ID         txn.ID     `json:"txn"`
	Program    string     `json:"program"`
	Status     string     `json:"status"`
	Entry      int64      `json:"entry"`
	PC         int        `json:"pc"`
	StateIndex int64      `json:"stateIndex"`
	LockIndex  int        `json:"lockIndex"`
	Held       []HeldLock `json:"held,omitempty"`
	// WaitingOn is the entity the transaction waits for, when waiting.
	WaitingOn string `json:"waitingOn,omitempty"`
	// RestartCost is the paper's rollback-cost metric evaluated at the
	// initial state: the atomic operations that would be lost if the
	// transaction were rolled back to state 0 right now (= StateIndex).
	RestartCost int64 `json:"restartCost"`
	// Unlocked reports the shrinking phase (never rolled back again).
	Unlocked bool     `json:"unlocked,omitempty"`
	Stats    TxnStats `json:"stats"`
}

// WaitArc is one wait-for relationship in a snapshot, in the internal
// waiter -> holder orientation (the paper draws holder -> waiter;
// renderers flip it and say so).
type WaitArc struct {
	Waiter txn.ID `json:"waiter"`
	Holder txn.ID `json:"holder"`
	Entity string `json:"entity"`
}

// DebugSnapshot is a consistent point-in-time view of a System: its
// active transaction table, wait-for arcs, and counter snapshot. It is
// what the observability subsystem's inspector endpoints serve.
type DebugSnapshot struct {
	Txns  []TxnSnapshot `json:"txns"`
	Arcs  []WaitArc     `json:"arcs"`
	Stats Stats         `json:"stats"`
}

// Quiesce runs fn under the engine mutex, so no step, commit, install,
// or commit-log append can interleave. The checkpoint subsystem uses it
// to capture a commit-consistent entity snapshot together with the WAL
// sequence frontier — under the paper's deferred-update discipline (§4)
// the store only ever holds committed-or-unlocked values, so a snapshot
// taken here is transaction-consistent without quiescing the workload
// itself. fn must be fast (copy slices, read counters) and must not
// call back into the engine.
func (s *System) Quiesce(fn func()) {
	s.mu.Lock()
	defer s.mu.Unlock()
	fn()
}

// DebugSnapshot returns a consistent point-in-time view of the system:
// every registered transaction with its held and awaited locks, the
// wait-for arcs, and the counter snapshot — all taken under one
// acquisition of the engine mutex.
func (s *System) DebugSnapshot() DebugSnapshot {
	s.mu.Lock()
	defer s.mu.Unlock()
	snap := DebugSnapshot{Stats: s.stats}
	for id, t := range s.txns {
		ts := TxnSnapshot{
			ID:          id,
			Program:     t.x.Name,
			Status:      t.status.String(),
			Entry:       t.entry,
			PC:          t.pc,
			StateIndex:  t.stateIndex,
			LockIndex:   t.lockIndex,
			RestartCost: t.stateIndex,
			Unlocked:    t.unlocked,
			Stats:       t.stats,
		}
		// Sourced from the transaction's slots (not the lock table) so
		// anonymous CAS-granted shared holds are included.
		for i := range t.slots {
			sl := &t.slots[i]
			ts.Held = append(ts.Held, HeldLock{Entity: s.names.Name(sl.ent), Mode: sl.mode.String(), Index: sl.heldAt})
		}
		sort.Slice(ts.Held, func(i, j int) bool { return ts.Held[i].Entity < ts.Held[j].Entity })
		if t.status == StatusWaiting {
			ts.WaitingOn = t.waitEntity
		}
		snap.Txns = append(snap.Txns, ts)
	}
	sort.Slice(snap.Txns, func(i, j int) bool { return snap.Txns[i].ID < snap.Txns[j].ID })
	for _, a := range s.graph().Arcs() {
		snap.Arcs = append(snap.Arcs, arcSnapshot(a))
	}
	return snap
}

func arcSnapshot(a waitfor.Arc) WaitArc {
	return WaitArc{Waiter: a.Waiter, Holder: a.Holder, Entity: a.Entity}
}
