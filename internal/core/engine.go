package core

import (
	"partialrollback/internal/history"
	"partialrollback/internal/txn"
)

// Engine is the concurrency-control surface the drivers actually use:
// internal/exec.StepToCommit, internal/runtime and internal/sim program
// against it. *System implements it directly (the single big-lock
// engine of §2); internal/shard implements it over N partitioned
// Systems (the §3.3 per-site architecture) for the in-process sweeps.
type Engine interface {
	// Register adds an execution instance of prog and returns its ID.
	Register(prog *txn.Program) (txn.ID, error)
	// Step executes the next atomic operation of id (see System.Step).
	Step(id txn.ID) (StepResult, error)
	// StepBurst executes up to max consecutive atomic operations of id
	// under one engine-lock acquisition, stopping early on anything
	// other than plain progress (see System.StepBurst). It returns the
	// last step's result and the number of operations attempted.
	// StepBurst(id, 1) is equivalent to Step(id).
	StepBurst(id txn.ID, max int) (StepResult, int, error)
	// Status returns id's execution status.
	Status(id txn.ID) (Status, error)
	// Abort rolls id back to its initial state and removes it; fails
	// with ErrCommitted / ErrShrinking as documented on System.Abort.
	Abort(id txn.ID) error
	// Forget removes a committed transaction's bookkeeping.
	Forget(id txn.ID) error
	// Locals returns a copy of id's current local-variable values.
	Locals(id txn.ID) (map[string]int64, error)
	// TxnStatsOf returns a snapshot of id's counters.
	TxnStatsOf(id txn.ID) TxnStats
	// Runnable returns the IDs of transactions in StatusRunning, sorted.
	Runnable() []txn.ID
	// IDs returns all registered transaction IDs, sorted.
	IDs() []txn.ID
	// AllCommitted reports whether every registered transaction has
	// committed.
	AllCommitted() bool
	// Stats returns a snapshot of the engine-wide counters.
	Stats() Stats
	// Recorder returns the serializability recorder, or nil if history
	// recording is disabled. Sharded engines return a merged view.
	Recorder() *history.Recorder
	// CheckInvariants cross-checks internal consistency.
	CheckInvariants() error
}

// Engine is implemented by *System; this assertion keeps the interface
// honest as either side evolves.
var _ Engine = (*System)(nil)
