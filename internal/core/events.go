package core

import (
	"fmt"

	"partialrollback/internal/txn"
)

// EventKind enumerates engine events.
type EventKind int

// Engine events.
const (
	EventRegister EventKind = iota
	EventGrant
	EventWait
	EventDeadlock
	EventRollback
	EventUnlock
	EventCommit
	// EventAbort: the transaction was rolled back to its initial state
	// and removed from the system, or, when a step failed after its
	// first unlock, its remaining locks were released uninstalled (see
	// System.Abort).
	EventAbort
)

func (k EventKind) String() string {
	switch k {
	case EventRegister:
		return "register"
	case EventGrant:
		return "grant"
	case EventWait:
		return "wait"
	case EventDeadlock:
		return "deadlock"
	case EventRollback:
		return "rollback"
	case EventUnlock:
		return "unlock"
	case EventCommit:
		return "commit"
	case EventAbort:
		return "abort"
	default:
		return fmt.Sprintf("EventKind(%d)", int(k))
	}
}

// Event is one engine occurrence, delivered to Config.OnEvent.
type Event struct {
	Kind   EventKind
	Txn    txn.ID
	Entity string
	Detail string
	// Deadlock is set for EventDeadlock.
	Deadlock *DeadlockReport
	// From/To/Lost are set for EventRollback: state indexes before and
	// after, and the operations lost.
	FromState, ToState int64
	Lost               int64
	ToLockState        int
}

func (e Event) String() string {
	switch e.Kind {
	case EventRollback:
		return fmt.Sprintf("rollback %v to lock state %d (state %d -> %d, lost %d)",
			e.Txn, e.ToLockState, e.FromState, e.ToState, e.Lost)
	case EventDeadlock:
		return fmt.Sprintf("deadlock via %v: %v", e.Txn, e.Deadlock)
	case EventGrant, EventWait, EventUnlock:
		return fmt.Sprintf("%s %v %s", e.Kind, e.Txn, e.Entity)
	default:
		if e.Detail != "" {
			return fmt.Sprintf("%s %v (%s)", e.Kind, e.Txn, e.Detail)
		}
		return fmt.Sprintf("%s %v", e.Kind, e.Txn)
	}
}

// ReportedCycles bounds DeadlockReport.Cycles, a sample: one request
// can close exponentially many cycles.
const ReportedCycles = 64

// DeadlockReport describes one detected-and-resolved deadlock.
type DeadlockReport struct {
	// Requester caused the conflict whose wait closed the cycles.
	Requester txn.ID
	// Entity is the entity the requester asked for.
	Entity string
	// Cycles is a sample of the simple cycles through Requester: the
	// first ReportedCycles in enumeration order (each starts at
	// Requester; member i waits for member i+1). It feeds traces,
	// metrics and the figures; victim choice does not read it.
	Cycles [][]txn.ID
	// Candidates maps every participant (member of the requester's
	// strongly connected component) to its rollback plan,
	// letting callers inspect the §3.1 cost comparison (Figure 1's
	// 4 vs 6 vs 5).
	Candidates map[txn.ID]Victim
	// Victims are the transactions actually rolled back.
	Victims []Victim
}

func (r *DeadlockReport) String() string {
	return fmt.Sprintf("requester %v over %q, %d cycle(s), victims %v",
		r.Requester, r.Entity, len(r.Cycles), r.Victims)
}

// Outcome classifies the result of one Step.
type Outcome int

// Step outcomes.
const (
	// Progressed: one operation executed (possibly a lock grant).
	Progressed Outcome = iota
	// Blocked: the operation was a lock request that must wait; no
	// deadlock resulted.
	Blocked
	// BlockedDeadlock: the wait closed one or more cycles; victims were
	// rolled back (see StepResult.Deadlock). The stepping transaction
	// may itself be among the victims, and may or may not have ended up
	// granted.
	BlockedDeadlock
	// StillWaiting: the transaction is waiting for a lock; nothing
	// happened.
	StillWaiting
	// Committed: the transaction executed its Commit.
	Committed
	// AlreadyCommitted: the transaction had already committed; nothing
	// happened.
	AlreadyCommitted
	// SelfRolledBack: the Resolver (wait-die) rolled the stepping
	// transaction itself back; it remains runnable from its reset
	// program counter.
	SelfRolledBack
)

func (o Outcome) String() string {
	switch o {
	case Progressed:
		return "progressed"
	case Blocked:
		return "blocked"
	case BlockedDeadlock:
		return "blocked-deadlock"
	case StillWaiting:
		return "still-waiting"
	case Committed:
		return "committed"
	case AlreadyCommitted:
		return "already-committed"
	case SelfRolledBack:
		return "self-rolled-back"
	default:
		return fmt.Sprintf("Outcome(%d)", int(o))
	}
}

// StepResult reports what one Step did.
type StepResult struct {
	Outcome Outcome
	// Deadlock is non-nil when Outcome is BlockedDeadlock.
	Deadlock *DeadlockReport
	// Durable is non-nil when Outcome is Committed and a CommitLogger is
	// configured: the ticket to wait on (outside the engine mutex)
	// before acknowledging the commit to anyone.
	Durable CommitAck
	// Wake is set when Outcome is Blocked, BlockedDeadlock or
	// StillWaiting: the transaction's one-slot wake channel, which
	// receives a token when the transaction becomes runnable again
	// (granted or rolled back, §2 rule 2). A transition inside this very
	// step leaves its token too, so a driver parks on Wake with no
	// Status re-check and loses no wake.
	Wake <-chan struct{}
}
