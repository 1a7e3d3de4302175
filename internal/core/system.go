// Package core implements the paper's contribution: a two-phase-locking
// concurrency control whose deadlock response is partial rollback
// (Fussell, Kedem & Silberschatz, SIGMOD 1981).
//
// A System executes registered transaction programs one atomic
// operation at a time (callers choose the interleaving; see
// internal/sim for deterministic drivers and internal/runtime for a
// goroutine-per-transaction driver). Lock requests follow §2's rules:
// grant when compatible, otherwise wait. Every wait goes to the
// configured Resolver, the one seam for conflict resolution:
// internal/deadlock's detection, whose victim policy picks
// transactions when a wait closes a cycle in the concurrency graph, or
// its wound-wait and wait-die rules (§3.3). The System performs the
// rollbacks a Resolver asks for, each just far enough to release what
// is contested — to the lock state preceding its lock on a contested
// entity (multi-copy strategy), to the latest *well-defined* such
// state (single-copy strategy), or to its initial state (total
// restart, the classical baseline the paper generalizes). A System
// without a Resolver only queues waits, for callers whose waits cannot
// close a cycle (Config.OrderLocks).
package core

import (
	"cmp"
	"fmt"
	"slices"
	"sync"

	"partialrollback/internal/entity"
	"partialrollback/internal/hybrid"
	"partialrollback/internal/intern"
	"partialrollback/internal/lock"
	"partialrollback/internal/mcs"
	"partialrollback/internal/sdg"
	"partialrollback/internal/txn"
)

// Strategy selects the rollback implementation (§4).
type Strategy int

// Rollback strategies.
const (
	// Total is the classical total-removal-and-restart baseline: the
	// victim is rolled back to its initial state. One local copy per
	// entity; no monitoring.
	Total Strategy = iota
	// MCS is the multi-lock copy strategy: value stacks allow rollback
	// to any lock state, at up to n(n+1)/2 entity copies (Theorem 3).
	MCS
	// SDG is the single-copy strategy guided by the state-dependency
	// graph: rollback only to well-defined lock states, with no more
	// storage than total restart requires.
	SDG
	// Hybrid is the paper's closing extension: SDG plus a bounded
	// number of checkpoints (extra copies) that make chosen lock states
	// restorable even when write intervals span them. Budget 0 behaves
	// exactly like SDG; an unbounded budget approaches MCS.
	Hybrid
)

func (s Strategy) String() string {
	switch s {
	case Total:
		return "total"
	case MCS:
		return "mcs"
	case SDG:
		return "sdg"
	case Hybrid:
		return "hybrid"
	default:
		return fmt.Sprintf("Strategy(%d)", int(s))
	}
}

// ParseStrategy returns the strategy whose String is s.
func ParseStrategy(s string) (Strategy, error) {
	for _, st := range []Strategy{Total, MCS, SDG, Hybrid} {
		if st.String() == s {
			return st, nil
		}
	}
	return 0, fmt.Errorf("unknown strategy %q", s)
}

// CommitWrite is one (entity, value) pair a committing or unlocking
// transaction installs into the global store — the unit the durability
// layer serializes into a redo log record. Under the paper's deferred
// update discipline (§4) these installs are the only global-state
// mutations the engine ever performs, so logging them is logging
// everything: no undo records exist because uncommitted work lives in
// per-transaction copies that die with the process, and partial
// rollback therefore never touches the log.
type CommitWrite struct {
	Ent  intern.ID
	Name string
	Val  int64
}

// CommitAck is a durability ticket returned by CommitLogger.LogCommit.
// Wait blocks until every write of the acknowledged commit is durable
// (or the log has failed) and must be called outside the engine mutex.
type CommitAck interface {
	Wait() error
}

// CommitLogger receives the engine's install stream. Both methods are
// invoked under the engine mutex, so they must only buffer and enqueue
// — never block on IO (the group-commit fsync happens on the logger's
// own flusher; callers block in CommitAck.Wait, outside the mutex).
//
// LogInstall records an early (shrinking-phase) unlock install; it
// carries no ticket and rides the next flush. Any transaction that can
// observe the installed value must first acquire the entity's lock,
// which happens-after this call under the same engine mutex, so its
// own commit ticket — which waits for the log tail — covers this
// record too.
//
// LogCommit records a committing transaction's whole write-set and
// returns the ticket its client acknowledgement must wait on. A
// read-only commit (empty writes) still gets a ticket: it waits for
// the current log tail, so a commit that observed another
// transaction's writes is never acknowledged before those writes are
// durable.
type CommitLogger interface {
	LogInstall(w CommitWrite)
	LogCommit(writes []CommitWrite) CommitAck
}

// Config configures a System.
type Config struct {
	// Store is the global database. Required.
	Store *entity.Store
	// Strategy selects the rollback implementation. Default Total.
	Strategy Strategy
	// Resolver answers every lock request that must wait (see
	// Resolver): internal/deadlock's detection with a victim policy, or
	// wound-wait or wait-die. Nil only queues the request, for callers
	// whose waits cannot close a cycle (OrderLocks).
	Resolver Resolver
	// HybridBudget is the per-transaction checkpoint budget for the
	// Hybrid strategy (ignored otherwise). Zero means no checkpoints:
	// the strategy then behaves exactly like SDG.
	HybridBudget int
	// HybridAllocator chooses which lock states the Hybrid strategy
	// checkpoints. Default hybrid.MinGap.
	HybridAllocator hybrid.Allocator
	// CommitLog, when non-nil, receives every install for durable
	// logging (see CommitLogger). Nil keeps the engine memory-only with
	// a byte-identical commit path.
	CommitLog CommitLogger
	// OnEvent, when non-nil, receives every engine event. It runs under
	// the engine mutex, so it must not call back into the System. It is
	// a tap only (tracer, metrics, the serializability oracle
	// history.Recorder.OnEvent): waking parked drivers is the engine's
	// own job (StepResult.Wake).
	//
	// Releases are emitted before the grants they cause: EventUnlock
	// and EventCommit precede the EventGrant of every waiter their
	// releases promote, so a consumer sees no two conflicting holds
	// overlap. EventRollback is emitted last, after the grants its
	// releases cause; the holds it retracts never happened.
	OnEvent func(Event)
	// LockWait, when non-nil, observes the nanoseconds each engine-lock
	// acquisition on the step path blocked before entering the critical
	// section — the direct measure of how much the engine mutex itself
	// throttles throughput (rendered as pr_engine_lock_wait_ns).
	LockWait func(ns int64)
	// OrderLocks runs every registered program with its lock requests
	// first, in ascending entity-ID order, then its other operations as
	// sent. Register validates the program as sent, and every error
	// names as-sent op indexes. One global acquisition order with no
	// upgrades admits no wait-for cycle, so such a System needs no
	// Resolver, and under 2PL taking a lock earlier changes nothing a
	// program computes. txn.OrderLocks (name order) is its test oracle.
	// It requires Strategy Total (New panics otherwise): txn.Writes,
	// which SDG and Hybrid read, numbers lock states as sent, and an
	// engine that cannot deadlock needs no rollback but Abort's restart.
	OrderLocks bool
}

// Status is a transaction's execution status.
type Status int

// Transaction statuses.
const (
	StatusRunning Status = iota
	StatusWaiting
	StatusCommitted
)

func (st Status) String() string {
	switch st {
	case StatusRunning:
		return "running"
	case StatusWaiting:
		return "waiting"
	case StatusCommitted:
		return "committed"
	default:
		return fmt.Sprintf("Status(%d)", int(st))
	}
}

// lockStateRec snapshots the transaction state immediately before a
// lock request: the program counter of the request and the state index
// (atomic-operation count) at that point.
type lockStateRec struct {
	opIndex    int
	stateIndex int64
}

// lockSlot is one lock a transaction currently holds: the entity's
// intern ID, the mode, the lock index of its request, and (for
// exclusive holds) the transaction's local copy of the entity's value.
// The slot list replaces the former copies/heldAt/modes string maps: a
// handful of slots scanned linearly beats three map lookups per
// operation, and a grant appends one record with no allocation.
type lockSlot struct {
	ent    intern.ID
	mode   lock.Mode
	heldAt int
	copy   int64
}

// tstate is the runtime state of one registered transaction.
type tstate struct {
	id txn.ID
	// x is the program in executable form; every operand is an index.
	x *txn.Exec
	// writes is the program's write-interval analysis, built at Register
	// under SDG and Hybrid only (nil otherwise). Read-only after Register.
	writes *txn.Writes
	// ents[e] is the store's ID of x.Entities[e], resolved once per
	// distinct entity; entBuf backs it for up to eight entities.
	// Read-only after Register.
	ents   []intern.ID
	entBuf [8]intern.ID
	// order[pc] is the as-sent index of the pc-th op executed, under
	// Config.OrderLocks; nil when the program runs as sent. The program
	// stays indexed as sent. Read-only after Register.
	order []int32
	entry int64 // entry order (Theorem 2 partial order)

	status     Status
	pc         int
	stateIndex int64
	lockIndex  int

	// locals is indexed by the program's local slot (x.Locals); slots
	// holds the held locks in grant order, and lockStates one record per
	// lock request issued. A valid program locks each distinct entity
	// exactly once, so both are made at capacity len(x.Entities) at
	// Register and never grow: on slotBuf and stateBuf for up to eight
	// entities.
	locals     []int64
	slots      []lockSlot
	lockStates []lockStateRec
	slotBuf    [8]lockSlot
	stateBuf   [8]lockStateRec
	waitEntity string
	waitEnt    intern.ID
	// wake is the one-slot channel t's driver parks on while t waits
	// (StepResult.Wake). It is made at t's first wait and signalled at
	// the two points a waiter becomes runnable again: its request is
	// granted (finishGrant) or it is rolled back (rollbackTo, which
	// Abort also goes through).
	wake chan struct{}

	// pinned holds the lock-set entity IDs pinned in the paged store at
	// Register (empty on the memory backend). Pins keep those pages
	// resident so every store access on the step path — grants, reads,
	// installs are all against lock-set entities — is a buffer hit;
	// they are released at commit or abort. Partial rollback keeps
	// the transaction registered, so it keeps its pins.
	pinned []intern.ID

	unlocked bool // entered shrinking phase; never rolled back again
	// failed records that a step of t returned an error. Past its first
	// unlock such a transaction can neither roll back nor commit, so
	// Abort releases what it holds without installing (see Abort).
	failed       bool
	declaredLast bool
	// starveRounds counts deadlock resolutions this transaction's
	// current wait has survived (Wait.Starved); reset on grant and on
	// rollback.
	starveRounds int

	mcs *mcs.Copies
	sdg *sdg.Graph
	hyb *hybrid.State

	stats TxnStats
}

// Local implements value.Env for foreign expressions (value.IForeign):
// the current value of a declared local.
func (t *tstate) Local(name string) (int64, bool) {
	s, ok := slices.BinarySearch(t.x.Locals[:len(t.x.Init)], name)
	if !ok {
		return 0, false
	}
	return t.locals[s], true
}

// opIndex returns the as-sent index of t's next op.
func (t *tstate) opIndex() int {
	if t.order == nil {
		return t.pc
	}
	return int(t.order[t.pc])
}

// findSlot returns the slot for ent, or nil if not held.
func (t *tstate) findSlot(ent intern.ID) *lockSlot {
	for i := range t.slots {
		if t.slots[i].ent == ent {
			return &t.slots[i]
		}
	}
	return nil
}

// dropSlot removes ent's slot (order is not significant; name-sorted
// traversals sort on the fly).
func (t *tstate) dropSlot(ent intern.ID) {
	for i := range t.slots {
		if t.slots[i].ent == ent {
			t.slots[i] = t.slots[len(t.slots)-1]
			t.slots = t.slots[:len(t.slots)-1]
			return
		}
	}
}

// signalWake leaves one token on t's wake channel: t was waiting and
// is runnable again. It never blocks; a token already there covers
// this transition too, so no wake is lost.
func (t *tstate) signalWake() {
	select {
	case t.wake <- struct{}{}:
	default:
	}
}

// nameEnt pairs an entity's name with its intern ID for name-ordered
// release traversals (determinism requires name order, which is not ID
// order: "e10" < "e2" lexicographically).
type nameEnt struct {
	name string
	ent  intern.ID
}

// sortNameEnts sorts by name ascending. Insertion sort: the slices are
// one transaction's held set (a handful of elements) and this compiles
// without the closure allocation of sort.Slice.
func sortNameEnts(s []nameEnt) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j].name < s[j-1].name; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}

// TxnStats accumulates per-transaction outcomes.
type TxnStats struct {
	// OpsExecuted counts atomic operations executed, including ones
	// later discarded by rollback.
	OpsExecuted int64
	// OpsLost counts operations discarded by rollbacks (the paper's
	// summed rollback cost).
	OpsLost int64
	// Rollbacks counts rollback events; Restarts counts those that went
	// all the way to the initial state.
	Rollbacks int64
	Restarts  int64
	// Waits counts lock requests that had to wait.
	Waits int64
}

// Stats accumulates system-wide outcomes.
type Stats struct {
	Steps     int64
	Grants    int64
	Waits     int64
	Deadlocks int64
	Rollbacks int64
	Restarts  int64
	OpsLost   int64
	Commits   int64
	// VictimsPerDeadlock accumulates victim-set sizes (for S/X
	// multi-cycle analysis).
	Victims int64
	// Wounds and Dies count prevention-mode rollbacks (§3.3).
	Wounds int64
	Dies   int64
	// Escalations counts starvation-limit wound-wait escalations.
	Escalations int64
	// Aborts counts transactions rolled back to their initial state and
	// removed by System.Abort (serving-layer deadlines, disconnects,
	// shutdown drain).
	Aborts int64
}

// System is the concurrency control. All methods are safe for
// concurrent use; every operation runs under one mutex, which models
// the paper's single database concurrency control monitoring all
// transactions.
type System struct {
	mu sync.Mutex

	cfg   Config
	store *entity.Store
	names *intern.Table // the store's interner, shared with locks
	locks *lock.Table   // also the concurrency graph G(T) (waitfor)

	txns   map[txn.ID]*tstate
	nextID txn.ID
	entry  int64

	// Scratch buffers reused across operations (guarded by mu). Callees
	// never re-enter the operation that owns a buffer, so each is in use
	// by at most one stack frame at a time.
	blockersBuf []txn.ID
	wait        Wait // the Resolver's view, reused across waits
	grantsBuf   []lock.GrantID
	copiesBuf   []hybrid.EntityCopy
	releaseBuf  []nameEnt
	writesBuf   []CommitWrite

	stats Stats
}

// New creates a System. It panics if cfg.Store is nil or if
// cfg.OrderLocks is set with a Strategy other than Total (programming
// errors, not runtime conditions).
func New(cfg Config) *System {
	if cfg.Store == nil {
		panic("core: Config.Store is required")
	}
	if cfg.OrderLocks && cfg.Strategy != Total {
		panic(fmt.Sprintf("core: Config.OrderLocks requires strategy total, not %v", cfg.Strategy))
	}
	names := cfg.Store.Interner()
	return &System{
		cfg:   cfg,
		store: cfg.Store,
		names: names,
		locks: lock.NewTableInterned(names),
		txns:  map[txn.ID]*tstate{},
	}
}

// Register adds an execution instance of prog and returns its ID: it
// compiles prog to its executable form (txn.Compile) and registers that
// (RegisterExec).
func (s *System) Register(prog *txn.Program) (txn.ID, error) {
	return s.RegisterExec(txn.Compile(prog))
}

// RegisterExec adds an execution instance of x and returns its ID. It
// is the node's only validator: a program that breaks a §2 static rule
// (x.Validate) or locks an undefined entity is rejected with an error
// and nothing is registered. Each distinct entity is resolved to its
// store ID once, by lookup: a rejected program leaves no trace in the
// store's interner.
//
// Registration computes only what the configured strategy reads: the
// write-interval analysis (txn.Writes) is built for SDG and Hybrid
// alone, and the execution order for Config.OrderLocks alone, before
// the transaction is published.
func (s *System) RegisterExec(x *txn.Exec) (txn.ID, error) {
	if err := x.Validate(); err != nil {
		return txn.None, err
	}
	t := &tstate{x: x, status: StatusRunning, waitEnt: intern.None}
	t.ents, t.slots, t.lockStates = t.entBuf[:0], t.slotBuf[:0], t.stateBuf[:0]
	if n := len(x.Entities); n > len(t.slotBuf) {
		t.slots, t.lockStates = make([]lockSlot, 0, n), make([]lockStateRec, 0, n)
	}
	for _, name := range x.Entities {
		id, ok := s.names.Lookup(name)
		if !ok {
			id = intern.None
		}
		t.ents = append(t.ents, id)
	}
	if s.cfg.Strategy == SDG || s.cfg.Strategy == Hybrid {
		t.writes = x.Writes()
	}
	if s.cfg.OrderLocks {
		t.order = lockOrder(x, t.ents)
	}
	t.locals = slices.Clone(x.Init)
	s.mu.Lock()
	defer s.mu.Unlock()
	s.nextID++
	s.entry++
	t.id, t.entry = s.nextID, s.entry
	switch s.cfg.Strategy {
	case MCS:
		t.mcs = mcs.NewSlots(s.names, x.Locals[:len(x.Init)], x.Init)
	case SDG:
		t.sdg = sdg.New()
	case Hybrid:
		budget := s.cfg.HybridBudget
		if budget < 0 {
			budget = 0
		}
		t.hyb = hybrid.New(t.writes, budget, s.cfg.HybridAllocator)
		t.sdg = t.hyb.SDG()
	}
	if err := s.admitLockSet(t); err != nil {
		return txn.None, err
	}
	s.txns[t.id] = t
	s.emit(Event{Kind: EventRegister, Txn: t.id, Detail: x.Name})
	return t.id, nil
}

// lockOrder returns the execution order of x under Config.OrderLocks:
// the as-sent indexes of its lock requests sorted by entity ID, then
// those of its other ops as sent. It returns nil, and allocates
// nothing, when the lock requests already lead in ascending ID order,
// as every program that takes one lock first does. IDs are distinct: a
// valid program locks an entity at most once.
func lockOrder(x *txn.Exec, ents []intern.ID) []int32 {
	ops := x.Ops
	isLock := func(o txn.ExecOp) bool { return o.Kind.IsLockRequest() }
	lead := 0
	for lead < len(ops) && isLock(ops[lead]) &&
		(lead == 0 || ents[ops[lead-1].Ent] < ents[ops[lead].Ent]) {
		lead++
	}
	if !slices.ContainsFunc(ops[lead:], isLock) {
		return nil
	}
	order := make([]int32, 0, len(ops))
	for i, o := range ops {
		if isLock(o) {
			order = append(order, int32(i))
		}
	}
	slices.SortFunc(order, func(a, b int32) int { return cmp.Compare(ents[ops[a].Ent], ents[ops[b].Ent]) })
	for i, o := range ops {
		if !isLock(o) {
			order = append(order, int32(i))
		}
	}
	return order
}

// admitLockSet makes one pass over t's distinct entities, which in a
// valid program are exactly its lock set. It verifies every one exists,
// so execution cannot fail mid-flight on an undefined one (checked per
// registration, not per program: the store's defined set can change via
// Restore). On the paged backend it also pins each entity's page
// resident, so no later step faults: every engine store access (grant
// copies, shared reads, installs) is against a lock-set entity. The
// undefined entity reported is the name-smallest, and no pin survives an
// error. Caller holds s.mu.
func (s *System) admitLockSet(t *tstate) error {
	paged := s.store.Paged()
	if paged {
		t.pinned = make([]intern.ID, 0, len(t.ents))
	}
	missing := ""
	for e, ent := range t.ents {
		name := t.x.Entities[e]
		// A name the interner lacks resolved to intern.None, which no
		// store defines.
		if _, ok := s.store.GetID(ent); !ok {
			if missing == "" || name < missing {
				missing = name
			}
			continue
		}
		if paged && missing == "" {
			if err := s.store.PinID(ent); err != nil {
				s.unpinAll(t)
				return fmt.Errorf("core: program %s pin %q: %w", t.x.Name, name, err)
			}
			t.pinned = append(t.pinned, ent)
		}
	}
	if missing != "" {
		s.unpinAll(t)
		return fmt.Errorf("core: program %s locks undefined entity %q", t.x.Name, missing)
	}
	return nil
}

// unpinAll releases every page pin t holds (no-op on the memory
// backend, where t.pinned is never populated). Called at commit and
// abort — the two points a transaction leaves the active set.
func (s *System) unpinAll(t *tstate) {
	for _, ent := range t.pinned {
		s.store.UnpinID(ent)
	}
	t.pinned = t.pinned[:0]
}

// MustRegister is Register that panics on error (fixtures and tests).
func (s *System) MustRegister(prog *txn.Program) txn.ID {
	id, err := s.Register(prog)
	if err != nil {
		panic(err)
	}
	return id
}

func (s *System) get(id txn.ID) (*tstate, error) {
	t, ok := s.txns[id]
	if !ok {
		return nil, fmt.Errorf("core: unknown transaction %v", id)
	}
	return t, nil
}

func (s *System) emit(e Event) {
	if s.cfg.OnEvent != nil {
		s.cfg.OnEvent(e)
	}
}
