// Package partialrollback is a Go implementation of the deadlock-removal
// scheme of Fussell, Kedem & Silberschatz, "Deadlock Removal Using
// Partial Rollback in Database Systems" (SIGMOD 1981): a two-phase
// locking concurrency control that, instead of aborting and restarting
// a deadlock victim, rolls it back only to the latest state at which it
// no longer holds a contested lock.
//
// The package is a facade over the implementation packages and is the
// supported public API:
//
//   - build transaction programs with NewProgram (a fluent Builder over
//     lock/read/write/compute operations and an integer expression
//     language: C, L, Add, Sub, Mul, ...);
//   - create a database with NewStore and a System with New, choosing a
//     rollback Strategy (Total restart, the multi-copy MCS, or the
//     single-copy SDG guided by the state-dependency graph) and a
//     Resolver for waits (Detect with a victim Policy — MinCost,
//     OrderedMinCost, Requester, ... — or WoundWait or WaitDie);
//   - drive execution yourself one operation at a time with
//     System.Step, or run a batch of transactions concurrently, one
//     goroutine each, with Run.
//
// See README.md for a walkthrough, DESIGN.md for the paper-to-code map,
// and EXPERIMENTS.md for the reproduced results.
package partialrollback

import (
	"io"

	"partialrollback/internal/client"
	"partialrollback/internal/core"
	"partialrollback/internal/deadlock"
	"partialrollback/internal/entity"
	"partialrollback/internal/history"
	"partialrollback/internal/hybrid"
	"partialrollback/internal/optimizer"
	"partialrollback/internal/runtime"
	"partialrollback/internal/server"
	"partialrollback/internal/txn"
	"partialrollback/internal/value"
	"partialrollback/internal/wal"
)

// Core engine types.
type (
	// System is the concurrency control.
	System = core.System
	// Config configures a System.
	Config = core.Config
	// Strategy selects the rollback implementation.
	Strategy = core.Strategy
	// Resolver answers a lock request that must wait: Detect,
	// WoundWait or WaitDie.
	Resolver = core.Resolver
	// Stats holds system-wide counters.
	Stats = core.Stats
	// TxnStats holds per-transaction counters.
	TxnStats = core.TxnStats
	// StepResult reports one Step.
	StepResult = core.StepResult
	// Outcome classifies a Step.
	Outcome = core.Outcome
	// Event is an engine occurrence.
	Event = core.Event
	// DeadlockReport describes one resolved deadlock.
	DeadlockReport = core.DeadlockReport
	// Status is a transaction's execution status.
	Status = core.Status
)

// Rollback strategies (§4, plus the paper's closing extension).
const (
	// Total restarts victims from scratch — the classical baseline.
	Total = core.Total
	// MCS keeps per-lock-state value stacks; rollback to any lock state.
	MCS = core.MCS
	// SDG keeps one copy per entity; rollback to well-defined states.
	SDG = core.SDG
	// Hybrid is SDG plus a bounded budget of checkpoints (extra copies)
	// that make chosen lock states restorable (Config.HybridBudget).
	Hybrid = core.Hybrid
)

// Step outcomes.
const (
	Progressed       = core.Progressed
	Blocked          = core.Blocked
	BlockedDeadlock  = core.BlockedDeadlock
	StillWaiting     = core.StillWaiting
	Committed        = core.Committed
	AlreadyCommitted = core.AlreadyCommitted
	SelfRolledBack   = core.SelfRolledBack
)

// Transaction statuses.
const (
	StatusRunning   = core.StatusRunning
	StatusWaiting   = core.StatusWaiting
	StatusCommitted = core.StatusCommitted
)

// New creates a System over cfg.Store. A nil cfg.Resolver becomes
// Detect{}: detection with the OrderedMinCost policy.
func New(cfg Config) *System {
	if cfg.Resolver == nil {
		cfg.Resolver = Detect{}
	}
	return core.New(cfg)
}

// Recorder is the serializability oracle: it records lock-hold
// episodes from engine events and checks that the committed history is
// conflict-serializable (CheckSerializable, SerialOrder).
type Recorder = history.Recorder

// NewRecorder returns an empty Recorder; subscribe it with
// Config{OnEvent: rec.OnEvent} (or rec.Hook(next) to keep another
// hook). RunOptions.RecordHistory does this for RunConcurrent.
func NewRecorder() *Recorder { return history.NewRecorder() }

// Transaction programs.
type (
	// Program is an immutable transaction template.
	Program = txn.Program
	// Builder assembles a Program.
	Builder = txn.Builder
	// Op is one atomic operation.
	Op = txn.Op
	// TxnID identifies a registered transaction.
	TxnID = txn.ID
)

// NewProgram starts building a transaction program.
func NewProgram(name string) *Builder { return txn.NewProgram(name) }

// Validate checks a program against the model's static rules.
func Validate(p *Program) error { return txn.Validate(p) }

// IsThreePhase reports whether a program has §5's three-phase form.
func IsThreePhase(p *Program) bool { return txn.IsThreePhase(p) }

// Database store.
type (
	// Store is the global entity map.
	Store = entity.Store
	// Constraint is a consistency predicate over the database.
	Constraint = entity.Constraint
)

// NewStore creates a store with the given initial entity values.
func NewStore(initial map[string]int64) *Store { return entity.NewStore(initial) }

// NewUniformStore creates n entities "<prefix>0".."<prefix>n-1" = init.
func NewUniformStore(prefix string, n int, init int64) *Store {
	return entity.NewUniformStore(prefix, n, init)
}

// PagedConfig configures the paged (beyond-RAM) store backend: a heap
// file of fixed-size pages plus a bounded pinning buffer pool.
type PagedConfig = entity.PagedConfig

// NewPagedStore creates a store over the paged backend; the entity set
// may exceed RAM. Close the store on shutdown.
func NewPagedStore(initial map[string]int64, cfg PagedConfig) (*Store, error) {
	return entity.NewPagedStore(initial, cfg)
}

// SumConstraint asserts the listed entities always sum to want.
func SumConstraint(name string, want int64, entities ...string) Constraint {
	return entity.SumConstraint(name, want, entities...)
}

// Conflict resolvers (§3): detection with a victim policy, and §3.3's
// timestamp rules, which keep detection as their safety net.
type (
	// Detect rolls back the victims its Policy picks when a wait closes
	// a cycle. The default.
	Detect = deadlock.Detect
	// WoundWait wounds younger holders; younger requesters wait.
	WoundWait = deadlock.WoundWait
	// WaitDie restarts younger requesters; older ones wait.
	WaitDie = deadlock.WaitDie
)

// Victim-selection policies (§3).
type (
	// Policy chooses deadlock victims.
	Policy = deadlock.Policy
	// Victim is one rollback decision.
	Victim = core.Victim
	// MinCost picks the cheapest cycle-breaking victim set (Figure 1);
	// subject to potentially infinite mutual preemption (Figure 2).
	MinCost = deadlock.MinCost
	// OrderedMinCost restricts victims per Theorem 2's entry order;
	// immune to mutual preemption. The default.
	OrderedMinCost = deadlock.OrderedMinCost
	// Requester always rolls back the conflict causer.
	Requester = deadlock.Requester
	// Youngest rolls back latest-entry participants first.
	Youngest = deadlock.Oldest
)

// Expression language for Write/Compute operations.
type Expr = value.Expr

// Expression constructors.
var (
	// C is a constant; L references a local variable.
	C = value.C
	L = value.L
	// Arithmetic over locals and constants.
	Add = value.Add
	Sub = value.Sub
	Mul = value.Mul
	Div = value.Div
	Mod = value.Mod
	Min = value.Min
	Max = value.Max
)

// Hybrid-strategy checkpoint allocators (paper's closing question).
type (
	// CheckpointAllocator chooses which lock states the Hybrid strategy
	// checkpoints within its budget.
	CheckpointAllocator = hybrid.Allocator
	// MinGapAllocator greedily repairs the destroyed states that most
	// reduce expected rollback overshoot. The default.
	MinGapAllocator = hybrid.MinGap
	// SpacedAllocator spreads checkpoints evenly over destroyed states.
	SpacedAllocator = hybrid.Spaced
)

// OptimizeResult reports a ClusterWrites transformation.
type OptimizeResult = optimizer.Result

// ClusterWrites rewrites a program so its writes execute as late as
// data dependencies allow (§5's compile-time optimization): the
// transformed program keeps every lock state well-defined under the
// single-copy strategy whenever the dependencies permit, and is
// verified-equivalent in meaning (see optimizer.Equivalent).
func ClusterWrites(p *Program) (OptimizeResult, error) {
	return optimizer.ClusterWrites(p)
}

// Write-ahead logging (durability substrate; see internal/wal).
type (
	// WALWriter appends checksummed install records to an io.Writer.
	WALWriter = wal.Writer
	// WALRecord is one logged installation.
	WALRecord = wal.Record
)

// NewWALWriter creates a log writer starting at sequence nextSeq (1 for
// a fresh log). Attach it to a Store with WALWriter.Attach so every
// committed value is logged before it becomes visible.
func NewWALWriter(w io.Writer, nextSeq uint64) *WALWriter {
	return wal.NewWriter(w, nextSeq)
}

// RecoverWAL replays a log over a store holding the initial database
// state; see wal.Recover for the damage-handling contract.
func RecoverWAL(r io.Reader, store *Store) (applied int, nextSeq uint64, damage error) {
	return wal.Recover(r, store)
}

// RunOptions configures RunConcurrent. A nil Resolver becomes Detect{},
// as in New.
type RunOptions = runtime.Options

// RunOutcome reports a completed concurrent run.
type RunOutcome = runtime.Outcome

// RunConcurrent executes the programs against store with one goroutine
// per transaction, blocking until every transaction commits.
func RunConcurrent(store *Store, programs []*Program, opt RunOptions) (*RunOutcome, error) {
	if opt.Resolver == nil {
		opt.Resolver = Detect{}
	}
	return runtime.Run(store, programs, opt)
}

// Network transaction service: serve a System over TCP and submit
// programs to it remotely (internal/server, internal/client; the wire
// protocol is documented in internal/wire). cmd/prserver is the
// ready-made server binary over the same API; examples/network embeds
// a server and three clients in one process.
type (
	// ServerConfig configures a network Server.
	ServerConfig = server.Config
	// Server serves transaction programs over TCP: Listen, then
	// Shutdown to drain.
	Server = server.Server
	// ClientConfig configures a network Client.
	ClientConfig = client.MuxConfig
	// Client submits programs to a Server over one multiplexed
	// connection, re-running them with jittered backoff when the server
	// rolls them back. Safe for concurrent use.
	Client = client.Mux
	// ClientResult reports a transaction the server committed.
	ClientResult = client.Result
)

// NewServer creates a network transaction server around a fresh engine.
func NewServer(cfg ServerConfig) *Server { return server.New(cfg) }

// NewClient creates a network client. No connection is made until the
// first request.
func NewClient(cfg ClientConfig) *Client { return client.NewMux(cfg) }

// ErrRolledBack matches client errors whose server code is retryable
// (the transaction was rolled back or refused transiently).
var ErrRolledBack = client.ErrRolledBack
