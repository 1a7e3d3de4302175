// Package shard composes N independent core.System instances into one
// core.Engine — the paper's §3.3 per-site architecture applied to a
// single process. Each shard keeps its own lock table, concurrency
// graph and deadlock detection under its own mutex, so lock traffic on
// disjoint entity sets runs in parallel instead of serializing on one
// big engine lock.
//
// Entities are partitioned by hash, but the partition is conflict
// driven rather than static: a routing directory pins every entity of a
// running transaction's lock set to that transaction's shard for as
// long as the transaction is active. A new transaction whose lock set
// touches pinned entities is co-located with them; one whose entities
// are currently pinned to two or more different shards cannot be placed
// yet and queues in registration order (§3.3's timestamp rule applied
// at the shard boundary: older claims are admitted first, and a queued
// claim fences later claims that share an entity with it). Because any
// two transactions that can ever conflict are therefore on the same
// shard at the same time, every wait — and so every deadlock — is
// shard-local, single-shard detection is complete, and partial rollback
// applies within the shard exactly as in the unsharded engine.
//
// Queued claims hold no pins, so placement can never deadlock: pins
// only drain (on commit and abort), and the queue head is always
// admissible once its entities' pins are released. Events from all
// shards are remapped to global transaction IDs and merged into one
// ordered stream, and per-shard history recorders share one logical
// clock (history.Clock), so the serializability oracle and the trace
// tooling observe the sharded engine exactly as they would a single
// System.
package shard

import (
	"fmt"
	"hash/fnv"
	"sort"
	"sync"

	"partialrollback/internal/core"
	"partialrollback/internal/deadlock"
	"partialrollback/internal/entity"
	"partialrollback/internal/history"
	"partialrollback/internal/txn"
)

// claimState tracks a transaction's routing lifecycle.
type claimState int

const (
	// statePending: registered, but its lock set could not be placed on
	// one shard yet; queued for admission.
	statePending claimState = iota
	// statePlaced: registered on its shard.
	statePlaced
)

// binding locates a transaction inside a shard.
type binding struct {
	shard int
	local txn.ID
}

// tmeta is the engine's routing metadata for one transaction.
type tmeta struct {
	prog *txn.Program
	// analysis is prog's validated analysis, handed to the shard's
	// System so registration validates and analyses the program once.
	analysis *txn.Analysis
	lockSet  []string
	state    claimState
	shard    int
	local    txn.ID
	// pinned reports whether the transaction's lock set currently holds
	// pins (placed and not yet committed/aborted).
	pinned bool
}

// pin records which shard an entity is pinned to and by how many active
// transactions.
type pin struct {
	shard int
	refs  int
}

// admission is a queued claim whose placement has been decided (pins
// taken) but whose shard registration is still to be performed.
type admission struct {
	gid      txn.ID
	shard    int
	prog     *txn.Program
	analysis *txn.Analysis
}

// Engine is a sharded core.Engine over N core.System instances sharing
// one entity store. All methods are safe for concurrent use.
//
// Lock ordering (outer to inner): regMu → mu; any shard's internal
// mutex (entered by calling into a core.System) → mapMu → emitMu.
// regMu/mu are never held across a call into a shard, and mapMu is
// never held across one either, because shard event callbacks take
// mapMu/emitMu while the shard mutex is held.
type Engine struct {
	n      int
	cfg    core.Config
	store  *entity.Store
	shards []*core.System
	clock  *history.Clock

	onEvent func(core.Event)

	// regMu serializes placement and admission so transactions reach
	// their shards in registration order.
	regMu sync.Mutex

	// mu guards the routing directory.
	mu            sync.Mutex
	pins          map[string]*pin
	queue         []txn.ID // pending global IDs, registration order
	nextID        txn.ID
	meta          map[txn.ID]*tmeta
	pendingAborts int64

	// mapMu guards the global↔local ID maps.
	mapMu sync.RWMutex
	g2l   map[txn.ID]binding
	l2g   []map[txn.ID]txn.ID

	// emitMu serializes the merged event stream.
	emitMu sync.Mutex
}

var _ core.Engine = (*Engine)(nil)

// New creates an Engine with n shards configured from cfg. cfg.OnEvent
// receives the merged, globally-ID'd event stream; cfg.HistoryClock is
// ignored (the engine installs its own shared clock). It panics if
// n < 1 or cfg.Store is nil (programming errors).
func New(n int, cfg core.Config) *Engine {
	if n < 1 {
		panic("shard: need at least one shard")
	}
	if cfg.Store == nil {
		panic("shard: Config.Store is required")
	}
	e := &Engine{
		n:       n,
		cfg:     cfg,
		store:   cfg.Store,
		shards:  make([]*core.System, n),
		onEvent: cfg.OnEvent,
		pins:    map[string]*pin{},
		meta:    map[txn.ID]*tmeta{},
		g2l:     map[txn.ID]binding{},
		l2g:     make([]map[txn.ID]txn.ID, n),
	}
	if cfg.RecordHistory {
		e.clock = &history.Clock{}
	}
	for k := 0; k < n; k++ {
		e.l2g[k] = map[txn.ID]txn.ID{}
		sub := cfg
		sub.HistoryClock = e.clock
		// cfg.CommitLog, if any, is shared by every shard: one append
		// queue, one sequence counter.
		if e.onEvent != nil {
			sub.OnEvent = e.shardEventSink(k)
		} else {
			sub.OnEvent = nil
		}
		e.shards[k] = core.New(sub)
	}
	return e
}

// shardEventSink remaps shard k's events to global transaction IDs and
// forwards them to the merged stream. The shard's own EventRegister is
// dropped: it fires before the local→global mapping exists, so the
// engine emits its own registration event once the binding is recorded.
func (e *Engine) shardEventSink(k int) func(core.Event) {
	return func(ev core.Event) {
		if ev.Kind == core.EventRegister {
			return
		}
		e.mapMu.RLock()
		m := e.l2g[k]
		ev.Txn = mapID(m, ev.Txn)
		if ev.Deadlock != nil {
			ev.Deadlock = remapReport(m, ev.Deadlock)
		}
		e.mapMu.RUnlock()
		e.emit(ev)
	}
}

func (e *Engine) emit(ev core.Event) {
	if e.onEvent == nil {
		return
	}
	e.emitMu.Lock()
	e.onEvent(ev)
	e.emitMu.Unlock()
}

func mapID(m map[txn.ID]txn.ID, id txn.ID) txn.ID {
	if g, ok := m[id]; ok {
		return g
	}
	return id
}

// remapReport rewrites a deadlock report's transaction IDs into a copy;
// the original is shared with the emitting shard and must not be
// mutated.
func remapReport(m map[txn.ID]txn.ID, r *core.DeadlockReport) *core.DeadlockReport {
	out := &core.DeadlockReport{
		Requester: mapID(m, r.Requester),
		Entity:    r.Entity,
		Cycles:    make([][]txn.ID, len(r.Cycles)),
		Victims:   append(r.Victims[:0:0], r.Victims...),
	}
	for i, c := range r.Cycles {
		cc := make([]txn.ID, len(c))
		for j, id := range c {
			cc[j] = mapID(m, id)
		}
		out.Cycles[i] = cc
	}
	if r.Candidates != nil {
		out.Candidates = make(map[txn.ID]deadlock.Victim, len(r.Candidates))
		for id, v := range r.Candidates {
			v.Txn = mapID(m, v.Txn)
			out.Candidates[mapID(m, id)] = v
		}
	}
	for i := range out.Victims {
		out.Victims[i].Txn = mapID(m, out.Victims[i].Txn)
	}
	return out
}

// Register validates prog, allocates a global ID, and either places the
// transaction on a shard immediately or queues it behind conflicting
// older registrations (see the package comment). Queued transactions
// report StatusWaiting and become runnable when an EventAdmit is
// emitted for them. The program is validated and analysed once, here;
// the shard's System registers it with that analysis, and rejections
// carry the same error text as core.System.Register.
func (e *Engine) Register(prog *txn.Program) (txn.ID, error) {
	a, err := txn.ValidateAnalyze(prog)
	if err != nil {
		return txn.None, err
	}
	lockSet := a.LockSet()
	for _, ent := range lockSet {
		if !e.store.Exists(ent) {
			return txn.None, fmt.Errorf("core: program %s locks undefined entity %q", prog.Name, ent)
		}
	}

	e.regMu.Lock()
	defer e.regMu.Unlock()

	e.mu.Lock()
	e.nextID++
	gid := e.nextID
	m := &tmeta{prog: prog, analysis: a, lockSet: lockSet, state: statePending}
	e.meta[gid] = m
	target, placeable := -1, false
	if !e.fencedLocked(lockSet, e.queue) {
		target, placeable = e.pinTargetLocked(lockSet)
	}
	if placeable {
		e.pinLocked(lockSet, target)
		m.pinned = true
		m.shard = target
	} else {
		e.queue = append(e.queue, gid)
	}
	e.mu.Unlock()

	if placeable {
		lid, err := e.shards[target].RegisterAnalyzed(prog, a)
		if err != nil {
			// Cannot happen in practice: the program was validated and
			// its lock set existence-checked above, which is everything
			// System.Register verifies. Undo the routing state anyway.
			e.mu.Lock()
			e.unpinLocked(lockSet)
			delete(e.meta, gid)
			admitted := e.admitLocked()
			e.mu.Unlock()
			e.place(admitted)
			return txn.None, err
		}
		e.bind(gid, target, lid)
	}
	e.emit(core.Event{Kind: core.EventRegister, Txn: gid, Detail: prog.Name})
	return gid, nil
}

// MustRegister is Register that panics on error (fixtures and tests).
func (e *Engine) MustRegister(prog *txn.Program) txn.ID {
	id, err := e.Register(prog)
	if err != nil {
		panic(err)
	}
	return id
}

// fencedLocked reports whether lockSet shares an entity with any claim
// queued ahead of it (admission stays in registration order).
func (e *Engine) fencedLocked(lockSet []string, ahead []txn.ID) bool {
	for _, qid := range ahead {
		if shareEntity(e.meta[qid].lockSet, lockSet) {
			return true
		}
	}
	return false
}

// pinTargetLocked returns the shard lockSet can be placed on: the one
// shard its pinned entities live on, or the hash vote when none are
// pinned. It fails when pins span two or more shards.
func (e *Engine) pinTargetLocked(lockSet []string) (int, bool) {
	target := -1
	for _, ent := range lockSet {
		if p, ok := e.pins[ent]; ok {
			if target == -1 {
				target = p.shard
			} else if target != p.shard {
				return -1, false
			}
		}
	}
	if target == -1 {
		target = e.hashVote(lockSet)
	}
	return target, true
}

// hashVote picks the default shard for an unpinned lock set: each
// entity votes for its FNV-32a hash modulo n; most votes wins, ties go
// to the lowest index. Single-entity transactions land exactly on their
// entity's hash shard, keeping the partition stable under uniform load.
func (e *Engine) hashVote(lockSet []string) int {
	if e.n == 1 || len(lockSet) == 0 {
		return 0
	}
	votes := make([]int, e.n)
	for _, ent := range lockSet {
		h := fnv.New32a()
		h.Write([]byte(ent))
		votes[int(h.Sum32())%e.n]++
	}
	best := 0
	for k := 1; k < e.n; k++ {
		if votes[k] > votes[best] {
			best = k
		}
	}
	return best
}

func shareEntity(a, b []string) bool {
	// Both slices are sorted (txn.Analysis.LockSet).
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] == b[j]:
			return true
		case a[i] < b[j]:
			i++
		default:
			j++
		}
	}
	return false
}

func (e *Engine) pinLocked(lockSet []string, shard int) {
	for _, ent := range lockSet {
		if p, ok := e.pins[ent]; ok {
			p.refs++
		} else {
			e.pins[ent] = &pin{shard: shard, refs: 1}
		}
	}
}

func (e *Engine) unpinLocked(lockSet []string) {
	for _, ent := range lockSet {
		if p, ok := e.pins[ent]; ok {
			p.refs--
			if p.refs == 0 {
				delete(e.pins, ent)
			}
		}
	}
}

// bind records the global↔local mapping after a shard registration.
func (e *Engine) bind(gid txn.ID, shard int, lid txn.ID) {
	e.mapMu.Lock()
	e.g2l[gid] = binding{shard: shard, local: lid}
	e.l2g[shard][lid] = gid
	e.mapMu.Unlock()
	e.mu.Lock()
	m := e.meta[gid]
	m.shard, m.local, m.state = shard, lid, statePlaced
	e.mu.Unlock()
}

// unbind drops a transaction's maps after abort or forget. The
// local→global entry is kept when history is recorded: the merged
// recorder still needs it to remap committed episodes.
func (e *Engine) unbind(gid txn.ID) {
	e.mapMu.Lock()
	if b, ok := e.g2l[gid]; ok {
		delete(e.g2l, gid)
		if !e.cfg.RecordHistory {
			delete(e.l2g[b.shard], b.local)
		}
	}
	e.mapMu.Unlock()
	e.mu.Lock()
	delete(e.meta, gid)
	e.mu.Unlock()
}

func (e *Engine) bindingOf(gid txn.ID) (binding, bool) {
	e.mapMu.RLock()
	b, ok := e.g2l[gid]
	e.mapMu.RUnlock()
	return b, ok
}

// admitLocked scans the pending queue in order, taking pins for every
// claim that became placeable and returning the resulting admissions
// for the caller to register (outside mu, under regMu).
func (e *Engine) admitLocked() []admission {
	if len(e.queue) == 0 {
		return nil
	}
	var out []admission
	rest := e.queue[:0]
	for _, gid := range e.queue {
		m := e.meta[gid]
		if !e.fencedLocked(m.lockSet, rest) {
			if target, ok := e.pinTargetLocked(m.lockSet); ok {
				e.pinLocked(m.lockSet, target)
				m.pinned = true
				m.shard = target
				out = append(out, admission{gid: gid, shard: target, prog: m.prog, analysis: m.analysis})
				continue
			}
		}
		rest = append(rest, gid)
	}
	e.queue = rest
	return out
}

// place performs the shard registrations for admitted claims and emits
// their EventAdmit. Caller holds regMu (and not mu).
func (e *Engine) place(admitted []admission) {
	for _, a := range admitted {
		lid, err := e.shards[a.shard].RegisterAnalyzed(a.prog, a.analysis)
		if err != nil {
			// The claim was validated and existence-checked when it was
			// first registered, and entities are never removed from the
			// store, so a failure here means corrupted bookkeeping.
			panic(fmt.Sprintf("shard: admitting %v failed: %v", a.gid, err))
		}
		e.bind(a.gid, a.shard, lid)
		e.emit(core.Event{Kind: core.EventAdmit, Txn: a.gid, Detail: a.prog.Name})
	}
}

// release drops gid's pins (idempotently) and admits any queued claims
// that became placeable.
func (e *Engine) release(gid txn.ID) {
	e.regMu.Lock()
	defer e.regMu.Unlock()
	e.mu.Lock()
	m := e.meta[gid]
	var admitted []admission
	if m != nil && m.pinned {
		m.pinned = false
		e.unpinLocked(m.lockSet)
		admitted = e.admitLocked()
	}
	e.mu.Unlock()
	e.place(admitted)
}

// Step executes the next atomic operation of id on its shard. A queued
// (not yet placed) transaction reports Blocked without effect. When the
// step commits the transaction, its pins are released and queued claims
// are admitted before Step returns, so a sequential driver observes the
// newly-runnable transactions immediately.
func (e *Engine) Step(id txn.ID) (core.StepResult, error) {
	res, _, err := e.StepBurst(id, 1)
	return res, err
}

// StepBurst executes up to max consecutive atomic operations of id on
// its shard under a single shard-lock acquisition (see
// core.System.StepBurst). A transaction still queued for placement is
// the sharded engine's analogue of a shard handoff in progress: it
// reports Blocked with zero steps, exactly as Step does. A burst never
// crosses shards — a transaction is pinned to one shard for its whole
// life — so no cross-shard lock is ever held.
func (e *Engine) StepBurst(id txn.ID, max int) (core.StepResult, int, error) {
	b, placed := e.bindingOf(id)
	if !placed {
		e.mu.Lock()
		_, known := e.meta[id]
		e.mu.Unlock()
		if !known {
			return core.StepResult{}, 0, fmt.Errorf("core: unknown transaction %v", id)
		}
		return core.StepResult{Outcome: core.Blocked}, 0, nil
	}
	res, steps, err := e.shards[b.shard].StepBurst(b.local, max)
	if err != nil {
		return res, steps, err
	}
	if res.Deadlock != nil {
		e.mapMu.RLock()
		res.Deadlock = remapReport(e.l2g[b.shard], res.Deadlock)
		e.mapMu.RUnlock()
	}
	if res.Outcome == core.Committed {
		e.release(id)
	}
	return res, steps, nil
}

// Status returns id's execution status; queued transactions are
// waiting (for placement rather than for a lock).
func (e *Engine) Status(id txn.ID) (core.Status, error) {
	if b, ok := e.bindingOf(id); ok {
		return e.shards[b.shard].Status(b.local)
	}
	e.mu.Lock()
	_, known := e.meta[id]
	e.mu.Unlock()
	if !known {
		return 0, fmt.Errorf("core: unknown transaction %v", id)
	}
	return core.StatusWaiting, nil
}

// Abort rolls id back and removes it. Aborting a queued claim simply
// removes it from the admission queue (it holds no locks and no pins).
func (e *Engine) Abort(id txn.ID) error {
	for {
		if b, ok := e.bindingOf(id); ok {
			if err := e.shards[b.shard].Abort(b.local); err != nil {
				return err
			}
			e.release(id)
			e.unbind(id)
			return nil
		}
		e.regMu.Lock()
		e.mu.Lock()
		m, known := e.meta[id]
		if !known {
			e.mu.Unlock()
			e.regMu.Unlock()
			return fmt.Errorf("core: unknown transaction %v", id)
		}
		if m.state != statePending {
			// Placed while we acquired the locks; go around and abort it
			// on its shard.
			e.mu.Unlock()
			e.regMu.Unlock()
			continue
		}
		for i, qid := range e.queue {
			if qid == id {
				e.queue = append(e.queue[:i], e.queue[i+1:]...)
				break
			}
		}
		delete(e.meta, id)
		e.pendingAborts++
		admitted := e.admitLocked() // removal can unfence later claims
		e.mu.Unlock()
		e.place(admitted)
		e.regMu.Unlock()
		e.emit(core.Event{Kind: core.EventAbort, Txn: id, Detail: m.prog.Name})
		return nil
	}
}

// Forget removes a committed transaction's bookkeeping.
func (e *Engine) Forget(id txn.ID) error {
	b, ok := e.bindingOf(id)
	if !ok {
		e.mu.Lock()
		_, known := e.meta[id]
		e.mu.Unlock()
		if !known {
			return fmt.Errorf("core: unknown transaction %v", id)
		}
		return fmt.Errorf("core: cannot forget %v: status %v", id, core.StatusWaiting)
	}
	if err := e.shards[b.shard].Forget(b.local); err != nil {
		return err
	}
	e.unbind(id)
	return nil
}

// Locals returns a copy of id's local-variable values; for a queued
// transaction these are its program's initial values.
func (e *Engine) Locals(id txn.ID) (map[string]int64, error) {
	if b, ok := e.bindingOf(id); ok {
		return e.shards[b.shard].Locals(b.local)
	}
	e.mu.Lock()
	m, known := e.meta[id]
	e.mu.Unlock()
	if !known {
		return nil, fmt.Errorf("core: unknown transaction %v", id)
	}
	out := make(map[string]int64, len(m.prog.Locals))
	for k, v := range m.prog.Locals {
		out[k] = v
	}
	return out, nil
}

// TxnStatsOf returns a snapshot of id's counters (zero for queued or
// unknown transactions, mirroring System.TxnStatsOf).
func (e *Engine) TxnStatsOf(id txn.ID) core.TxnStats {
	if b, ok := e.bindingOf(id); ok {
		return e.shards[b.shard].TxnStatsOf(b.local)
	}
	return core.TxnStats{}
}

// Runnable returns the global IDs of transactions in StatusRunning,
// sorted. Queued claims are waiting and therefore excluded.
func (e *Engine) Runnable() []txn.ID {
	locals := make([][]txn.ID, e.n)
	for k, sh := range e.shards {
		locals[k] = sh.Runnable()
	}
	var out []txn.ID
	e.mapMu.RLock()
	for k, ids := range locals {
		for _, lid := range ids {
			out = append(out, mapID(e.l2g[k], lid))
		}
	}
	e.mapMu.RUnlock()
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// IDs returns all registered (and not yet forgotten/aborted) global
// transaction IDs, sorted.
func (e *Engine) IDs() []txn.ID {
	e.mu.Lock()
	out := make([]txn.ID, 0, len(e.meta))
	for id := range e.meta {
		out = append(out, id)
	}
	e.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// AllCommitted reports whether every registered transaction has
// committed (queued claims have not).
func (e *Engine) AllCommitted() bool {
	e.mu.Lock()
	queued := len(e.queue) > 0
	e.mu.Unlock()
	if queued {
		return false
	}
	for _, sh := range e.shards {
		if !sh.AllCommitted() {
			return false
		}
	}
	return true
}

// Stats sums the shards' counters; aborts of still-queued claims are
// counted too.
func (e *Engine) Stats() core.Stats {
	var total core.Stats
	for _, sh := range e.shards {
		total = addStats(total, sh.Stats())
	}
	e.mu.Lock()
	total.Aborts += e.pendingAborts
	e.mu.Unlock()
	return total
}

func addStats(a, b core.Stats) core.Stats {
	a.Steps += b.Steps
	a.Grants += b.Grants
	a.Waits += b.Waits
	a.Deadlocks += b.Deadlocks
	a.Rollbacks += b.Rollbacks
	a.Restarts += b.Restarts
	a.OpsLost += b.OpsLost
	a.Commits += b.Commits
	a.Victims += b.Victims
	a.Wounds += b.Wounds
	a.Dies += b.Dies
	a.Escalations += b.Escalations
	a.Aborts += b.Aborts
	return a
}

// Recorder returns a merged snapshot of the shards' committed
// histories on the shared clock, with episodes remapped to global IDs,
// or nil when history recording is disabled. Each call builds a fresh
// snapshot; take it after the transactions of interest have committed.
func (e *Engine) Recorder() *history.Recorder {
	if !e.cfg.RecordHistory {
		return nil
	}
	locals := make([][]history.Episode, e.n)
	for k, sh := range e.shards {
		locals[k] = sh.Recorder().Committed()
	}
	var eps []history.Episode
	e.mapMu.RLock()
	for k, list := range locals {
		for _, ep := range list {
			ep.Txn = mapID(e.l2g[k], ep.Txn)
			eps = append(eps, ep)
		}
	}
	e.mapMu.RUnlock()
	return history.Merged(eps)
}

// CheckInvariants cross-checks every shard's internal consistency plus
// the routing directory: pin refcounts must equal the active
// transactions' lock sets, no entity may be pinned to two shards, and
// every queued claim must still be pending.
func (e *Engine) CheckInvariants() error {
	for k, sh := range e.shards {
		if err := sh.CheckInvariants(); err != nil {
			return fmt.Errorf("shard %d: %w", k, err)
		}
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	want := map[string]pin{}
	for gid, m := range e.meta {
		if !m.pinned {
			continue
		}
		for _, ent := range m.lockSet {
			p, ok := want[ent]
			if !ok {
				want[ent] = pin{shard: m.shard, refs: 1}
				continue
			}
			if p.shard != m.shard {
				return fmt.Errorf("shard: entity %q pinned to both shard %d and shard %d (txn %v)",
					ent, p.shard, m.shard, gid)
			}
			p.refs++
			want[ent] = p
		}
	}
	if len(want) != len(e.pins) {
		return fmt.Errorf("shard: %d pinned entities, routing directory has %d", len(want), len(e.pins))
	}
	for ent, p := range e.pins {
		w, ok := want[ent]
		if !ok || w.shard != p.shard || w.refs != p.refs {
			return fmt.Errorf("shard: pin mismatch for %q: directory %+v, recomputed %+v", ent, *p, w)
		}
	}
	for _, gid := range e.queue {
		m, ok := e.meta[gid]
		if !ok {
			return fmt.Errorf("shard: queued claim %v has no metadata", gid)
		}
		if m.state != statePending {
			return fmt.Errorf("shard: queued claim %v is %d, want pending", gid, m.state)
		}
		if m.pinned {
			return fmt.Errorf("shard: queued claim %v holds pins", gid)
		}
	}
	return nil
}
