// Message-passing multi-site engine for §3.3.
//
// Unlike Run (which reuses the centralized engine and accounts costs),
// MsgRun actually distributes the system: every site owns a partition
// of the entities, runs its own lock table (which is also its
// concurrency graph), and communicates only by messages over a
// simulated network with configurable latency. No component ever reads
// another site's state directly.
//
// Deadlock handling realizes the paper's "a priori ordering of the
// sites" alternative: transactions acquire entities in non-decreasing
// site order, which makes cross-site cycles impossible (the standard
// resource-ordering argument applied to sites), so *every* deadlock is
// local to one site and "may be treated using the above means" — local
// detection plus partial rollback. Victims are rolled back at their
// home sites via rollback-request messages; in-flight grant/cancel
// races are resolved with per-transaction request epochs.
package dist

import (
	"cmp"
	"container/heap"
	"fmt"
	"slices"
	"sort"

	"partialrollback/internal/core"
	"partialrollback/internal/deadlock"
	"partialrollback/internal/entity"
	"partialrollback/internal/history"
	"partialrollback/internal/lock"
	"partialrollback/internal/mcs"
	"partialrollback/internal/sdg"
	"partialrollback/internal/sim"
	"partialrollback/internal/txn"
	"partialrollback/internal/value"
	"partialrollback/internal/waitfor"
)

// MsgConfig configures a message-passing run.
type MsgConfig struct {
	Topology Topology
	Strategy core.Strategy // Total, MCS or SDG
	// Latency is the virtual-time cost of one inter-site message.
	// Default 10 (a local step costs 1).
	Latency int64
	// MaxTime bounds virtual time (default 10M) to catch livelock.
	MaxTime int64
	// RecordHistory enables the serializability recorder.
	RecordHistory bool
	// DebugVictims prints each rollback request's victim, its lock
	// index for the contested entity, and the adjusted target.
	DebugVictims bool
}

// MsgMetrics accounts the distributed run.
type MsgMetrics struct {
	// Makespan is the virtual time at which the last transaction
	// committed.
	Makespan int64
	// Messages by kind (inter-site only; same-site interactions are
	// direct calls).
	LockRequests int64
	Grants       int64
	Releases     int64
	Cancels      int64
	Rollbacks    int64 // rollback-request messages
	// CopyShips counts entity values carried by messages (X grants and
	// installing releases between sites).
	CopyShips int64
	// Deadlocks and LostOps as in the centralized engine.
	Deadlocks int64
	LostOps   int64
	Commits   int64
	// PerSiteDeadlocks records where cycles were detected.
	PerSiteDeadlocks []int64
}

// Total returns all inter-site messages.
func (m MsgMetrics) Total() int64 {
	return m.LockRequests + m.Grants + m.Releases + m.Cancels + m.Rollbacks
}

// MsgResult is the outcome of a message-passing run.
type MsgResult struct {
	Metrics MsgMetrics
	// Recorder is non-nil when history recording was enabled.
	Recorder *history.Recorder
	// Store holds the final global values (merged from all sites).
	Store *entity.Store
}

// ---- network ----

type msgKind int

const (
	msgLockReq msgKind = iota
	msgGrant
	msgRelease  // release one entity (optionally installing a value)
	msgCancel   // retract a queued request
	msgRollback // ask a home site to roll a transaction back past an entity
	msgStep     // internal: schedule a transaction step at its home site
)

type message struct {
	at      int64
	seq     int64
	kind    msgKind
	to      int // destination site
	txn     txn.ID
	entity  string
	mode    lock.Mode
	epoch   int
	value   int64
	install bool
}

type msgQueue []*message

func (q msgQueue) Len() int { return len(q) }
func (q msgQueue) Less(i, j int) bool {
	if q[i].at != q[j].at {
		return q[i].at < q[j].at
	}
	return q[i].seq < q[j].seq
}
func (q msgQueue) Swap(i, j int) { q[i], q[j] = q[j], q[i] }
func (q *msgQueue) Push(x any)   { *q = append(*q, x.(*message)) }
func (q *msgQueue) Pop() any {
	old := *q
	n := len(old)
	m := old[n-1]
	*q = old[:n-1]
	return m
}

// ---- engine ----

type msgAgent struct {
	id       txn.ID
	home     int
	prog     *txn.Program
	analysis *txn.Analysis
	entry    int64

	pc         int
	stateIndex int64
	lockIndex  int
	locals     map[string]int64
	copies     map[string]int64
	heldAt     map[string]int
	modes      map[string]lock.Mode
	lockStates []struct {
		opIndex    int
		stateIndex int64
	}

	waiting    bool // a lock request is outstanding (queued or in flight)
	waitEntity string
	epoch      int
	committed  bool
	unlocked   bool
	declared   bool

	mcs  *mcs.Copies
	sdgG *sdg.Graph
	// grantVals caches each held entity's value as shipped at grant
	// time — the "global value" the single-copy strategy restores to,
	// kept locally so a rollback needs no extra round trip.
	grantVals map[string]int64
}

type msgSite struct {
	id     int
	locks  *lock.Table
	global map[string]int64
	// epochOf tracks the epoch of each queued request so stale cancels
	// and grants can be told apart.
	epochOf map[txn.ID]int
}

type msgEngine struct {
	cfg     MsgConfig
	sites   []*msgSite
	agents  map[txn.ID]*msgAgent
	order   []txn.ID
	queue   msgQueue
	now     int64
	seq     int64
	metrics MsgMetrics
	rec     *history.Recorder
}

// MsgRun executes the workload on the message-passing multi-site
// system. Programs must acquire entities in non-decreasing site order
// (use SiteOrder to transform arbitrary workloads).
func MsgRun(w sim.Workload, cfg MsgConfig) (MsgResult, error) {
	if cfg.Topology.Sites < 1 {
		return MsgResult{}, fmt.Errorf("dist: need at least one site")
	}
	switch cfg.Strategy {
	case core.Total, core.MCS, core.SDG:
	default:
		return MsgResult{}, fmt.Errorf("dist: unsupported strategy %v", cfg.Strategy)
	}
	if cfg.Latency <= 0 {
		cfg.Latency = 10
	}
	if cfg.MaxTime <= 0 {
		cfg.MaxTime = 10_000_000
	}
	e := &msgEngine{cfg: cfg, agents: map[txn.ID]*msgAgent{}}
	e.metrics.PerSiteDeadlocks = make([]int64, cfg.Topology.Sites)
	if cfg.RecordHistory {
		e.rec = history.NewRecorder()
	}
	for s := 0; s < cfg.Topology.Sites; s++ {
		e.sites = append(e.sites, &msgSite{
			id:      s,
			locks:   lock.NewTable(),
			global:  map[string]int64{},
			epochOf: map[txn.ID]int{},
		})
	}
	// Partition the initial store.
	init := w.NewStore()
	for _, name := range init.Names() {
		site := cfg.Topology.SiteOf(name)
		e.sites[site].global[name] = init.MustGet(name)
	}
	// Register agents.
	for i, p := range w.Programs {
		if err := txn.Validate(p); err != nil {
			return MsgResult{}, err
		}
		analysis := txn.Analyze(p)
		a := &msgAgent{
			id:        txn.ID(i + 1),
			prog:      p,
			analysis:  analysis,
			entry:     int64(i + 1),
			locals:    map[string]int64{},
			copies:    map[string]int64{},
			heldAt:    map[string]int{},
			modes:     map[string]lock.Mode{},
			grantVals: map[string]int64{},
		}
		for k, v := range p.Locals {
			a.locals[k] = v
		}
		prev := -1
		for _, r := range a.analysis.Requests {
			s := cfg.Topology.SiteOf(r.Entity)
			if s < prev {
				return MsgResult{}, fmt.Errorf("dist: program %s violates site order (use SiteOrder)", p.Name)
			}
			prev = s
		}
		a.home = homeSite(cfg.Topology, p)
		switch cfg.Strategy {
		case core.MCS:
			a.mcs = mcs.New(p.Locals)
		case core.SDG:
			a.sdgG = sdg.New()
		}
		e.agents[a.id] = a
		e.order = append(e.order, a.id)
		e.send(&message{kind: msgStep, to: a.home, txn: a.id, at: 1})
	}
	// Event loop.
	for len(e.queue) > 0 {
		m := heap.Pop(&e.queue).(*message)
		if m.at > cfg.MaxTime {
			return MsgResult{}, fmt.Errorf("dist: exceeded virtual time %d", cfg.MaxTime)
		}
		e.now = m.at
		if err := e.dispatch(m); err != nil {
			return MsgResult{}, err
		}
	}
	for _, a := range e.agents {
		if !a.committed {
			return MsgResult{}, fmt.Errorf("dist: %v never committed (stuck at pc %d)", a.id, a.pc)
		}
	}
	e.metrics.Makespan = e.now
	// Merge final global values.
	final := map[string]int64{}
	for _, s := range e.sites {
		for k, v := range s.global {
			final[k] = v
		}
	}
	return MsgResult{Metrics: e.metrics, Recorder: e.rec, Store: entity.NewStore(final)}, nil
}

// send enqueues a message; inter-site messages pay latency and are
// counted, same-site ones are immediate direct calls.
func (e *msgEngine) send(m *message) {
	e.seq++
	m.seq = e.seq
	if m.at == 0 {
		m.at = e.now + 1
	}
	heap.Push(&e.queue, m)
}

// sendRemote sends m between fromSite and m.to, applying latency and
// accounting when they differ.
func (e *msgEngine) sendRemote(fromSite int, m *message) {
	if fromSite != m.to {
		m.at = e.now + e.cfg.Latency
		switch m.kind {
		case msgLockReq:
			e.metrics.LockRequests++
		case msgGrant:
			e.metrics.Grants++
			if m.mode == lock.Exclusive {
				e.metrics.CopyShips++
			}
		case msgRelease:
			e.metrics.Releases++
			if m.install {
				e.metrics.CopyShips++
			}
		case msgCancel:
			e.metrics.Cancels++
		case msgRollback:
			e.metrics.Rollbacks++
		}
	}
	e.send(m)
}

func (e *msgEngine) dispatch(m *message) error {
	switch m.kind {
	case msgStep:
		return e.stepAgent(e.agents[m.txn])
	case msgLockReq:
		return e.siteLockRequest(e.sites[m.to], m)
	case msgGrant:
		return e.agentGranted(e.agents[m.txn], m)
	case msgRelease:
		return e.siteRelease(e.sites[m.to], m)
	case msgCancel:
		return e.siteCancel(e.sites[m.to], m)
	case msgRollback:
		return e.agentRollbackRequest(e.agents[m.txn], m)
	}
	return fmt.Errorf("dist: unknown message kind %d", m.kind)
}

// scheduleStep queues the agent's next step one tick out.
func (e *msgEngine) scheduleStep(a *msgAgent) {
	e.send(&message{kind: msgStep, to: a.home, txn: a.id, at: e.now + 1})
}

// stepAgent executes one operation of a at its home site.
func (e *msgEngine) stepAgent(a *msgAgent) error {
	if a.committed || a.waiting {
		return nil
	}
	op := a.prog.Ops[a.pc]
	switch op.Kind {
	case txn.OpLockS, txn.OpLockX:
		return e.agentLockRequest(a, op)
	case txn.OpRead:
		v, err := e.agentRead(a, op.Entity)
		if err != nil {
			return err
		}
		e.assign(a, op.Local, v)
		e.advance(a)
	case txn.OpWrite:
		v, err := op.Expr.Eval(value.MapEnv(a.locals))
		if err != nil {
			return err
		}
		a.copies[op.Entity] = v
		if a.mcs != nil {
			if err := a.mcs.WriteEntity(op.Entity, v); err != nil {
				return err
			}
		}
		if a.sdgG != nil {
			a.sdgG.OnWrite("e:" + op.Entity)
		}
		e.advance(a)
	case txn.OpCompute:
		v, err := op.Expr.Eval(value.MapEnv(a.locals))
		if err != nil {
			return err
		}
		e.assign(a, op.Local, v)
		e.advance(a)
	case txn.OpUnlock:
		a.unlocked = true
		e.releaseEntity(a, op.Entity, true)
		e.advance(a)
	case txn.OpDeclareLastLock:
		a.declared = true
		if a.sdgG != nil {
			a.sdgG.StopMonitoring()
		}
		e.advance(a)
	case txn.OpCommit:
		held := make([]string, 0, len(a.heldAt))
		for ent := range a.heldAt {
			held = append(held, ent)
		}
		sort.Strings(held)
		for _, ent := range held {
			e.releaseEntity(a, ent, true)
		}
		a.committed = true
		e.metrics.Commits++
		if e.rec != nil {
			e.rec.OnCommit(a.id)
		}
		return nil
	}
	e.scheduleStep(a)
	return nil
}

func (e *msgEngine) advance(a *msgAgent) {
	a.pc++
	a.stateIndex++
}

func (e *msgEngine) assign(a *msgAgent, local string, v int64) {
	a.locals[local] = v
	if a.mcs != nil {
		_ = a.mcs.WriteLocal(local, v)
	}
	if a.sdgG != nil {
		a.sdgG.OnWrite("l:" + local)
	}
}

func (e *msgEngine) agentRead(a *msgAgent, ent string) (int64, error) {
	mode, held := a.modes[ent]
	if !held {
		return 0, fmt.Errorf("dist: %v read of unheld %q", a.id, ent)
	}
	if mode == lock.Exclusive {
		return a.copies[ent], nil
	}
	// Shared: the global value was shipped at grant time and cached as
	// a copy too (it cannot change while the shared lock is held).
	return a.copies[ent], nil
}

// agentLockRequest records the lock state and routes the request to the
// owning site.
func (e *msgEngine) agentLockRequest(a *msgAgent, op txn.Op) error {
	mode := lock.Shared
	if op.Kind == txn.OpLockX {
		mode = lock.Exclusive
	}
	if len(a.lockStates) != a.lockIndex {
		return fmt.Errorf("dist: %v lock-state records out of sync", a.id)
	}
	a.lockStates = append(a.lockStates, struct {
		opIndex    int
		stateIndex int64
	}{a.pc, a.stateIndex})
	a.waiting = true
	a.waitEntity = op.Entity
	site := e.cfg.Topology.SiteOf(op.Entity)
	m := &message{kind: msgLockReq, to: site, txn: a.id, entity: op.Entity, mode: mode, epoch: a.epoch}
	if site == a.home {
		m.at = e.now // direct call
		e.send(m)
		return nil
	}
	e.sendRemote(a.home, m)
	return nil
}

// siteLockRequest handles a lock request at the entity's site.
func (e *msgEngine) siteLockRequest(s *msgSite, m *message) error {
	a := e.agents[m.txn]
	if m.epoch != a.epoch {
		return nil // stale request from before a rollback; drop
	}
	granted, _, err := s.locks.Acquire(m.txn, m.entity, m.mode)
	if err != nil {
		return err
	}
	if granted {
		e.grantFrom(s, m.txn, m.entity, m.mode, m.epoch)
		return nil
	}
	s.epochOf[m.txn] = m.epoch
	// Site-ordered acquisition makes every cycle local to this site.
	if cycle, _ := waitfor.CycleThrough(s.locks, m.txn, nil); !cycle {
		return nil
	}
	e.metrics.Deadlocks++
	e.metrics.PerSiteDeadlocks[s.id]++
	return e.resolveLocalDeadlock(s, m.txn)
}

// grantFrom completes a grant at site s and notifies the requester.
func (e *msgEngine) grantFrom(s *msgSite, id txn.ID, ent string, mode lock.Mode, epoch int) {
	delete(s.epochOf, id)
	a := e.agents[id]
	gm := &message{kind: msgGrant, to: a.home, txn: id, entity: ent, mode: mode, epoch: epoch}
	gm.value = s.global[ent] // ship the value (shared reads need it too)
	if s.id == a.home {
		gm.at = e.now
		e.send(gm)
		return
	}
	e.sendRemote(s.id, gm)
}

// agentGranted completes the lock at the requester's home.
func (e *msgEngine) agentGranted(a *msgAgent, m *message) error {
	if m.epoch != a.epoch || a.committed {
		// Stale grant: the agent rolled back past this request. Return
		// the lock without installing.
		site := e.cfg.Topology.SiteOf(m.entity)
		rm := &message{kind: msgRelease, to: site, txn: a.id, entity: m.entity}
		if site == a.home {
			rm.at = e.now
			e.send(rm)
		} else {
			e.sendRemote(a.home, rm)
		}
		return nil
	}
	a.heldAt[m.entity] = a.lockIndex
	a.modes[m.entity] = m.mode
	a.copies[m.entity] = m.value
	a.grantVals[m.entity] = m.value
	if a.mcs != nil {
		a.mcs.OnLock(m.entity, m.mode == lock.Exclusive, m.value)
	}
	if a.sdgG != nil {
		a.sdgG.OnLock()
	}
	a.lockIndex++
	a.waiting = false
	a.waitEntity = ""
	if e.rec != nil {
		hm := history.Read
		if m.mode == lock.Exclusive {
			hm = history.Write
		}
		e.rec.OnGrant(a.id, m.entity, hm)
	}
	e.advance(a)
	e.scheduleStep(a)
	return nil
}

// releaseEntity releases one held entity, installing the local copy
// when install is true and the lock was exclusive.
func (e *msgEngine) releaseEntity(a *msgAgent, ent string, install bool) {
	mode := a.modes[ent]
	site := e.cfg.Topology.SiteOf(ent)
	m := &message{kind: msgRelease, to: site, txn: a.id, entity: ent}
	if install && mode == lock.Exclusive {
		m.install = true
		m.value = a.copies[ent]
	}
	if e.rec != nil {
		if install {
			e.rec.OnRelease(a.id, ent)
		} else {
			e.rec.OnRetract(a.id, ent)
		}
	}
	delete(a.heldAt, ent)
	delete(a.modes, ent)
	delete(a.copies, ent)
	delete(a.grantVals, ent)
	if a.mcs != nil {
		a.mcs.OnUnlock(ent)
	}
	if site == a.home {
		m.at = e.now
		e.send(m)
		return
	}
	e.sendRemote(a.home, m)
}

// siteRelease applies a release at the owning site and promotes
// waiters.
func (e *msgEngine) siteRelease(s *msgSite, m *message) error {
	if m.install {
		s.global[m.entity] = m.value
	}
	grants, err := s.locks.Release(m.txn, m.entity)
	if err != nil {
		return err
	}
	for _, g := range grants {
		e.grantFrom(s, g.Txn, g.Entity, g.Mode, s.epochOf[g.Txn])
	}
	return nil
}

// siteCancel retracts a queued request (the requester rolled back).
func (e *msgEngine) siteCancel(s *msgSite, m *message) error {
	if s.epochOf[m.txn] != m.epoch {
		return nil // already granted or already cancelled
	}
	grants, removed := s.locks.RemoveWaiter(m.txn, m.entity)
	if removed {
		delete(s.epochOf, m.txn)
		for _, g := range grants {
			e.grantFrom(s, g.Txn, g.Entity, g.Mode, s.epochOf[g.Txn])
		}
	}
	return nil
}

// resolveLocalDeadlock applies the youngest-victim rule
// (deadlock.Oldest; Theorem 2-compatible, since the oldest transaction
// in the system is never preempted) to the requester's component, and
// asks each victim's home site to roll it back past a contested
// entity.
func (e *msgEngine) resolveLocalDeadlock(s *msgSite, requester txn.ID) error {
	comp := waitfor.RebuildFrom(s.locks, requester).ComponentOf(requester)
	victims, err := deadlock.Oldest{}.Choose(deadlock.Info{
		Requester: requester,
		Members:   comp.Members,
		Succ:      comp.Succ,
		Plan: func(id txn.ID) (core.Victim, bool) {
			a := e.agents[id]
			return core.Victim{Txn: id}, !a.unlocked && !a.declared
		},
		Entry: func(id txn.ID) int64 { return e.agents[id].entry },
	})
	if err != nil {
		return fmt.Errorf("dist: site %d: %w", s.id, err)
	}
	// Messages go out youngest first, the order the rule takes victims.
	slices.SortStableFunc(victims, func(a, b core.Victim) int { return cmp.Compare(e.agents[b.Txn].entry, e.agents[a.Txn].entry) })
	for _, v := range victims {
		// One contested entity suffices to name the rollback point; the
		// home computes the strategy-adjusted target over all of them.
		i, _ := slices.BinarySearch(comp.Members, v.Txn)
		var ent string
		for _, l := range comp.Contested[i] {
			if name := s.locks.Names().Name(l); ent == "" || name < ent {
				ent = name
			}
		}
		a := e.agents[v.Txn]
		rm := &message{kind: msgRollback, to: a.home, txn: v.Txn, entity: ent}
		if s.id == a.home {
			rm.at = e.now
			e.send(rm)
		} else {
			e.sendRemote(s.id, rm)
		}
	}
	return nil
}

// agentRollbackRequest performs the partial rollback at the victim's
// home: back to the lock state before it locked the named entity
// (strategy-adjusted), releasing every lock acquired since and
// cancelling its outstanding request.
func (e *msgEngine) agentRollbackRequest(a *msgAgent, m *message) error {
	if a.committed || a.unlocked {
		return nil // too late to roll back; it will release soon anyway
	}
	li, held := a.heldAt[m.entity]
	if !held {
		return nil // already rolled back past it (duplicate request)
	}
	target := li
	switch e.cfg.Strategy {
	case core.Total:
		target = 0
	case core.SDG:
		target = a.sdgG.LatestWellDefinedAtOrBelow(target)
	}
	if e.cfg.DebugVictims {
		fmt.Printf("  victim %v: entity %s heldAt=%d target=%d lockIndex=%d\n", a.id, m.entity, li, target, a.lockIndex)
	}
	rec := a.lockStates[target]
	lost := a.stateIndex - rec.stateIndex
	e.metrics.LostOps += lost

	// Cancel an outstanding request (new epoch invalidates in-flight
	// grants).
	if a.waiting {
		site := e.cfg.Topology.SiteOf(a.waitEntity)
		cm := &message{kind: msgCancel, to: site, txn: a.id, entity: a.waitEntity, epoch: a.epoch}
		if site == a.home {
			cm.at = e.now
			e.send(cm)
		} else {
			e.sendRemote(a.home, cm)
		}
		a.waiting = false
		a.waitEntity = ""
	}
	a.epoch++

	// Release locks acquired at or after the target state.
	var released []string
	for ent, idx := range a.heldAt {
		if idx >= target {
			released = append(released, ent)
		}
	}
	sort.Strings(released)
	for _, ent := range released {
		e.releaseEntity(a, ent, false)
	}

	// Restore per strategy.
	switch e.cfg.Strategy {
	case core.Total:
		for k, v := range a.prog.Locals {
			a.locals[k] = v
		}
	case core.MCS:
		a.mcs.Rollback(target)
		for k, v := range a.mcs.Locals() {
			a.locals[k] = v
		}
		for ent := range a.heldAt {
			if a.modes[ent] == lock.Exclusive {
				if v, ok := a.mcs.EntityValue(ent); ok {
					a.copies[ent] = v
				}
			}
		}
	case core.SDG:
		for ent := range a.heldAt {
			if a.sdgG.RestoreActionFor("e:"+ent, target) == sdg.ResetPristine {
				// Pristine = the grant-time value cached locally; the
				// site's global value cannot change while we hold the
				// lock, so no round trip is needed.
				a.copies[ent] = a.grantVals[ent]
			}
		}
		for l := range a.locals {
			if a.sdgG.RestoreActionFor("l:"+l, target) == sdg.ResetPristine {
				a.locals[l] = a.prog.Locals[l]
			}
		}
		if err := a.sdgG.Rollback(target); err != nil {
			return err
		}
	}
	a.pc = rec.opIndex
	a.stateIndex = rec.stateIndex
	a.lockStates = a.lockStates[:target]
	a.lockIndex = target
	e.scheduleStep(a)
	return nil
}
