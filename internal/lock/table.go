// Package lock implements the lock table for the two-phase locking
// system of §2: shared and exclusive locks on named entities, with FIFO
// wait queues. Grant rules follow the paper's database-management
// responses:
//
//  1. a request is granted when no conflicting transaction holds a
//     lock on the entity (shared requests conflict only with exclusive
//     holders; exclusive requests conflict with any holder);
//  2. otherwise the requester waits.
//
// The table is also the only record of who waits for whom: a queued
// transaction waits on exactly one entity, and its arcs in the paper's
// concurrency graph G(T) are that entity's holders (WaitsFor).
// internal/waitfor checks for deadlock by walking those arcs here; the
// response to a deadlock (response 3: victim choice and rollback) lives
// in internal/deadlock and internal/core.
//
// Entities are identified by dense intern.IDs internally: the entry for
// entity e lives at index e of one slice, holder sets are small slices
// with a cached exclusive count, and per-transaction held lists are
// pooled. The ...ID methods (AcquireID, ReleaseID, ...) are the
// allocation-free hot path used by internal/core; the string-keyed
// methods are boundary wrappers that intern/resolve names and keep the
// original public behavior for callers that still speak names (msgsim,
// tests).
//
// A Table is not safe for concurrent use: the owning System calls it
// under its engine mutex.
package lock

import (
	"fmt"
	"sort"

	"partialrollback/internal/intern"
	"partialrollback/internal/txn"
)

// Mode is a lock mode.
type Mode int

// Lock modes.
const (
	Shared Mode = iota
	Exclusive
)

func (m Mode) String() string {
	if m == Exclusive {
		return "X"
	}
	return "S"
}

// Compatible reports whether a lock of mode m may coexist with a held
// lock of mode held.
func Compatible(m, held Mode) bool {
	return m == Shared && held == Shared
}

// Grant records a lock grant, returned by Release when queued waiters
// are promoted.
type Grant struct {
	Txn    txn.ID
	Entity string
	Mode   Mode
}

// GrantID is a Grant on the interned hot path: the entity travels as
// its dense ID and is resolved to a name only at the boundary.
type GrantID struct {
	Txn  txn.ID
	Ent  intern.ID
	Mode Mode
}

// Waiter is one queued request.
type Waiter struct {
	Txn  txn.ID
	Mode Mode
}

type holderRec struct {
	txn  txn.ID
	mode Mode
}

type entry struct {
	holders []holderRec
	numX    int // exclusive holders in holders (0 or 1)
	queue   []Waiter
	touched bool // some Acquire has referenced this entity
}

type heldRec struct {
	ent  intern.ID
	mode Mode
}

// heldList is one transaction's held-lock index; the backing slices
// are pooled so a full grant/release cycle allocates nothing in steady
// state.
type heldList struct {
	recs []heldRec
}

// Table is the lock table.
type Table struct {
	names *intern.Table
	// entries[e] is entity e's holders and queue, grown on first touch
	// of an entity interned after the table was made.
	entries  []entry
	held     map[txn.ID]*heldList
	heldPool []*heldList
	// waiting maps each waiting transaction to the entity it waits on.
	// A transaction waits on at most one entity at a time.
	waiting map[txn.ID]intern.ID
}

// NewTable returns an empty lock table with a private interner. Names
// are interned on first Acquire.
func NewTable() *Table {
	return NewTableInterned(intern.NewTable())
}

// NewTableInterned returns an empty lock table sharing names —
// normally the entity store's interner, so lock-table IDs and store IDs
// agree. Entries for the names already interned are allocated here, in
// one piece: grown one entry at a time on first touch, the slice for a
// 100 000-entity store allocates 34 MB on its way to 7 MB, all of it in
// the first transactions.
func NewTableInterned(names *intern.Table) *Table {
	return &Table{
		names:   names,
		entries: make([]entry, names.Len()),
		held:    map[txn.ID]*heldList{},
		waiting: map[txn.ID]intern.ID{},
	}
}

// Names exposes the table's interner (shared with the store when built
// via NewTableInterned).
func (t *Table) Names() *intern.Table { return t.names }

// entryFor returns ent's entry, growing the entry slice as needed.
func (t *Table) entryFor(ent intern.ID) *entry {
	for int(ent) >= len(t.entries) {
		t.entries = append(t.entries, entry{})
	}
	e := &t.entries[ent]
	e.touched = true
	return e
}

// peek returns ent's entry if it exists and has been touched, else nil.
func (t *Table) peek(ent intern.ID) *entry {
	if int(ent) >= len(t.entries) || !t.entries[ent].touched {
		return nil
	}
	return &t.entries[ent]
}

func (t *Table) newHeldList() *heldList {
	if n := len(t.heldPool); n > 0 {
		hl := t.heldPool[n-1]
		t.heldPool = t.heldPool[:n-1]
		return hl
	}
	return &heldList{}
}

// Acquire requests a lock. If grantable it is granted immediately and
// Acquire returns granted=true. Otherwise the request is queued FIFO
// and blockers lists the conflicting holders (the transactions the
// requester now waits for, i.e. its arcs in the concurrency graph).
//
// Re-requesting an entity already held, or requesting while already
// waiting, is a programming error and returns a non-nil error.
func (t *Table) Acquire(id txn.ID, name string, m Mode) (granted bool, blockers []txn.ID, err error) {
	return t.AcquireID(id, t.names.Intern(name), m, nil)
}

// AcquireID is Acquire by intern ID. Blockers are appended to buf (the
// appended region arrives sorted ascending), so a caller that reuses
// its buffer pays no allocation.
func (t *Table) AcquireID(id txn.ID, ent intern.ID, m Mode, buf []txn.ID) (granted bool, blockers []txn.ID, err error) {
	if went, isWaiting := t.waiting[id]; isWaiting {
		return false, buf, fmt.Errorf("lock: %v requested %q while waiting on %q", id, t.names.Name(ent), t.names.Name(went))
	}
	if _, holds := t.ModeOfID(id, ent); holds {
		return false, buf, fmt.Errorf("lock: %v re-requested held entity %q", id, t.names.Name(ent))
	}
	e := t.entryFor(ent)
	if grantable(e, m) {
		t.grantTo(e, id, ent, m)
		return true, buf, nil
	}
	e.queue = append(e.queue, Waiter{Txn: id, Mode: m})
	t.waiting[id] = ent
	start := len(buf)
	for i := range e.holders {
		if e.holders[i].txn != id {
			buf = append(buf, e.holders[i].txn)
		}
	}
	sortIDs(buf[start:])
	return false, buf, nil
}

func grantable(e *entry, m Mode) bool {
	if len(e.holders) == 0 {
		return true
	}
	if m == Exclusive {
		return false
	}
	return e.numX == 0
}

// grantTo records a grant in ent's entry and id's held index.
func (t *Table) grantTo(e *entry, id txn.ID, ent intern.ID, m Mode) {
	e.holders = append(e.holders, holderRec{txn: id, mode: m})
	if m == Exclusive {
		e.numX++
	}
	hl := t.held[id]
	if hl == nil {
		hl = t.newHeldList()
		t.held[id] = hl
	}
	hl.recs = append(hl.recs, heldRec{ent: ent, mode: m})
}

// Release drops id's lock on name and promotes queued waiters FIFO:
// consecutive grantable requests at the head of the queue are granted
// and returned. Releasing an entity not held returns an error.
func (t *Table) Release(id txn.ID, name string) ([]Grant, error) {
	ent, ok := t.names.Lookup(name)
	if !ok {
		return nil, fmt.Errorf("lock: release of unknown entity %q", name)
	}
	gids, err := t.ReleaseID(id, ent, nil)
	return t.grantsFromIDs(gids), err
}

// ReleaseID is Release by intern ID, appending promoted grants to
// grants and returning the extended slice.
func (t *Table) ReleaseID(id txn.ID, ent intern.ID, grants []GrantID) ([]GrantID, error) {
	e := t.peek(ent)
	if e == nil {
		return grants, fmt.Errorf("lock: release of unknown entity %q", t.names.Name(ent))
	}
	found := false
	for i := range e.holders {
		if e.holders[i].txn == id {
			if e.holders[i].mode == Exclusive {
				e.numX--
			}
			e.holders[i] = e.holders[len(e.holders)-1]
			e.holders = e.holders[:len(e.holders)-1]
			found = true
			break
		}
	}
	if !found {
		return grants, fmt.Errorf("lock: %v released %q it does not hold", id, t.names.Name(ent))
	}
	t.dropHeldRec(id, ent)
	return t.promoteInto(ent, grants), nil
}

func (t *Table) dropHeldRec(id txn.ID, ent intern.ID) {
	hl := t.held[id]
	if hl == nil {
		return
	}
	for i := range hl.recs {
		if hl.recs[i].ent == ent {
			hl.recs[i] = hl.recs[len(hl.recs)-1]
			hl.recs = hl.recs[:len(hl.recs)-1]
			break
		}
	}
	if len(hl.recs) == 0 {
		delete(t.held, id)
		t.heldPool = append(t.heldPool, hl)
	}
}

// promoteInto grants queued requests in *age* order (ascending
// transaction ID; the engine assigns IDs in entry order), repeatedly
// granting the oldest grantable waiter until none remains, appending
// each grant to grants. Two properties matter:
//
//   - every waiter left queued conflicts with at least one *current
//     holder*, so the wait-for graph always has an arc for every waiter
//     and deadlock detection stays sound;
//   - the oldest waiting transaction wins the entity as soon as it is
//     compatible. Combined with victim policies that never preempt the
//     oldest active transaction, this gives the wound-wait liveness
//     argument: the oldest transaction's progress is monotone, so
//     preemption rings cannot run forever (a failure mode the
//     randomized soak test exhibited under plain FIFO promotion).
func (t *Table) promoteInto(ent intern.ID, grants []GrantID) []GrantID {
	e := t.peek(ent)
	if e == nil {
		return grants
	}
	for {
		best := -1
		for i := range e.queue {
			if !grantable(e, e.queue[i].Mode) {
				continue
			}
			if best == -1 || e.queue[i].Txn < e.queue[best].Txn {
				best = i
			}
		}
		if best == -1 {
			return grants
		}
		w := e.queue[best]
		copy(e.queue[best:], e.queue[best+1:])
		e.queue = e.queue[:len(e.queue)-1]
		delete(t.waiting, w.Txn)
		t.grantTo(e, w.Txn, ent, w.Mode)
		grants = append(grants, GrantID{Txn: w.Txn, Ent: ent, Mode: w.Mode})
	}
}

// RemoveWaiter retracts id's queued request (used when a waiting
// transaction is chosen as a rollback victim). It returns any grants
// promoted as a result (a retracted head request can unblock others),
// and reports whether id was actually waiting on name.
func (t *Table) RemoveWaiter(id txn.ID, name string) ([]Grant, bool) {
	ent, ok := t.names.Lookup(name)
	if !ok {
		return nil, false
	}
	gids, removed := t.RemoveWaiterID(id, ent, nil)
	return t.grantsFromIDs(gids), removed
}

// RemoveWaiterID is RemoveWaiter by intern ID, appending promoted
// grants to grants.
func (t *Table) RemoveWaiterID(id txn.ID, ent intern.ID, grants []GrantID) ([]GrantID, bool) {
	e := t.peek(ent)
	if e == nil {
		return grants, false
	}
	for i := range e.queue {
		if e.queue[i].Txn == id {
			copy(e.queue[i:], e.queue[i+1:])
			e.queue = e.queue[:len(e.queue)-1]
			delete(t.waiting, id)
			return t.promoteInto(ent, grants), true
		}
	}
	return grants, false
}

func (t *Table) grantsFromIDs(gids []GrantID) []Grant {
	if len(gids) == 0 {
		return nil
	}
	out := make([]Grant, len(gids))
	for i, g := range gids {
		out[i] = Grant{Txn: g.Txn, Entity: t.names.Name(g.Ent), Mode: g.Mode}
	}
	return out
}

// Holders returns the transactions holding name, sorted.
func (t *Table) Holders(name string) []txn.ID {
	ent, ok := t.names.Lookup(name)
	if !ok {
		return nil
	}
	out := t.HoldersAppend(ent, nil)
	if len(out) == 0 {
		return nil
	}
	return out
}

// HoldersAppend appends the transactions holding ent to buf, sorted
// ascending (within the appended region), and returns the extended
// slice.
func (t *Table) HoldersAppend(ent intern.ID, buf []txn.ID) []txn.ID {
	e := t.peek(ent)
	if e == nil {
		return buf
	}
	start := len(buf)
	for i := range e.holders {
		buf = append(buf, e.holders[i].txn)
	}
	sortIDs(buf[start:])
	return buf
}

// ModeOf returns the mode id holds on name, if any.
func (t *Table) ModeOf(id txn.ID, name string) (Mode, bool) {
	ent, ok := t.names.Lookup(name)
	if !ok {
		return Shared, false
	}
	return t.ModeOfID(id, ent)
}

// ModeOfID is ModeOf by intern ID.
func (t *Table) ModeOfID(id txn.ID, ent intern.ID) (Mode, bool) {
	hl := t.held[id]
	if hl == nil {
		return Shared, false
	}
	for i := range hl.recs {
		if hl.recs[i].ent == ent {
			return hl.recs[i].mode, true
		}
	}
	return Shared, false
}

// HeldBy returns the entities id holds, sorted.
func (t *Table) HeldBy(id txn.ID) []string {
	var out []string
	if hl := t.held[id]; hl != nil {
		for _, r := range hl.recs {
			out = append(out, t.names.Name(r.ent))
		}
	}
	sort.Strings(out)
	return out
}

// WaitingOn returns the entity id is queued for, if any.
func (t *Table) WaitingOn(id txn.ID) (string, bool) {
	ent, ok := t.waiting[id]
	if !ok {
		return "", false
	}
	return t.names.Name(ent), true
}

// WaitsFor appends to buf, sorted ascending within the appended
// region, the transactions id waits for: every holder of the one
// entity id is queued on. All of them conflict with id's request, since
// a queued request is never grantable (promoteInto grants every one
// that is; CheckInvariants asserts it). It returns that entity, or ok
// false, with buf as given, when id is not waiting. These are id's arcs
// in the concurrency graph G(T).
func (t *Table) WaitsFor(id txn.ID, buf []txn.ID) (ent intern.ID, out []txn.ID, ok bool) {
	ent, ok = t.waiting[id]
	if !ok {
		return intern.None, buf, false
	}
	return ent, t.HoldersAppend(ent, buf), true
}

// Queue returns the waiters queued on name, in order.
func (t *Table) Queue(name string) []Waiter {
	ent, ok := t.names.Lookup(name)
	if !ok {
		return nil
	}
	e := t.peek(ent)
	if e == nil || len(e.queue) == 0 {
		return nil
	}
	return append([]Waiter(nil), e.queue...)
}

// CheckInvariants validates internal consistency (used by tests):
// holder sets respect compatibility, indexes agree with entries, and
// every waiter's queued request is recorded in waiting.
func (t *Table) CheckInvariants() error {
	for ei := range t.entries {
		e := &t.entries[ei]
		ent := intern.ID(ei)
		name := t.names.Name(ent)
		x := 0
		for _, h := range e.holders {
			if h.mode == Exclusive {
				x++
			}
		}
		if x != e.numX {
			return fmt.Errorf("lock: entity %q exclusive count %d != cached %d", name, x, e.numX)
		}
		if x > 1 || (x == 1 && len(e.holders) > 1) {
			return fmt.Errorf("lock: entity %q held incompatibly (%d holders, %d exclusive)", name, len(e.holders), x)
		}
		for _, h := range e.holders {
			if got, ok := t.ModeOfID(h.txn, ent); !ok || got != h.mode {
				return fmt.Errorf("lock: held index out of sync for %v on %q", h.txn, name)
			}
		}
		for _, w := range e.queue {
			if got, ok := t.waiting[w.Txn]; !ok || got != ent {
				return fmt.Errorf("lock: waiting index out of sync for %v on %q", w.Txn, name)
			}
			if grantable(e, w.Mode) {
				return fmt.Errorf("lock: waiter %v on %q is grantable but still queued", w.Txn, name)
			}
		}
	}
	for id, hl := range t.held {
		if len(hl.recs) == 0 {
			return fmt.Errorf("lock: empty held list retained for %v", id)
		}
		for _, r := range hl.recs {
			e := t.peek(r.ent)
			found := false
			if e != nil {
				for _, h := range e.holders {
					if h.txn == id && h.mode == r.mode {
						found = true
					}
				}
			}
			if !found {
				return fmt.Errorf("lock: reverse held index stale for %v on %q", id, t.names.Name(r.ent))
			}
		}
	}
	for id, ent := range t.waiting {
		found := false
		if e := t.peek(ent); e != nil {
			for _, w := range e.queue {
				if w.Txn == id {
					found = true
				}
			}
		}
		if !found {
			return fmt.Errorf("lock: %v marked waiting on %q but not queued", id, t.names.Name(ent))
		}
	}
	return nil
}

// sortIDs sorts ascending in place. Insertion sort: the slices here are
// blocker/holder lists of a single entity (a handful of elements), and
// unlike sort.Slice this compiles without a closure allocation.
func sortIDs(ids []txn.ID) {
	for i := 1; i < len(ids); i++ {
		for j := i; j > 0 && ids[j] < ids[j-1]; j-- {
			ids[j], ids[j-1] = ids[j-1], ids[j]
		}
	}
}
