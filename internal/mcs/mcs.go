// Package mcs implements the paper's multi-lock copy strategy (§4):
// the rollback bookkeeping that lets a transaction be rolled back to
// *any* of its lock states.
//
// For every exclusively locked entity the transaction keeps a stack of
// (value, lock index) elements; the bottom element is the entity's
// global value, pushed when the lock was granted. Each local variable
// likewise has a stack whose bottom is its initial value. A write at
// lock index j pushes a new element when the top's index is below j and
// overwrites the top's value otherwise, so the stack holds exactly one
// element per lock interval in which the target was written — the value
// the target had at each subsequent lock state.
//
// Rollback to lock state q deletes the stacks of entities locked after
// q and pops every element with lock index > q from the surviving
// stacks, leaving each top equal to the target's value at state q.
//
// Theorem 3: with n held locks there can be at most n(n+1)/2 stack
// elements for global entities and n per local variable. The package
// exposes exact space accounting so the bound is measurable (experiment
// E7); element counts are maintained incrementally, so the accounting
// is O(1) per write instead of a scan of every stack.
//
// Entities are identified by intern.ID and locals by dense slot index
// on the hot path (the ...ID/...Slot methods, allocation-free in steady
// state thanks to pooled element slices); the string-keyed methods are
// boundary wrappers for callers that still speak names.
package mcs

import (
	"fmt"
	"slices"
	"sort"

	"partialrollback/internal/intern"
)

type elem struct {
	value     int64
	lockIndex int
}

// entStack is the copy stack of one exclusively locked entity.
type entStack struct {
	ent intern.ID
	// index is the lock index of the lock state the stack is associated
	// with (when the exclusive lock was granted).
	index int
	elems []elem
}

// Copies is the per-transaction MCS state. The zero value is not
// usable; call New or NewSlots.
type Copies struct {
	names *intern.Table
	// entStacks holds the active entity stacks, scanned linearly (a
	// transaction holds few locks). localStacks is indexed by slot.
	entStacks   []entStack
	localStacks [][]elem
	localNames  []string // sorted; a local's slot is its index
	freeElems   [][]elem
	// lockIndex is the number of lock requests the transaction has
	// executed; writes occurring now have this lock index.
	lockIndex int
	// Incremental element counts and their high-water marks.
	entityElems     int
	localElems      int
	peakEntityElems int
	peakLocalElems  int
}

// New returns MCS state for a transaction with the given local
// variables and initial values, using a private entity interner. Slots
// are assigned in sorted-name order.
func New(locals map[string]int64) *Copies {
	names := make([]string, 0, len(locals))
	for n := range locals {
		names = append(names, n)
	}
	sort.Strings(names)
	inits := make([]int64, len(names))
	for i, n := range names {
		inits[i] = locals[n]
	}
	return NewSlots(intern.NewTable(), names, inits)
}

// NewSlots returns MCS state with entity names interned through names
// (normally the store's shared interner) and locals pre-resolved to
// slots: localNames, sorted, names slot s, whose initial value is
// inits[s]. The slices are shared, not copied (the engine passes its
// txn.Exec, which is immutable). This is the constructor the engine's
// hot path uses.
func NewSlots(names *intern.Table, localNames []string, inits []int64) *Copies {
	c := &Copies{
		names:       names,
		localStacks: make([][]elem, len(localNames)),
		localNames:  localNames,
	}
	// Every local's bottom element lives in one backing array; each
	// stack has capacity 1, so its first push moves it to its own array.
	bottoms := make([]elem, len(localNames))
	for s := range localNames {
		bottoms[s] = elem{value: inits[s], lockIndex: 0}
		c.localStacks[s] = bottoms[s : s+1 : s+1]
		c.localElems++
	}
	c.notePeaks()
	return c
}

func (c *Copies) notePeaks() {
	if c.entityElems > c.peakEntityElems {
		c.peakEntityElems = c.entityElems
	}
	if c.localElems > c.peakLocalElems {
		c.peakLocalElems = c.localElems
	}
}

func (c *Copies) findEnt(ent intern.ID) *entStack {
	for i := range c.entStacks {
		if c.entStacks[i].ent == ent {
			return &c.entStacks[i]
		}
	}
	return nil
}

func (c *Copies) getElems() []elem {
	if k := len(c.freeElems); k > 0 {
		e := c.freeElems[k-1]
		c.freeElems = c.freeElems[:k-1]
		return e
	}
	return nil
}

func (c *Copies) putElems(e []elem) {
	if cap(e) > 0 {
		c.freeElems = append(c.freeElems, e[:0])
	}
}

// OnLock records a granted lock request. For exclusive locks the
// entity's global value at grant time must be supplied so the new
// stack's bottom element can be created; shared locks create no stack
// (shared entities are never written). The lock index advances for both.
func (c *Copies) OnLock(entity string, exclusive bool, globalValue int64) {
	c.OnLockID(c.names.Intern(entity), exclusive, globalValue)
}

// OnLockID is OnLock by intern ID.
func (c *Copies) OnLockID(ent intern.ID, exclusive bool, globalValue int64) {
	if exclusive {
		elems := append(c.getElems(), elem{value: globalValue, lockIndex: c.lockIndex})
		c.entStacks = append(c.entStacks, entStack{ent: ent, index: c.lockIndex, elems: elems})
		c.entityElems++
	}
	c.lockIndex++
	c.notePeaks()
}

// LockIndex returns the current lock index (number of lock requests
// executed).
func (c *Copies) LockIndex() int { return c.lockIndex }

// WriteEntity records a write of v to an exclusively locked entity.
func (c *Copies) WriteEntity(entity string, v int64) error {
	ent, ok := c.names.Lookup(entity)
	if !ok {
		return fmt.Errorf("mcs: write to entity %q without an exclusive-lock stack", entity)
	}
	return c.WriteEntityID(ent, v)
}

// WriteEntityID is WriteEntity by intern ID.
func (c *Copies) WriteEntityID(ent intern.ID, v int64) error {
	s := c.findEnt(ent)
	if s == nil {
		return fmt.Errorf("mcs: write to entity %q without an exclusive-lock stack", c.names.Name(ent))
	}
	if t := &s.elems[len(s.elems)-1]; t.lockIndex == c.lockIndex {
		t.value = v
	} else {
		s.elems = append(s.elems, elem{value: v, lockIndex: c.lockIndex})
		c.entityElems++
		c.notePeaks()
	}
	return nil
}

// WriteLocal records a write of v to a local variable.
func (c *Copies) WriteLocal(name string, v int64) error {
	s, ok := slices.BinarySearch(c.localNames, name)
	if !ok {
		return fmt.Errorf("mcs: write to undeclared local %q", name)
	}
	return c.WriteLocalSlot(s, v)
}

// WriteLocalSlot is WriteLocal by slot index.
func (c *Copies) WriteLocalSlot(slot int, v int64) error {
	if slot < 0 || slot >= len(c.localStacks) {
		return fmt.Errorf("mcs: write to undeclared local slot %d", slot)
	}
	elems := c.localStacks[slot]
	if t := &elems[len(elems)-1]; t.lockIndex == c.lockIndex {
		t.value = v
	} else {
		c.localStacks[slot] = append(elems, elem{value: v, lockIndex: c.lockIndex})
		c.localElems++
		c.notePeaks()
	}
	return nil
}

// EntityValue returns the current local-copy value of an exclusively
// locked entity.
func (c *Copies) EntityValue(entity string) (int64, bool) {
	ent, ok := c.names.Lookup(entity)
	if !ok {
		return 0, false
	}
	return c.EntityValueID(ent)
}

// EntityValueID is EntityValue by intern ID.
func (c *Copies) EntityValueID(ent intern.ID) (int64, bool) {
	s := c.findEnt(ent)
	if s == nil {
		return 0, false
	}
	return s.elems[len(s.elems)-1].value, true
}

// LocalValue returns the current value of a local variable.
func (c *Copies) LocalValue(name string) (int64, bool) {
	s, ok := slices.BinarySearch(c.localNames, name)
	if !ok {
		return 0, false
	}
	return c.LocalValueSlot(s)
}

// LocalValueSlot is LocalValue by slot index.
func (c *Copies) LocalValueSlot(slot int) (int64, bool) {
	if slot < 0 || slot >= len(c.localStacks) {
		return 0, false
	}
	elems := c.localStacks[slot]
	return elems[len(elems)-1].value, true
}

// Locals returns a snapshot of current local-variable values.
func (c *Copies) Locals() map[string]int64 {
	out := make(map[string]int64, len(c.localStacks))
	for s, name := range c.localNames {
		elems := c.localStacks[s]
		out[name] = elems[len(elems)-1].value
	}
	return out
}

// CopyLocalsInto appends the current local values in slot order to dst
// (allocation-free with a reused buffer).
func (c *Copies) CopyLocalsInto(dst []int64) []int64 {
	for _, elems := range c.localStacks {
		dst = append(dst, elems[len(elems)-1].value)
	}
	return dst
}

// OnUnlock discards the stack for entity (its top value has been
// installed globally by the caller). Per the paper's model the
// transaction is never rolled back after its first unlock, so the
// stack is simply returned to free storage.
func (c *Copies) OnUnlock(entity string) {
	ent, ok := c.names.Lookup(entity)
	if !ok {
		return
	}
	c.OnUnlockID(ent)
}

// OnUnlockID is OnUnlock by intern ID.
func (c *Copies) OnUnlockID(ent intern.ID) {
	for i := range c.entStacks {
		if c.entStacks[i].ent == ent {
			c.entityElems -= len(c.entStacks[i].elems)
			c.putElems(c.entStacks[i].elems)
			c.entStacks[i] = c.entStacks[len(c.entStacks)-1]
			c.entStacks[len(c.entStacks)-1].elems = nil
			c.entStacks = c.entStacks[:len(c.entStacks)-1]
			return
		}
	}
}

// Rollback restores the MCS state to lock state q: stacks of entities
// locked at or after q are deleted (the caller releases those locks),
// and elements with lock index > q are popped everywhere else.
func (c *Copies) Rollback(q int) {
	if q < 0 || q > c.lockIndex {
		panic(fmt.Sprintf("mcs: rollback to lock state %d outside [0, %d]", q, c.lockIndex))
	}
	for i := len(c.entStacks) - 1; i >= 0; i-- {
		if c.entStacks[i].index >= q {
			c.entityElems -= len(c.entStacks[i].elems)
			c.putElems(c.entStacks[i].elems)
			c.entStacks[i] = c.entStacks[len(c.entStacks)-1]
			c.entStacks[len(c.entStacks)-1].elems = nil
			c.entStacks = c.entStacks[:len(c.entStacks)-1]
		}
	}
	for i := range c.entStacks {
		s := &c.entStacks[i]
		for len(s.elems) > 1 && s.elems[len(s.elems)-1].lockIndex > q {
			s.elems = s.elems[:len(s.elems)-1]
			c.entityElems--
		}
	}
	for i, elems := range c.localStacks {
		for len(elems) > 1 && elems[len(elems)-1].lockIndex > q {
			elems = elems[:len(elems)-1]
			c.localElems--
		}
		c.localStacks[i] = elems
	}
	c.lockIndex = q
}

// SpaceUsed returns the current number of stack elements held for
// global entities and for local variables.
func (c *Copies) SpaceUsed() (entityElems, localElems int) {
	return c.entityElems, c.localElems
}

// PeakSpace returns the high-water marks of SpaceUsed over the
// transaction's lifetime, for checking Theorem 3's n(n+1)/2 and n·|L|
// bounds.
func (c *Copies) PeakSpace() (entityElems, localElems int) {
	return c.peakEntityElems, c.peakLocalElems
}
