package txn

import (
	"slices"
	"strings"
)

// OrderLocks returns p with every lock request first, in ascending
// entity-name order, followed by p's other operations in their original
// order. A system that learns each program whole can register this form
// instead of p: transactions that acquire their locks in one global
// order, and never upgrade one (Validate forbids re-locking an entity),
// admit no wait-for cycle, so they never deadlock. The form computes
// what p computes, because under two-phase locking an entity changes
// only through its holder, so taking a lock earlier changes no value
// the program reads. sim's ordered sweep (E24) registers this form. The
// node's engine does the same in entity-ID order inside Register
// (core.Config.OrderLocks), with this function as its test oracle.
//
// OrderLocks returns p itself, allocating nothing, when p's lock
// requests already lead in strictly ascending order, which every
// program that takes one lock first does. It also returns p when p is
// invalid, so that a validator reports p's own fault at p's own op
// index; hoisting could otherwise hide it, as it would a read of an
// entity that p locks only later. Otherwise the result is a new Program
// that shares p's Name and Locals.
func OrderLocks(p *Program) *Program {
	lead := 0
	for lead < len(p.Ops) && p.Ops[lead].Kind.IsLockRequest() &&
		(lead == 0 || p.Ops[lead-1].Entity < p.Ops[lead].Entity) {
		lead++
	}
	locks := lead
	for _, o := range p.Ops[lead:] {
		if o.Kind.IsLockRequest() {
			locks++
		}
	}
	if locks == lead || Validate(p) != nil {
		return p
	}
	ops := make([]Op, 0, len(p.Ops))
	for _, o := range p.Ops {
		if o.Kind.IsLockRequest() {
			ops = append(ops, o)
		}
	}
	slices.SortFunc(ops, func(a, b Op) int { return strings.Compare(a.Entity, b.Entity) })
	for _, o := range p.Ops {
		if !o.Kind.IsLockRequest() {
			ops = append(ops, o)
		}
	}
	return &Program{Name: p.Name, Locals: p.Locals, Ops: ops}
}
