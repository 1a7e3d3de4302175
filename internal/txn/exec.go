package txn

import (
	"fmt"
	"slices"
	"sync"

	"partialrollback/internal/value"
)

// Exec is a program in executable form: the one form the engine
// validates and steps. Its operations stay in the order and at the
// indexes they were sent, but every operand is an integer: an entity
// is an index into Entities, a local a slot into Locals, and an
// expression a span of Code compiled over those slots. Compile builds
// it from a Program; the node's wire decoder builds it straight from a
// request frame, with no Program in between. It is immutable once
// built.
type Exec struct {
	Name string
	// Entities lists the distinct entity names the ops name, in order
	// of first use.
	Entities []string
	// Locals names the local slots: the declared locals first, in name
	// order, then every name an op uses as a local without declaring
	// it (a program that does is invalid, so those slots never run).
	Locals []string
	// Init[s] is the initial value of declared slot s; len(Init) is the
	// number of declared locals.
	Init []int64
	// Ops lists the operations as sent.
	Ops []ExecOp
	// Code holds the ops' expressions. Ops may share a span: the wire
	// decoder copies an op that repeats its predecessor whole.
	Code []value.Instr
	// Foreign holds the expressions of types outside package value that
	// Code calls (value.IForeign); only Compile produces them.
	Foreign []value.Expr
}

// ExecOp is one operation of an Exec.
type ExecOp struct {
	Kind OpKind
	// Ent indexes Exec.Entities (LockS, LockX, Unlock, Read, Write);
	// -1 for the other kinds.
	Ent int32
	// Local is the slot a Read or Compute assigns; -1 for the other
	// kinds.
	Local int32
	// Code[From:To] is a Write's or Compute's expression; empty for the
	// other kinds.
	From, To int32
}

// Expr returns op i's compiled expression.
func (x *Exec) Expr(i int) value.Code {
	o := &x.Ops[i]
	return x.Code[o.From:o.To]
}

// Op returns op i in Program form, for rendering: its String is the
// String of the op it was built from.
func (x *Exec) Op(i int) Op {
	o := &x.Ops[i]
	op := Op{Kind: o.Kind}
	if o.Ent >= 0 {
		op.Entity = x.Entities[o.Ent]
	}
	if o.Local >= 0 {
		op.Local = x.Locals[o.Local]
	}
	if o.To > o.From {
		op.Expr = x.Expr(i).Tree(x.Locals, x.Foreign)
	}
	return op
}

// declared reports whether name is a declared local.
func (x *Exec) declared(name string) bool {
	_, ok := slices.BinarySearch(x.Locals[:len(x.Init)], name)
	return ok
}

// Validate checks x against the §2 static rules that Validate lists
// and returns the first violation, with the text Validate reports for
// the Program x was built from. Op indexes are as sent. A valid program
// that holds at most eight locks at once is checked without allocating.
func (x *Exec) Validate() error {
	if x.Name == "" {
		return fmt.Errorf("txn: program must have a name")
	}
	type heldLock struct {
		ent  int32
		kind OpKind
	}
	// Programs lock a handful of entities, so a linear scan beats a
	// map and the first eight holdings live on the stack.
	var buf [8]heldLock
	held := buf[:0]
	findHeld := func(ent int32) int {
		for k := range held {
			if held[k].ent == ent {
				return k
			}
		}
		return -1
	}
	nDecl := int32(len(x.Init))
	unlocked, declaredLast, seenLock := false, false, false
	for i := range x.Ops {
		o := &x.Ops[i]
		if i != len(x.Ops)-1 && o.Kind == OpCommit {
			return x.opErr(i, "Commit before end of program")
		}
		switch o.Kind {
		case OpLockS, OpLockX:
			entity := x.Entities[o.Ent]
			switch {
			case unlocked:
				return x.opErr(i, "lock request after unlock violates two-phase rule")
			case x.declared(entity):
				// Writes tracks write targets by name; entity and local
				// namespaces must therefore be disjoint.
				return x.opErr(i, "entity %q collides with a local variable name", entity)
			case declaredLast:
				return x.opErr(i, "lock request after DeclareLastLock")
			case findHeld(o.Ent) >= 0:
				return x.opErr(i, "entity %q already locked", entity)
			case entity == "":
				return x.opErr(i, "lock request without entity")
			}
			held = append(held, heldLock{ent: o.Ent, kind: o.Kind})
			seenLock = true
		case OpUnlock:
			k := findHeld(o.Ent)
			if k < 0 {
				return x.opErr(i, "unlock of entity %q not held", x.Entities[o.Ent])
			}
			held = append(held[:k], held[k+1:]...)
			unlocked = true
		case OpRead:
			if findHeld(o.Ent) < 0 {
				return x.opErr(i, "read of unlocked entity %q", x.Entities[o.Ent])
			}
			if o.Local >= nDecl {
				return x.opErr(i, "read into undeclared local %q", x.Locals[o.Local])
			}
		case OpWrite:
			if !seenLock {
				return x.opErr(i, "write before first lock request")
			}
			if k := findHeld(o.Ent); k < 0 || held[k].kind != OpLockX {
				return x.opErr(i, "write to entity %q requires a held exclusive lock", x.Entities[o.Ent])
			}
			if err := x.checkRefs(i); err != nil {
				return err
			}
		case OpCompute:
			if !seenLock {
				return x.opErr(i, "compute before first lock request")
			}
			if o.Local >= nDecl {
				return x.opErr(i, "compute into undeclared local %q", x.Locals[o.Local])
			}
			if err := x.checkRefs(i); err != nil {
				return err
			}
		case OpDeclareLastLock:
			if declaredLast {
				return x.opErr(i, "DeclareLastLock repeated")
			}
			declaredLast = true
		case OpCommit:
			// position checked above
		default:
			return x.opErr(i, "unknown op kind")
		}
	}
	if n := len(x.Ops); n == 0 || x.Ops[n-1].Kind != OpCommit {
		return fmt.Errorf("txn %s: program must end with Commit", x.Name)
	}
	return nil
}

// checkRefs verifies that op i's expression is present and reads only
// declared locals, reporting the first offence in evaluation order.
func (x *Exec) checkRefs(i int) error {
	for _, in := range x.Expr(i) {
		switch in.Kind {
		case value.INil:
			return x.opErr(i, "missing expression")
		case value.ILocal:
			if in.Arg >= int64(len(x.Init)) {
				return x.opErr(i, "expression references undeclared local %q", x.Locals[in.Arg])
			}
		case value.IForeign:
			for _, r := range x.Foreign[in.Arg].Refs(nil) {
				if !x.declared(r) {
					return x.opErr(i, "expression references undeclared local %q", r)
				}
			}
		}
	}
	return nil
}

// opErr formats a rule violation at op i.
func (x *Exec) opErr(i int, format string, args ...any) error {
	return fmt.Errorf("txn %s: op %d (%s): %s", x.Name, i, x.Op(i), fmt.Sprintf(format, args...))
}

// Writes computes x's write-interval facts. A read assigns its
// destination local, so it counts as a local write for rollback
// purposes.
func (x *Exec) Writes() *Writes {
	w := &Writes{
		EntityLockIndex:     map[string]int{},
		FirstWriteLockIndex: map[string]int{},
		WriteLockIndexes:    map[string][]int{},
		OpTarget:            make([]string, len(x.Ops)),
	}
	li := 0
	for i, o := range x.Ops {
		switch o.Kind {
		case OpLockS, OpLockX:
			w.EntityLockIndex[x.Entities[o.Ent]] = li
			li++
		case OpRead, OpCompute:
			w.note(x.Locals[o.Local], li)
			w.OpTarget[i] = "l:" + x.Locals[o.Local]
		case OpWrite:
			w.note(x.Entities[o.Ent], li)
			w.OpTarget[i] = "e:" + x.Entities[o.Ent]
		}
	}
	w.numLocks = li
	return w
}

// compiler builds an Exec from a Program into buffers it reuses.
type compiler struct {
	x Exec
}

// shared is the compiler that Validate, which discards the Exec, and
// Compile, which copies it out, reuse; a caller that finds it busy
// compiles into a fresh one. (A sync.Pool drops entries at random under
// the race detector, where Validate must not allocate either.)
var shared struct {
	mu sync.Mutex
	c  compiler
}

// acquire returns the shared compiler if it is free, else a new one.
func acquire() *compiler {
	if shared.mu.TryLock() {
		return &shared.c
	}
	return new(compiler)
}

// release gives c back if it is the shared compiler, dropping its
// buffers if a large program grew them.
func (c *compiler) release() {
	if c != &shared.c {
		return
	}
	if cap(c.x.Ops) > 1<<12 || cap(c.x.Code) > 1<<14 {
		*c = compiler{}
	}
	shared.mu.Unlock()
}

// Compile translates p into executable form. It never fails: a program
// that breaks a §2 rule compiles to an Exec whose Validate reports it.
func Compile(p *Program) *Exec {
	c := acquire()
	c.compile(p)
	x := c.x.clone()
	c.release()
	return x
}

// compile fills c.x from p.
func (c *compiler) compile(p *Program) {
	x := &c.x
	x.Name = p.Name
	x.Locals = x.Locals[:0]
	for name := range p.Locals {
		x.Locals = append(x.Locals, name)
	}
	slices.Sort(x.Locals)
	x.Init = x.Init[:0]
	for _, name := range x.Locals {
		x.Init = append(x.Init, p.Locals[name])
	}
	x.Entities, x.Ops, x.Code, x.Foreign = x.Entities[:0], x.Ops[:0], x.Code[:0], x.Foreign[:0]
	for _, o := range p.Ops {
		op := ExecOp{Kind: o.Kind, Ent: -1, Local: -1}
		switch o.Kind {
		case OpLockS, OpLockX, OpUnlock:
			op.Ent = c.entity(o.Entity)
		case OpRead:
			op.Ent = c.entity(o.Entity)
			op.Local = int32(c.Slot(o.Local))
		case OpWrite, OpCompute:
			if o.Kind == OpWrite {
				op.Ent = c.entity(o.Entity)
			} else {
				op.Local = int32(c.Slot(o.Local))
			}
			op.From = int32(len(x.Code))
			x.Code, x.Foreign = value.Compile(x.Code, o.Expr, c, x.Foreign)
			op.To = int32(len(x.Code))
		}
		x.Ops = append(x.Ops, op)
	}
}

// Slot implements value.Slots: a declared local's slot, or the slot
// after them that names an undeclared one.
func (c *compiler) Slot(name string) int64 {
	x := &c.x
	if s, ok := slices.BinarySearch(x.Locals[:len(x.Init)], name); ok {
		return int64(s)
	}
	for s := len(x.Init); s < len(x.Locals); s++ {
		if x.Locals[s] == name {
			return int64(s)
		}
	}
	x.Locals = append(x.Locals, name)
	return int64(len(x.Locals) - 1)
}

// entity returns name's index in c.x.Entities, appending it if new.
func (c *compiler) entity(name string) int32 {
	x := &c.x
	for k, e := range x.Entities {
		if e == name {
			return int32(k)
		}
	}
	x.Entities = append(x.Entities, name)
	return int32(len(x.Entities) - 1)
}

// clone copies x into exactly sized slices; the names of both tables
// share one backing array.
func (x *Exec) clone() *Exec {
	n := len(x.Entities)
	names := make([]string, n+len(x.Locals))
	copy(names, x.Entities)
	copy(names[n:], x.Locals)
	return &Exec{
		Name:     x.Name,
		Entities: names[:n:n],
		Locals:   names[n:],
		Init:     slices.Clone(x.Init),
		Ops:      slices.Clone(x.Ops),
		Code:     slices.Clone(x.Code),
		Foreign:  slices.Clone(x.Foreign),
	}
}
