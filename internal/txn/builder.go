package txn

import (
	"fmt"

	"partialrollback/internal/value"
)

// Builder assembles a Program with a fluent API and validates it on
// Build. The zero Builder is not usable; call NewProgram.
type Builder struct {
	p    *Program
	errs []error
}

// NewProgram starts building a program with the given display name.
func NewProgram(name string) *Builder {
	return &Builder{p: &Program{
		Name:   name,
		Locals: map[string]int64{},
	}}
}

// Local declares a local variable with an initial value. Declaring the
// same local twice is an error.
func (b *Builder) Local(name string, init int64) *Builder {
	if _, dup := b.p.Locals[name]; dup {
		b.errs = append(b.errs, fmt.Errorf("txn %s: local %q declared twice", b.p.Name, name))
		return b
	}
	b.p.Locals[name] = init
	return b
}

// LockS appends a shared-lock request for entity.
func (b *Builder) LockS(entity string) *Builder {
	return b.op(Op{Kind: OpLockS, Entity: entity})
}

// LockX appends an exclusive-lock request for entity.
func (b *Builder) LockX(entity string) *Builder {
	return b.op(Op{Kind: OpLockX, Entity: entity})
}

// Unlock appends an unlock of entity. Per the two-phase rule, no lock
// request may follow any unlock.
func (b *Builder) Unlock(entity string) *Builder {
	return b.op(Op{Kind: OpUnlock, Entity: entity})
}

// Read appends a read of entity into local.
func (b *Builder) Read(entity, local string) *Builder {
	return b.op(Op{Kind: OpRead, Entity: entity, Local: local})
}

// Write appends a write of expr (over locals) to entity.
func (b *Builder) Write(entity string, expr value.Expr) *Builder {
	return b.op(Op{Kind: OpWrite, Entity: entity, Expr: expr})
}

// Compute appends local := expr.
func (b *Builder) Compute(local string, expr value.Expr) *Builder {
	return b.op(Op{Kind: OpCompute, Local: local, Expr: expr})
}

// DeclareLastLock appends the §5 declaration that no further lock
// requests follow. The system may stop monitoring the transaction for
// rollback after this point.
func (b *Builder) DeclareLastLock() *Builder {
	return b.op(Op{Kind: OpDeclareLastLock})
}

func (b *Builder) op(o Op) *Builder {
	b.p.Ops = append(b.p.Ops, o)
	return b
}

// Build validates and returns the program. A terminating Commit is
// appended if the program does not already end with one.
func (b *Builder) Build() (*Program, error) {
	p := b.p
	if n := len(p.Ops); n == 0 || p.Ops[n-1].Kind != OpCommit {
		p.Ops = append(p.Ops, Op{Kind: OpCommit})
	}
	if len(b.errs) > 0 {
		return nil, b.errs[0]
	}
	if err := Validate(p); err != nil {
		return nil, err
	}
	return p, nil
}

// MustBuild is Build that panics on error; for tests and fixed figures.
func (b *Builder) MustBuild() *Program {
	p, err := b.Build()
	if err != nil {
		panic(err)
	}
	return p
}

// Validate checks the static well-formedness rules from the paper's
// model:
//
//   - two-phase: no lock request after any unlock;
//   - every Read/Write/Unlock names an entity currently locked (Write
//     and Unlock-after-write require an exclusive lock);
//   - no double-locking an entity already held (upgrades are modeled as
//     an error at the program level to keep the lock-state/entity
//     correspondence one-to-one, as §4 assumes);
//   - expressions reference only declared locals; Read destinations are
//     declared locals;
//   - Commit appears exactly once, last;
//   - no write (to entity or local) precedes the first lock request
//     (§4's simplifying assumption);
//   - nothing but Commit follows once DeclareLastLock is emitted except
//     reads, writes, computes and unlocks (no lock requests).
//
// Validate checks p through its executable form (Exec.Validate, the
// one validator), compiled into reused buffers, so checking a valid
// program that holds at most eight locks at once allocates nothing.
func Validate(p *Program) error {
	c := acquire()
	c.compile(p)
	err := c.x.Validate()
	c.release()
	return err
}
