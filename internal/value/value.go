// Package value provides the deterministic expression language used by
// transaction programs.
//
// Transactions in the reproduced system (Fussell/Kedem/Silberschatz,
// SIGMOD 1981) are sequences of atomic operations over global entities
// and local variables. To make rollback correctness *checkable* — a
// rolled-back and re-executed transaction must recompute exactly the
// values it would have produced — writes carry side-effect-free integer
// expressions over the transaction's local variables rather than opaque
// callbacks.
package value

import (
	"errors"
	"fmt"
	"strconv"
)

// Env resolves local-variable names during expression evaluation.
type Env interface {
	// Local returns the current value of the named local variable and
	// whether it exists.
	Local(name string) (int64, bool)
}

// MapEnv is the trivial Env backed by a map.
type MapEnv map[string]int64

// Local implements Env.
func (m MapEnv) Local(name string) (int64, bool) {
	v, ok := m[name]
	return v, ok
}

// ErrUnknownLocal is wrapped by evaluation errors for unresolved names.
var ErrUnknownLocal = errors.New("value: unknown local variable")

// ErrDivideByZero is wrapped by evaluation errors for x/0 and x%0.
var ErrDivideByZero = errors.New("value: division by zero")

// Expr is a side-effect-free integer expression over local variables.
type Expr interface {
	// Eval computes the expression under env.
	Eval(env Env) (int64, error)
	// Refs appends the names of all locals the expression reads.
	Refs(dst []string) []string
	// String renders the expression in infix form.
	String() string
}

// Const is a literal value.
type Const int64

// Eval implements Expr.
func (c Const) Eval(Env) (int64, error) { return int64(c), nil }

// Refs implements Expr.
func (c Const) Refs(dst []string) []string { return dst }

func (c Const) String() string { return strconv.FormatInt(int64(c), 10) }

// Local references a local variable by name.
type Local string

// Eval implements Expr.
func (l Local) Eval(env Env) (int64, error) {
	v, ok := env.Local(string(l))
	if !ok {
		return 0, fmt.Errorf("%w: %q", ErrUnknownLocal, string(l))
	}
	return v, nil
}

// Refs implements Expr.
func (l Local) Refs(dst []string) []string { return append(dst, string(l)) }

func (l Local) String() string { return string(l) }

// BinOp enumerates binary operators.
type BinOp int

// Supported binary operators.
const (
	OpAdd BinOp = iota
	OpSub
	OpMul
	OpDiv
	OpMod
	OpMin
	OpMax
)

func (op BinOp) String() string {
	switch op {
	case OpAdd:
		return "+"
	case OpSub:
		return "-"
	case OpMul:
		return "*"
	case OpDiv:
		return "/"
	case OpMod:
		return "%"
	case OpMin:
		return "min"
	case OpMax:
		return "max"
	default:
		return fmt.Sprintf("BinOp(%d)", int(op))
	}
}

// Binary applies a BinOp to two subexpressions.
type Binary struct {
	Op   BinOp
	L, R Expr
}

// Eval implements Expr.
func (b Binary) Eval(env Env) (int64, error) {
	l, err := b.L.Eval(env)
	if err != nil {
		return 0, err
	}
	r, err := b.R.Eval(env)
	if err != nil {
		return 0, err
	}
	return b.Op.apply(l, r)
}

// apply computes l op r, for the tree walker and compiled code alike.
func (op BinOp) apply(l, r int64) (int64, error) {
	switch op {
	case OpAdd:
		return l + r, nil
	case OpSub:
		return l - r, nil
	case OpMul:
		return l * r, nil
	case OpDiv:
		if r == 0 {
			return 0, ErrDivideByZero
		}
		return l / r, nil
	case OpMod:
		if r == 0 {
			return 0, ErrDivideByZero
		}
		return l % r, nil
	case OpMin:
		if l < r {
			return l, nil
		}
		return r, nil
	case OpMax:
		if l > r {
			return l, nil
		}
		return r, nil
	default:
		return 0, fmt.Errorf("value: unknown operator %v", op)
	}
}

// Refs implements Expr.
func (b Binary) Refs(dst []string) []string {
	return b.R.Refs(b.L.Refs(dst))
}

func (b Binary) String() string {
	if b.Op == OpMin || b.Op == OpMax {
		return fmt.Sprintf("%s(%s, %s)", b.Op, b.L, b.R)
	}
	return fmt.Sprintf("(%s %s %s)", b.L, b.Op, b.R)
}

// Convenience constructors.

// Add returns l + r.
func Add(l, r Expr) Expr { return Binary{OpAdd, l, r} }

// Sub returns l - r.
func Sub(l, r Expr) Expr { return Binary{OpSub, l, r} }

// Mul returns l * r.
func Mul(l, r Expr) Expr { return Binary{OpMul, l, r} }

// Div returns l / r (truncated); evaluating with r == 0 is an error.
func Div(l, r Expr) Expr { return Binary{OpDiv, l, r} }

// Mod returns l % r; evaluating with r == 0 is an error.
func Mod(l, r Expr) Expr { return Binary{OpMod, l, r} }

// Min returns the smaller of l and r.
func Min(l, r Expr) Expr { return Binary{OpMin, l, r} }

// Max returns the larger of l and r.
func Max(l, r Expr) Expr { return Binary{OpMax, l, r} }

// C is shorthand for Const(v).
func C(v int64) Expr { return Const(v) }

// L is shorthand for Local(name).
func L(name string) Expr { return Local(name) }
