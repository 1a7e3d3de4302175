package value

import "fmt"

// This file holds the compiled form of an expression that the engine
// evaluates on its step path: postfix instructions whose locals are
// slot indexes into the transaction's []int64 of current values, so an
// evaluation performs no name lookup and no allocation.
//
// An earlier revision compiled expression trees at registration and
// measured that as pure overhead: every driver registers a program
// once, and the node first decoded every request into trees, then
// compiled them. Its successor walked the tree with one map probe per
// local reference. Compilation now rides the decode pass instead: the
// node's wire decoder emits this code straight from the frame bytes,
// decodes an op that repeats its predecessor's bytes only once, and never
// builds a tree (txn.Compile compiles a txn.Program's trees). On a
// 221-op hotspot program on a 2-CPU host, decoding into this form and
// registering it costs 10–15 µs and 9 allocations, against 27–40 µs and
// 82 allocations to decode trees, convert them to a txn.Program and
// register that; the uncontended run to commit, in bursts of 64 ops,
// takes ~7.5 µs.
//
// Error semantics match Expr.Eval: division by zero returns
// ErrDivideByZero unwrapped, and the first failure in evaluation order
// (left before right) ends the evaluation.

// InstrKind is the kind of one instruction.
type InstrKind uint8

// Instruction kinds.
const (
	// IConst pushes Arg.
	IConst InstrKind = iota
	// ILocal pushes the value of local slot Arg.
	ILocal
	// IBinary pops R, then L, and pushes L BinOp(Arg) R.
	IBinary
	// IForeign pushes the value of foreign expression Arg: an Expr of
	// a type outside this package, evaluated through an Env.
	IForeign
	// INil stands for a missing (nil) expression. A program holding
	// one is invalid, so it never runs; evaluating it fails.
	INil
)

// Instr is one instruction of compiled code.
type Instr struct {
	Kind InstrKind
	Arg  int64
}

// Code is a compiled expression: postfix instructions over a value
// stack.
type Code []Instr

// Slots resolves a local's name to its slot while compiling.
type Slots interface {
	Slot(name string) int64
}

// Compile appends e's code to dst, resolving every Local through slots.
// An expression of a type outside this package is appended to foreign
// and referenced by index. It returns the extended dst and foreign.
func Compile(dst []Instr, e Expr, slots Slots, foreign []Expr) ([]Instr, []Expr) {
	switch x := e.(type) {
	case nil:
		return append(dst, Instr{Kind: INil}), foreign
	case Const:
		return append(dst, Instr{Kind: IConst, Arg: int64(x)}), foreign
	case Local:
		return append(dst, Instr{Kind: ILocal, Arg: slots.Slot(string(x))}), foreign
	case Binary:
		dst, foreign = Compile(dst, x.L, slots, foreign)
		dst, foreign = Compile(dst, x.R, slots, foreign)
		return append(dst, Instr{Kind: IBinary, Arg: int64(x.Op)}), foreign
	default:
		return append(dst, Instr{Kind: IForeign, Arg: int64(len(foreign))}), append(foreign, e)
	}
}

// errMissing is what evaluating INil reports.
var errMissing = fmt.Errorf("value: missing expression")

// Eval evaluates c with slot s holding locals[s]. A foreign
// instruction evaluates foreign[Arg] under env, which must resolve
// names to the same values. It allocates nothing unless c nests deeper
// than 32 or calls a foreign expression.
func (c Code) Eval(locals []int64, foreign []Expr, env Env) (int64, error) {
	var buf [32]int64
	st := buf[:0]
	for _, in := range c {
		switch in.Kind {
		case IConst:
			st = append(st, in.Arg)
		case ILocal:
			if uint64(in.Arg) >= uint64(len(locals)) {
				return 0, fmt.Errorf("%w: slot %d", ErrUnknownLocal, in.Arg)
			}
			st = append(st, locals[in.Arg])
		case IBinary:
			n := len(st) - 1
			v, err := BinOp(in.Arg).apply(st[n-1], st[n])
			if err != nil {
				return 0, err
			}
			st[n-1] = v
			st = st[:n]
		case IForeign:
			v, err := foreign[in.Arg].Eval(env)
			if err != nil {
				return 0, err
			}
			st = append(st, v)
		default:
			return 0, errMissing
		}
	}
	return st[0], nil
}

// Tree rebuilds the expression c was compiled from, with slot s named
// names[s]: the inverse of Compile, for rendering (Expr.String) only.
func (c Code) Tree(names []string, foreign []Expr) Expr {
	st := make([]Expr, 0, 8)
	for _, in := range c {
		switch in.Kind {
		case IConst:
			st = append(st, Const(in.Arg))
		case ILocal:
			st = append(st, Local(names[in.Arg]))
		case IBinary:
			n := len(st) - 1
			st[n-1] = Binary{Op: BinOp(in.Arg), L: st[n-1], R: st[n]}
			st = st[:n]
		case IForeign:
			st = append(st, foreign[in.Arg])
		default:
			st = append(st, nil)
		}
	}
	return st[0]
}
