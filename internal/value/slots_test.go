package value

import (
	"errors"
	"testing"
)

// slotView resolves names to slots in a fixed order and holds the
// matching values, so tests can diff compiled slot evaluation against
// the tree-walking Env evaluation of the same expression.
type slotView struct {
	names []string
	vals  []int64
}

func newSlotView(locals map[string]int64) *slotView {
	v := &slotView{}
	for n, x := range locals {
		v.names = append(v.names, n)
		v.vals = append(v.vals, x)
	}
	return v
}

// Slot implements Slots; a name it lacks gets a slot past the values,
// as an undeclared local does in a program's executable form.
func (v *slotView) Slot(name string) int64 {
	for s, n := range v.names {
		if n == name {
			return int64(s)
		}
	}
	v.names = append(v.names, name)
	return int64(len(v.names) - 1)
}

// Local implements Env.
func (v *slotView) Local(name string) (int64, bool) {
	for s, n := range v.names[:len(v.vals)] {
		if n == name {
			return v.vals[s], true
		}
	}
	return 0, false
}

// evalSlots compiles e over v and evaluates the code.
func (v *slotView) evalSlots(e Expr) (int64, error) {
	code, foreign := Compile(nil, e, v, nil)
	return Code(code).Eval(v.vals, foreign, v)
}

func TestEvalSlotsMatchesEval(t *testing.T) {
	locals := map[string]int64{"x": 7, "y": -3, "z": 2}
	v := newSlotView(locals)
	exprs := []Expr{
		C(42),
		L("x"),
		Add(L("x"), C(1)),
		Sub(L("x"), L("y")),
		Mul(Add(L("x"), L("y")), L("z")),
		Div(L("x"), L("z")),
		Mod(L("x"), L("z")),
		Min(L("x"), L("y")),
		Max(L("x"), Mul(L("y"), C(-5))),
		Add(Mul(L("x"), L("x")), Div(Sub(L("y"), C(1)), L("z"))),
	}
	for _, e := range exprs {
		want, werr := e.Eval(MapEnv(locals))
		got, gerr := v.evalSlots(e)
		if want != got || (werr == nil) != (gerr == nil) {
			t.Errorf("%s: slots = %d,%v; eval = %d,%v", e, got, gerr, want, werr)
		}
		code, foreign := Compile(nil, e, v, nil)
		if back := Code(code).Tree(v.names, foreign); back.String() != e.String() {
			t.Errorf("%s: compiled code renders as %s", e, back)
		}
	}
}

func TestEvalSlotsErrorSemantics(t *testing.T) {
	// An unresolved local fails wrapping ErrUnknownLocal, and the *left*
	// failure wins when both sides would fail.
	for _, e := range []Expr{
		L("ghost"),
		Add(L("ghost"), L("x")),
		Add(L("x"), L("ghost")),
		Add(L("ghost"), Div(L("x"), C(0))),
	} {
		got, err := newSlotView(map[string]int64{"x": 1}).evalSlots(e)
		if !errors.Is(err, ErrUnknownLocal) || got != 0 {
			t.Errorf("%s: slots eval = %d, %v; want 0 and ErrUnknownLocal", e, got, err)
		}
	}
	if _, err := newSlotView(map[string]int64{"x": 1}).evalSlots(Add(Div(L("x"), C(0)), L("ghost"))); err != ErrDivideByZero {
		t.Errorf("left division by zero: err = %v, want ErrDivideByZero", err)
	}
	// Division and modulo by zero return the sentinel unwrapped.
	for _, e := range []Expr{Div(L("x"), C(0)), Mod(C(5), Sub(L("x"), C(1)))} {
		if _, err := newSlotView(map[string]int64{"x": 1}).evalSlots(e); err != ErrDivideByZero {
			t.Errorf("%s: err = %v, want ErrDivideByZero", e, err)
		}
	}
	// An unknown operator fails as the tree walker does.
	bad := Binary{Op: BinOp(99), L: C(1), R: C(2)}
	_, werr := bad.Eval(MapEnv{})
	if _, err := newSlotView(nil).evalSlots(bad); err == nil || err.Error() != werr.Error() {
		t.Errorf("unknown operator: err = %v, want %v", err, werr)
	}
}

func TestEvalSlotsZeroAlloc(t *testing.T) {
	v := newSlotView(map[string]int64{"x": 7, "y": 3})
	code, _ := Compile(nil, Add(Mul(L("x"), L("y")), Min(L("x"), C(100))), v, nil)
	want := v.vals[v.Slot("x")]*v.vals[v.Slot("y")] + 7
	if n := testing.AllocsPerRun(200, func() {
		got, err := Code(code).Eval(v.vals, nil, nil)
		if err != nil || got != want {
			t.Fatalf("eval = %d, %v; want %d", got, err, want)
		}
	}); n != 0 {
		t.Fatalf("slot eval allocates %v per run, want 0", n)
	}
}

func TestEvalSlotsForeignExprFallback(t *testing.T) {
	v := newSlotView(map[string]int64{"x": 4})
	e := Add(doubler{L("x")}, C(1))
	got, err := v.evalSlots(e)
	if err != nil || got != 9 {
		t.Fatalf("foreign expr eval = %d, %v; want 9", got, err)
	}
	code, foreign := Compile(nil, e, v, nil)
	if len(foreign) != 1 || Code(code).Tree(v.names, foreign).String() != e.String() {
		t.Fatalf("foreign expr compiled to %v with %v", code, foreign)
	}
}

// doubler is an Expr implementation from outside the package's known
// node set, exercising the Env fallback.
type doubler struct{ inner Expr }

func (d doubler) Eval(env Env) (int64, error) {
	v, err := d.inner.Eval(env)
	return 2 * v, err
}
func (d doubler) Refs(dst []string) []string { return d.inner.Refs(dst) }
func (d doubler) String() string             { return "2*(" + d.inner.String() + ")" }
