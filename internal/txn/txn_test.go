package txn

import (
	"strings"
	"testing"

	"partialrollback/internal/value"
)

func validProgram() *Builder {
	return NewProgram("T").
		Local("x", 0).Local("y", 5).
		LockX("a").
		Read("a", "x").
		Compute("y", value.Add(value.L("x"), value.C(1))).
		Write("a", value.L("y")).
		LockS("b").
		Read("b", "x")
}

func TestBuildValid(t *testing.T) {
	p, err := validProgram().Build()
	if err != nil {
		t.Fatal(err)
	}
	if p.Ops[len(p.Ops)-1].Kind != OpCommit {
		t.Error("missing commit")
	}
	if err := Validate(p); err != nil {
		t.Error(err)
	}
}

func TestBuildAppendsCommitOnce(t *testing.T) {
	p := validProgram().MustBuild()
	n := 0
	for _, op := range p.Ops {
		if op.Kind == OpCommit {
			n++
		}
	}
	if n != 1 {
		t.Errorf("commits = %d", n)
	}
}

func TestValidationErrors(t *testing.T) {
	cases := []struct {
		name string
		b    *Builder
		want string
	}{
		{
			"lock after unlock",
			NewProgram("T").Local("x", 0).LockX("a").Unlock("a").LockX("b"),
			"two-phase",
		},
		{
			"double lock",
			NewProgram("T").Local("x", 0).LockX("a").LockX("a"),
			"already locked",
		},
		{
			"unlock not held",
			NewProgram("T").Local("x", 0).LockX("a").Unlock("b"),
			"not held",
		},
		{
			"read unlocked",
			NewProgram("T").Local("x", 0).Read("a", "x"),
			"unlocked entity",
		},
		{
			"read into undeclared local",
			NewProgram("T").LockX("a").Read("a", "x"),
			"undeclared local",
		},
		{
			"write without exclusive",
			NewProgram("T").Local("x", 0).LockS("a").Write("a", value.C(1)),
			"exclusive lock",
		},
		{
			"write unheld",
			NewProgram("T").Local("x", 0).LockX("a").Write("b", value.C(1)),
			"exclusive lock",
		},
		{
			"write after unlock of target",
			NewProgram("T").Local("x", 0).LockX("a").Unlock("a").Write("a", value.C(1)),
			"exclusive lock",
		},
		{
			"compute before first lock",
			NewProgram("T").Local("x", 0).Compute("x", value.C(1)).LockX("a"),
			"before first lock",
		},
		{
			"expr references undeclared",
			NewProgram("T").Local("x", 0).LockX("a").Write("a", value.L("nope")),
			"undeclared local",
		},
		{
			"compute undeclared dest",
			NewProgram("T").Local("x", 0).LockX("a").Compute("z", value.C(1)),
			"undeclared local",
		},
		{
			"lock after declare",
			NewProgram("T").Local("x", 0).LockX("a").DeclareLastLock().LockX("b"),
			"DeclareLastLock",
		},
		{
			"duplicate local",
			NewProgram("T").Local("x", 0).Local("x", 1).LockX("a"),
			"declared twice",
		},
		{
			"missing write expr",
			NewProgram("T").Local("x", 0).LockX("a").Write("a", nil),
			"missing expression",
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := c.b.Build()
			if err == nil {
				t.Fatalf("want error containing %q, got nil", c.want)
			}
			if !strings.Contains(err.Error(), c.want) {
				t.Errorf("error %q does not contain %q", err, c.want)
			}
		})
	}
}

func TestUnnamedProgramInvalid(t *testing.T) {
	if _, err := NewProgram("").LockX("a").Build(); err == nil {
		t.Error("unnamed program should fail validation")
	}
}

func TestAnalyzeLockIndexes(t *testing.T) {
	p := NewProgram("T").
		Local("x", 0).
		LockX("a"). // request lock index 0
		Read("a", "x").
		Write("a", value.L("x")).
		LockX("b"). // request lock index 1
		Write("a", value.L("x")).
		LockS("c"). // request lock index 2
		Write("b", value.L("x")).
		MustBuild()
	a := Analyze(p)
	if a.NumLocks() != 3 {
		t.Fatalf("locks = %d", a.NumLocks())
	}
	wantReq := []struct {
		entity string
		x      bool
		li     int
	}{{"a", true, 0}, {"b", true, 1}, {"c", false, 2}}
	for i, w := range wantReq {
		r := a.Requests[i]
		if r.Entity != w.entity || r.Exclusive != w.x || r.LockIndex != w.li {
			t.Errorf("request %d = %+v", i, r)
		}
	}
	w := AnalyzeWrites(p)
	if w.EntityLockIndex["b"] != 1 {
		t.Errorf("EntityLockIndex[b] = %d", w.EntityLockIndex["b"])
	}
	// Writes: a at 1 (twice: read sets x at 1 too) and 2; b at 3.
	if got := w.WriteLockIndexes["a"]; len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Errorf("writes to a at %v", got)
	}
	if got := w.WriteLockIndexes["b"]; len(got) != 1 || got[0] != 3 {
		t.Errorf("writes to b at %v", got)
	}
	if got := w.WriteLockIndexes["x"]; len(got) != 1 || got[0] != 1 {
		t.Errorf("writes to local x at %v", got)
	}
	if u, ok := w.FirstWriteLockIndex["a"]; !ok || u != 1 {
		t.Errorf("first write of a = %d, %v", u, ok)
	}
	if rho, ok := w.RestorabilityIndex("a"); !ok || rho != 0 {
		t.Errorf("restorability of a = %d, %v", rho, ok)
	}
	if _, ok := w.RestorabilityIndex("never"); ok {
		t.Error("unwritten target should have no restorability index")
	}
}

func TestStaticWellDefined(t *testing.T) {
	// a written at lock indexes 1 and 3 -> destroys states 1, 2.
	p := NewProgram("T").
		Local("x", 0).
		LockX("a").
		Read("a", "x").
		Write("a", value.L("x")).
		LockX("b").
		LockX("c").
		Write("a", value.L("x")).
		LockX("d").
		MustBuild()
	w := AnalyzeWrites(p)
	wd := w.StaticWellDefined()
	want := []bool{true, false, false, true, true} // states 0..4
	if len(wd) != len(want) {
		t.Fatalf("len = %d", len(wd))
	}
	for q := range want {
		if wd[q] != want[q] {
			t.Errorf("state %d: well-defined = %v, want %v", q, wd[q], want[q])
		}
	}
	if w.WellDefinedCount() != 3 {
		t.Errorf("count = %d", w.WellDefinedCount())
	}
	if w.ClusteringIndex() != 2 {
		t.Errorf("clustering = %d", w.ClusteringIndex())
	}
}

// bruteWellDefined recomputes well-definedness directly from op lock
// indexes: state q is destroyed iff some target has a write at lock
// index <= q and another at lock index > q.
func bruteWellDefined(p *Program) []bool {
	a := Analyze(p)
	n := a.NumLocks()
	wd := make([]bool, n+1)
	for q := 0; q <= n; q++ {
		wd[q] = true
		writes := map[string][]int{}
		li := 0
		for _, op := range p.Ops {
			switch op.Kind {
			case OpLockS, OpLockX:
				li++
			case OpWrite:
				writes[op.Entity] = append(writes[op.Entity], li)
			case OpRead:
				writes[op.Local] = append(writes[op.Local], li)
			case OpCompute:
				writes[op.Local] = append(writes[op.Local], li)
			}
		}
		for _, idxs := range writes {
			atOrBefore, after := false, false
			for _, j := range idxs {
				if j <= q {
					atOrBefore = true
				}
				if j > q {
					after = true
				}
			}
			if atOrBefore && after {
				wd[q] = false
			}
		}
	}
	return wd
}

func TestWellDefinedMatchesBruteForce(t *testing.T) {
	// Note Reads also write their destination local; Analyze must track
	// Read destinations exactly like Compute destinations.
	progs := []*Program{
		validProgram().MustBuild(),
		NewProgram("T2").Local("x", 0).
			LockX("a").Read("a", "x").
			LockX("b").Read("b", "x"). // x written at 1 and 2: destroys 1
			LockX("c").
			MustBuild(),
	}
	for _, p := range progs {
		got := AnalyzeWrites(p).StaticWellDefined()
		want := bruteWellDefined(p)
		for q := range want {
			if got[q] != want[q] {
				t.Errorf("%s state %d: got %v want %v", p.Name, q, got[q], want[q])
			}
		}
	}
}

func TestIsThreePhase(t *testing.T) {
	three := NewProgram("T").
		Local("x", 0).
		LockX("a").Read("a", "x").
		LockX("b").
		DeclareLastLock().
		Write("a", value.L("x")).
		Write("b", value.L("x")).
		MustBuild()
	if !IsThreePhase(three) {
		t.Error("want three-phase")
	}
	noDecl := NewProgram("T").
		Local("x", 0).
		LockX("a").LockX("b").
		Write("a", value.C(1)).Write("b", value.C(1)).
		MustBuild()
	if IsThreePhase(noDecl) {
		t.Error("no DeclareLastLock: not three-phase")
	}
	earlyWrite := NewProgram("T").
		Local("x", 0).
		LockX("a").Write("a", value.C(1)).
		LockX("b").
		DeclareLastLock().
		Write("b", value.C(1)).
		MustBuild()
	if IsThreePhase(earlyWrite) {
		t.Error("write before last lock: not three-phase")
	}
}

func TestCloneIndependence(t *testing.T) {
	p := validProgram().MustBuild()
	c := p.Clone()
	c.Locals["x"] = 99
	if p.Locals["x"] == 99 {
		t.Error("clone shares Locals")
	}
	if len(c.Ops) != len(p.Ops) {
		t.Error("ops differ")
	}
}

func TestLockSetSorted(t *testing.T) {
	p := NewProgram("T").Local("x", 0).
		LockX("zeta").LockX("alpha").LockS("mid").MustBuild()
	got := Analyze(p).LockSet()
	if len(got) != 3 || got[0] != "alpha" || got[1] != "mid" || got[2] != "zeta" {
		t.Errorf("lock set = %v", got)
	}
}

func TestStrings(t *testing.T) {
	p := validProgram().MustBuild()
	s := p.String()
	for _, want := range []string{"LockX(a)", "Read(a -> x)", "Write(a <- y)", "Commit"} {
		if !strings.Contains(s, want) {
			t.Errorf("program string missing %q:\n%s", want, s)
		}
	}
	if ID(3).String() != "T3" || None.String() != "T?" {
		t.Error("ID string")
	}
	if OpLockS.String() != "LockS" || !OpLockX.IsLockRequest() || OpRead.IsLockRequest() {
		t.Error("kind helpers")
	}
}

// TestAnalysisExecutionPlan checks the execution plan the engine runs:
// Compile's locals in name-sorted slot order with their initial values,
// each op's slot and entity index, write targets, and expressions
// compiled over slots computing what the tree walker does.
func TestAnalysisExecutionPlan(t *testing.T) {
	p := NewProgram("plan").
		Local("b", 2).
		Local("a", 1).
		LockX("e1").
		Read("e1", "a").
		Compute("b", value.Add(value.L("a"), value.C(3))).
		Write("e1", value.L("b")).
		MustBuild()
	x := Compile(p)
	if len(x.Locals) != 2 || x.Locals[0] != "a" || x.Locals[1] != "b" {
		t.Fatalf("Locals = %v, want [a b] (slot order sorted by name)", x.Locals)
	}
	if len(x.Init) != 2 || x.Init[0] != 1 || x.Init[1] != 2 {
		t.Fatalf("Init = %v, want [1 2]", x.Init)
	}
	if len(x.Entities) != 1 || x.Entities[0] != "e1" {
		t.Fatalf("Entities = %v, want [e1]", x.Entities)
	}
	w := x.Writes()
	slot := map[string]int32{"a": 0, "b": 1}
	for i, o := range p.Ops {
		xo := x.Ops[i]
		if got := x.Op(i); got.String() != o.String() {
			t.Errorf("op %d renders %s, want %s", i, got, o)
		}
		switch o.Kind {
		case OpRead, OpCompute:
			if xo.Local != slot[o.Local] {
				t.Errorf("op %d (%s): slot %d, want %d", i, o, xo.Local, slot[o.Local])
			}
			if want := "l:" + o.Local; w.OpTarget[i] != want {
				t.Errorf("op %d (%s): OpTarget = %q, want %q", i, o, w.OpTarget[i], want)
			}
		case OpWrite:
			if want := "e:" + o.Entity; w.OpTarget[i] != want {
				t.Errorf("op %d (%s): OpTarget = %q, want %q", i, o, w.OpTarget[i], want)
			}
		default:
			if xo.Local != -1 {
				t.Errorf("op %d (%s): slot %d, want -1", i, o, xo.Local)
			}
			if w.OpTarget[i] != "" {
				t.Errorf("op %d (%s): OpTarget = %q, want empty", i, o, w.OpTarget[i])
			}
		}
		if o.Entity != "" && x.Entities[xo.Ent] != o.Entity {
			t.Errorf("op %d (%s): entity %d", i, o, xo.Ent)
		}
	}
	// Slot evaluation over the plan computes what the tree walker does.
	locals := []int64{10, 0} // a=10, b=0
	for i, o := range p.Ops {
		if o.Kind == OpCompute {
			v, err := x.Expr(i).Eval(locals, x.Foreign, nil)
			if err != nil || v != 13 {
				t.Fatalf("slot compute = %d, %v; want 13", v, err)
			}
		}
	}
}
