package partialrollback_test

import (
	"bytes"
	"testing"

	pr "partialrollback"
)

// TestFacadeQuickstart exercises the public API end to end exactly as
// README's quickstart does.
func TestFacadeQuickstart(t *testing.T) {
	store := pr.NewStore(map[string]int64{"checking": 100, "savings": 200})
	store.AddConstraint(pr.SumConstraint("total", 300, "checking", "savings"))
	rec := pr.NewRecorder()
	sys := pr.New(pr.Config{
		Store:    store,
		Strategy: pr.MCS,
		Resolver: pr.Detect{Policy: pr.OrderedMinCost{}},
		OnEvent:  rec.OnEvent,
	})
	a := sys.MustRegister(pr.NewProgram("to-savings").
		Local("c", 0).Local("s", 0).
		LockX("checking").Read("checking", "c").
		LockX("savings").Read("savings", "s").
		Write("checking", pr.Sub(pr.L("c"), pr.C(25))).
		Write("savings", pr.Add(pr.L("s"), pr.C(25))).
		MustBuild())
	b := sys.MustRegister(pr.NewProgram("to-checking").
		Local("c", 0).Local("s", 0).
		LockX("savings").Read("savings", "s").
		LockX("checking").Read("checking", "c").
		Write("savings", pr.Sub(pr.L("s"), pr.C(10))).
		Write("checking", pr.Add(pr.L("c"), pr.C(10))).
		MustBuild())
	for !sys.AllCommitted() {
		for _, id := range []pr.TxnID{a, b} {
			if _, err := sys.Step(id); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := store.CheckConsistent(); err != nil {
		t.Fatal(err)
	}
	if got := store.MustGet("checking"); got != 85 {
		t.Errorf("checking = %d", got)
	}
	if got := store.MustGet("savings"); got != 215 {
		t.Errorf("savings = %d", got)
	}
	if sys.Stats().Deadlocks == 0 {
		t.Error("round-robin opposite-order transfers must deadlock")
	}
	if _, err := rec.CheckSerializable(); err != nil {
		t.Error(err)
	}
}

func TestFacadeConcurrentRun(t *testing.T) {
	store := pr.NewUniformStore("e", 6, 10)
	var progs []*pr.Program
	progs = append(progs,
		pr.NewProgram("P1").Local("v", 0).
			LockX("e0").Read("e0", "v").
			LockX("e1").Write("e1", pr.Add(pr.L("v"), pr.C(1))).MustBuild(),
		pr.NewProgram("P2").Local("v", 0).
			LockX("e1").Read("e1", "v").
			LockX("e0").Write("e0", pr.Add(pr.L("v"), pr.C(1))).MustBuild(),
		pr.NewProgram("P3").Local("v", 0).
			LockS("e2").Read("e2", "v").MustBuild(),
	)
	out, err := pr.RunConcurrent(store, progs, pr.RunOptions{
		Strategy: pr.SDG, Resolver: pr.Detect{Policy: pr.OrderedMinCost{}}, RecordHistory: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if out.Stats.Commits != 3 {
		t.Errorf("commits = %d", out.Stats.Commits)
	}
	if _, err := out.Recorder.CheckSerializable(); err != nil {
		t.Error(err)
	}
}

func TestFacadeHelpers(t *testing.T) {
	p := pr.NewProgram("T").Local("x", 0).
		LockX("a").
		DeclareLastLock().
		Write("a", pr.Max(pr.Min(pr.L("x"), pr.C(5)), pr.Div(pr.C(10), pr.C(2)))).
		MustBuild()
	if err := pr.Validate(p); err != nil {
		t.Fatal(err)
	}
	if !pr.IsThreePhase(p) {
		t.Error("three-phase")
	}
}

func TestFacadeWAL(t *testing.T) {
	var buf bytes.Buffer
	store := pr.NewStore(map[string]int64{"a": 1, "b": 2})
	w := pr.NewWALWriter(&buf, 1)
	w.Attach(store)
	sys := pr.New(pr.Config{Store: store, Strategy: pr.MCS})
	id := sys.MustRegister(pr.NewProgram("T").Local("x", 0).
		LockX("a").Read("a", "x").
		Write("a", pr.Add(pr.L("x"), pr.C(41))).
		MustBuild())
	for {
		res, err := sys.Step(id)
		if err != nil {
			t.Fatal(err)
		}
		if res.Outcome == pr.Committed {
			break
		}
	}
	recovered := pr.NewStore(map[string]int64{"a": 1, "b": 2})
	applied, next, damage := pr.RecoverWAL(bytes.NewReader(buf.Bytes()), recovered)
	if damage != nil || applied != 1 || next != 2 {
		t.Fatalf("recover: applied=%d next=%d damage=%v", applied, next, damage)
	}
	if recovered.MustGet("a") != 42 {
		t.Errorf("a = %d", recovered.MustGet("a"))
	}
}
