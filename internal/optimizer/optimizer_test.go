package optimizer

import (
	"testing"

	"partialrollback/internal/entity"
	"partialrollback/internal/sim"
	"partialrollback/internal/txn"
	"partialrollback/internal/value"
)

func storeABC() func() *entity.Store {
	return func() *entity.Store {
		return entity.NewStore(map[string]int64{"A": 3, "B": 5, "C": 7})
	}
}

func TestMovesIndependentWrites(t *testing.T) {
	p := txn.NewProgram("T").
		Local("a", 0).Local("b", 0).
		LockX("A").Read("A", "a").
		Write("A", value.Add(value.L("a"), value.C(1))).
		LockX("B").Read("B", "b").
		Write("A", value.Add(value.L("a"), value.C(2))). // scatters A
		Write("B", value.Add(value.L("b"), value.C(1))).
		MustBuild()
	before := txn.AnalyzeWrites(p).WellDefinedCount()
	res, err := ClusterWrites(p)
	if err != nil {
		t.Fatal(err)
	}
	if res.MovedWrites != 3 {
		t.Errorf("moved = %d, want 3", res.MovedWrites)
	}
	if !txn.IsThreePhase(res.Program) {
		t.Error("fully movable program should become three-phase")
	}
	after := txn.AnalyzeWrites(res.Program).WellDefinedCount()
	if after <= before {
		t.Errorf("well-defined count %d -> %d", before, after)
	}
	ok, err := Equivalent(p, res.Program, storeABC())
	if err != nil || !ok {
		t.Errorf("not equivalent: %v", err)
	}
}

func TestKeepsWriteReadLater(t *testing.T) {
	// A is written, then re-read: the write must stay.
	p := txn.NewProgram("T").
		Local("a", 0).Local("b", 0).
		LockX("A").Read("A", "a").
		Write("A", value.Add(value.L("a"), value.C(1))).
		LockX("B").
		Read("A", "b"). // observes the write
		Write("B", value.L("b")).
		MustBuild()
	res, err := ClusterWrites(p)
	if err != nil {
		t.Fatal(err)
	}
	if res.KeptWrites != 1 {
		t.Errorf("kept = %d, want 1 (write to A)", res.KeptWrites)
	}
	if res.MovedWrites != 1 {
		t.Errorf("moved = %d, want 1 (write to B)", res.MovedWrites)
	}
	ok, err := Equivalent(p, res.Program, storeABC())
	if err != nil || !ok {
		t.Errorf("not equivalent: %v", err)
	}
}

func TestKeepsWriteWhoseOperandIsReassignedByKeptOp(t *testing.T) {
	// Write(A, a) followed by Read(C, a): the read reassigns the
	// write's operand and reads never move, so the write must stay.
	p := txn.NewProgram("T").
		Local("a", 0).
		LockX("A").Read("A", "a").
		LockX("C").
		Write("A", value.Add(value.L("a"), value.C(1))).
		Read("C", "a").
		Write("C", value.L("a")).
		MustBuild()
	res, err := ClusterWrites(p)
	if err != nil {
		t.Fatal(err)
	}
	if res.KeptWrites != 1 {
		t.Errorf("kept = %d, want 1 (write to A)", res.KeptWrites)
	}
	ok, err := Equivalent(p, res.Program, storeABC())
	if err != nil || !ok {
		t.Errorf("not equivalent: %v", err)
	}
}

func TestSameEntityWriteOrderPreserved(t *testing.T) {
	// Both writes to A movable: relative order must survive so the
	// final value is the second write's.
	p := txn.NewProgram("T").
		Local("a", 0).
		LockX("A").Read("A", "a").
		Write("A", value.C(10)).
		LockX("B").
		Write("A", value.C(20)).
		MustBuild()
	res, err := ClusterWrites(p)
	if err != nil {
		t.Fatal(err)
	}
	ok, err := Equivalent(p, res.Program, storeABC())
	if err != nil || !ok {
		t.Error("order not preserved")
	}
}

func TestUnlockingProgramsUntouched(t *testing.T) {
	p := txn.NewProgram("T").
		Local("a", 0).
		LockX("A").Read("A", "a").
		Write("A", value.Add(value.L("a"), value.C(1))).
		Unlock("A").
		MustBuild()
	res, err := ClusterWrites(p)
	if err != nil {
		t.Fatal(err)
	}
	if res.Program != p || res.MovedWrites != 0 {
		t.Error("shrink-phase program must be left untouched")
	}
}

func TestComputeChainMoves(t *testing.T) {
	// A cross-interval accumulator (the §5 anti-pattern) moves wholesale.
	p := txn.NewProgram("T").
		Local("acc", 0).Local("a", 0).Local("b", 0).
		LockX("A").Read("A", "a").
		Compute("acc", value.Add(value.L("acc"), value.L("a"))).
		LockX("B").Read("B", "b").
		Compute("acc", value.Add(value.L("acc"), value.L("b"))).
		LockX("C").
		Write("C", value.L("acc")).
		MustBuild()
	if txn.AnalyzeWrites(p).WellDefinedCount() == 4 {
		t.Fatal("test premise: accumulator should destroy states")
	}
	res, err := ClusterWrites(p)
	if err != nil {
		t.Fatal(err)
	}
	if res.MovedComputes != 2 {
		t.Errorf("moved computes = %d, want 2", res.MovedComputes)
	}
	a := txn.Analyze(res.Program)
	if w := txn.AnalyzeWrites(res.Program); w.WellDefinedCount() != a.NumLocks()+1 {
		t.Errorf("optimized program still destroys states: %v", w.StaticWellDefined())
	}
	ok, err := Equivalent(p, res.Program, storeABC())
	if err != nil || !ok {
		t.Errorf("not equivalent: %v", err)
	}
}

func TestNothingToMoveReturnsOriginal(t *testing.T) {
	p := txn.NewProgram("T").
		Local("a", 0).
		LockX("A").Read("A", "a").
		MustBuild()
	res, err := ClusterWrites(p)
	if err != nil {
		t.Fatal(err)
	}
	if res.Program != p {
		t.Error("read-only program should be returned unchanged")
	}
}

// TestPropertyGeneratedWorkloadsEquivalent transforms every generated
// program across shapes and seeds and verifies solo-run equivalence —
// the optimizer's central safety property.
func TestPropertyGeneratedWorkloadsEquivalent(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		for _, shape := range []sim.WriteShape{sim.Scattered, sim.Clustered, sim.Mixed} {
			w := sim.Generate(sim.GenConfig{
				Txns: 6, DBSize: 10, LocksPerTxn: 5,
				SharedProb: 0.2, RewriteProb: 0.7, PadOps: 2,
				Shape: shape, Seed: seed,
			})
			for _, p := range w.Programs {
				res, err := ClusterWrites(p)
				if err != nil {
					t.Fatalf("seed %d %s %s: %v", seed, shape, p.Name, err)
				}
				ok, err := Equivalent(p, res.Program, w.NewStore)
				if err != nil {
					t.Fatalf("seed %d %s %s: %v", seed, shape, p.Name, err)
				}
				if !ok {
					t.Errorf("seed %d %s: %s transformation changed semantics", seed, shape, p.Name)
				}
				after := txn.AnalyzeWrites(res.Program)
				before := txn.AnalyzeWrites(p)
				if after.WellDefinedCount() < before.WellDefinedCount() {
					t.Errorf("seed %d %s: %s lost well-defined states", seed, shape, p.Name)
				}
			}
		}
	}
}
