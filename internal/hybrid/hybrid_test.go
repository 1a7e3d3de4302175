package hybrid

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"partialrollback/internal/txn"
	"partialrollback/internal/value"
)

// scatteredProg destroys states 1..4 of 5: a@[1,3], b@[3,5].
func scatteredProg() *txn.Program {
	return txn.NewProgram("S").
		Local("x", 0).
		LockX("a"). // 0
		Write("a", value.C(1)).
		LockX("b"). // 1
		LockX("c"). // 2
		Write("a", value.C(2)).
		Write("b", value.C(1)).
		LockX("d"). // 3
		LockX("e"). // 4
		Write("b", value.C(2)).
		MustBuild()
}

func TestDestroyedStates(t *testing.T) {
	w := txn.AnalyzeWrites(scatteredProg())
	// a written at 1 and 3 -> destroys 1,2; b written at 3 and 5 ->
	// destroys 3,4.
	wd := w.StaticWellDefined()
	want := []bool{true, false, false, false, false, true}
	if !reflect.DeepEqual(wd, want) {
		t.Fatalf("well-defined = %v", wd)
	}
	if got := destroyedStates(w); !reflect.DeepEqual(got, []int{1, 2, 3, 4}) {
		t.Errorf("destroyed = %v", got)
	}
}

func TestMinGapAllocator(t *testing.T) {
	w := txn.AnalyzeWrites(scatteredProg())
	// With budget 1, repairing a middle state (2 or 3) cuts the gap
	// 0..5 best.
	got := (MinGap{}).Choose(w, 1)
	if len(got) != 1 || (got[0] != 2 && got[0] != 3) {
		t.Errorf("min-gap budget 1 = %v", got)
	}
	// Budget >= 4 repairs everything.
	if got := (MinGap{}).Choose(w, 10); !reflect.DeepEqual(got, []int{1, 2, 3, 4}) {
		t.Errorf("min-gap budget 10 = %v", got)
	}
	if got := (MinGap{}).Choose(w, 0); len(got) != 0 {
		t.Errorf("budget 0 = %v", got)
	}
}

func TestSpacedAllocator(t *testing.T) {
	w := txn.AnalyzeWrites(scatteredProg())
	got := (Spaced{}).Choose(w, 2)
	if len(got) == 0 || len(got) > 2 {
		t.Errorf("spaced = %v", got)
	}
	for _, q := range got {
		if q < 1 || q > 4 {
			t.Errorf("spaced picked non-destroyed state %d", q)
		}
	}
	if got := (Spaced{}).Choose(w, 99); !reflect.DeepEqual(got, []int{1, 2, 3, 4}) {
		t.Errorf("spaced all = %v", got)
	}
}

func TestStateCheckpointLifecycle(t *testing.T) {
	w := txn.AnalyzeWrites(scatteredProg())
	st := New(w, 2, MinGap{})
	g := st.SDG()
	// Simulate execution: lock, write a, lock, lock, write a, write b...
	g.OnLock() // 1
	g.OnWrite("a")
	if st.Planned(1) {
		// fine either way; just exercise Planned
		_ = st
	}
	// Pretend the engine checkpoints state 2 and 3 when passing them.
	g.OnLock() // 2
	st.TakeCheckpoint(2, []int64{5}, []EntityCopy{{Ent: 0, Val: 1}, {Ent: 1, Val: 7}})
	g.OnLock() // 3
	g.OnWrite("a")
	g.OnWrite("b")
	st.TakeCheckpoint(3, []int64{6}, []EntityCopy{{Ent: 0, Val: 2}, {Ent: 1, Val: 1}})
	g.OnLock() // 4
	g.OnLock() // 5
	g.OnWrite("b")

	// States 1..4 destroyed, but 2 and 3 are checkpointed.
	if st.Restorable(1) {
		t.Error("1 should not be restorable")
	}
	for _, q := range []int{0, 2, 3, 5} {
		if !st.Restorable(q) {
			t.Errorf("%d should be restorable", q)
		}
	}
	if got := st.LatestRestorableAtOrBelow(4); got != 3 {
		t.Errorf("latest <= 4 = %d", got)
	}
	if got := st.LatestRestorableAtOrBelow(1); got != 0 {
		t.Errorf("latest <= 1 = %d", got)
	}

	// Rollback to checkpoint 3 drops later checkpoints and prunes the
	// sdg precisely: b's surviving write is at 3 only.
	if err := st.Rollback(3); err != nil {
		t.Fatal(err)
	}
	if g.LockIndex() != 3 {
		t.Error("lock index")
	}
	if u, ok := g.FirstWrite("b"); !ok || u != 3 {
		t.Errorf("b first write = %d %v", u, ok)
	}
	// With the b@5 write pruned, states... a@[1,3] destroys 1,2; b@3
	// single. Checkpoint at 2 survives.
	if !st.Restorable(2) {
		t.Error("checkpoint 2 must survive")
	}
	if st.Restorable(4) {
		t.Error("state 4 no longer exists")
	}
	cp, ok := st.Checkpoint(3)
	if !ok || cp.Locals[0] != 6 || cp.Copies[0].Val != 2 {
		t.Errorf("checkpoint 3 = %+v %v", cp, ok)
	}
	if st.CheckpointCount() != 2 {
		t.Errorf("count = %d", st.CheckpointCount())
	}
	if st.PeakCopies() == 0 {
		t.Error("peak copies not tracked")
	}

	if err := st.Rollback(1); err == nil {
		t.Error("rollback to unrestorable state must fail")
	}
}

func TestCheckpointIsolation(t *testing.T) {
	w := txn.AnalyzeWrites(scatteredProg())
	st := New(w, 1, nil)
	locals := []int64{1}
	copies := []EntityCopy{{Ent: 0, Val: 2}}
	st.TakeCheckpoint(1, locals, copies)
	locals[0] = 99
	copies[0].Val = 99
	cp, _ := st.Checkpoint(1)
	if cp.Locals[0] != 1 || cp.Copies[0].Val != 2 {
		t.Error("checkpoint aliases caller slices")
	}
}

func TestBudgetZeroIsPureSDG(t *testing.T) {
	w := txn.AnalyzeWrites(scatteredProg())
	st := New(w, 0, MinGap{})
	g := st.SDG()
	for i := 0; i < 5; i++ {
		g.OnLock()
	}
	g.OnWrite("a")
	for q := 0; q <= 5; q++ {
		if st.Restorable(q) != g.WellDefined(q) {
			t.Errorf("budget 0 diverges from SDG at state %d", q)
		}
	}
}

// TestQuickTargetOrdering: for any write log and ideal target q, the
// strategies' realized rollback targets are ordered
// SDG <= Hybrid <= MCS(=q): more copies never force a deeper rollback.
func TestQuickTargetOrdering(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for rep := 0; rep < 300; rep++ {
		// Random synthetic program: n locks with random writes.
		b := txn.NewProgram("P").Local("l", 0)
		n := 2 + rng.Intn(6)
		for k := 0; k < n; k++ {
			b.LockX(fmt.Sprintf("e%d", k))
			for w := 0; w < rng.Intn(3); w++ {
				b.Write(fmt.Sprintf("e%d", rng.Intn(k+1)), value.C(int64(w)))
			}
			if rng.Intn(2) == 0 {
				b.Compute("l", value.Add(value.L("l"), value.C(1)))
			}
		}
		p := b.MustBuild()
		w := txn.AnalyzeWrites(p)
		budget := rng.Intn(4)
		st := New(w, budget, MinGap{})
		g := st.SDG()
		// Simulate the run: locks + writes in program order, taking
		// checkpoints at planned states.
		li := 0
		for _, op := range p.Ops {
			switch op.Kind {
			case txn.OpLockX:
				if st.Planned(li) {
					st.TakeCheckpoint(li, []int64{0}, nil)
				}
				g.OnLock()
				li++
			case txn.OpWrite:
				g.OnWrite("e:" + op.Entity)
			case txn.OpCompute:
				g.OnWrite("l:" + op.Local)
			}
		}
		for q := 0; q <= n; q++ {
			sdgT := g.LatestWellDefinedAtOrBelow(q)
			hybT := st.LatestRestorableAtOrBelow(q)
			if !(sdgT <= hybT && hybT <= q) {
				t.Fatalf("rep %d q=%d: ordering violated: sdg=%d hybrid=%d", rep, q, sdgT, hybT)
			}
		}
	}
}
