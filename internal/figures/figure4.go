package figures

import (
	"fmt"

	"partialrollback/internal/core"
	"partialrollback/internal/deadlock"
	"partialrollback/internal/entity"
	"partialrollback/internal/graph"
	"partialrollback/internal/txn"
	"partialrollback/internal/value"
)

// Figure4Result reproduces §4's state-dependency-graph example.
// Asserted properties from the prose:
//
//   - the six-lock transaction T with scattered writes has no
//     nontrivial well-defined states (only lock indexes 0 and 6);
//   - deleting one write operation yields T' whose lock state with
//     lock index 4 is well-defined;
//   - T' can be rolled back from its final state to lock state 4 by
//     simply releasing the locks it holds on entities E and F;
//   - the well-defined states correspond to articulation points of the
//     state-dependency graph (Corollary 1).
type Figure4Result struct {
	// WellDefinedT / WellDefinedTPrime are the statically well-defined
	// lock states of the two programs.
	WellDefinedT      []int
	WellDefinedTPrime []int
	// DynamicTPrime is the engine's view (single-copy strategy) of T''s
	// well-defined states just before commit; must equal the static
	// view.
	DynamicTPrime []int
	// ArticulationMatches reports that for both programs the
	// articulation points of the exported SDG plus the two trivial
	// endpoints equal the well-defined states.
	ArticulationMatches bool
	// RollbackReleases lists the entities released when T' is rolled
	// back from its final lock state to lock state 4 (want E and F).
	RollbackReleases []string
	// RestoredOK reports that after the rollback T''s surviving local
	// copies and locals match a fresh execution of the same prefix.
	RestoredOK bool
}

// Figure4T builds the paper's T (Figure 4(a) reconstruction): six
// exclusive locks A..F with writes scattered so that every interior
// lock state is destroyed:
//
//	A written at lock indexes 1 and 4  -> destroys states 1,2,3
//	D written at lock indexes 4 and 5  -> destroys state 4
//	B written at lock indexes 5 and 6  -> destroys state 5
//
// With the C<-K style write deleted (see Figure4TPrime), state 4
// becomes well-defined.
func Figure4T(includeDWrite bool) *txn.Program {
	name := "T"
	if !includeDWrite {
		name = "T-prime"
	}
	b := txn.NewProgram(name).
		Local("la", 0).Local("lb", 0).Local("ld", 0)
	b.LockX("A")
	// lock index 1
	b.Read("A", "la")
	b.Write("A", value.Add(value.L("la"), value.C(1)))
	b.LockX("B")
	// lock index 2
	b.Read("B", "lb")
	b.LockX("C")
	// lock index 3
	b.LockX("D")
	// lock index 4
	b.Read("D", "ld")
	b.Write("A", value.Add(value.L("la"), value.C(2)))
	b.Write("D", value.Add(value.L("ld"), value.C(1)))
	b.LockX("E")
	// lock index 5
	if includeDWrite {
		b.Write("D", value.Add(value.L("ld"), value.C(2)))
	}
	b.Write("B", value.Add(value.L("lb"), value.C(1)))
	b.LockX("F")
	// lock index 6
	b.Write("B", value.Add(value.L("lb"), value.C(2)))
	return b.MustBuild()
}

// Figure4Store returns a store for the Figure 4/5 entities.
func Figure4Store() *entity.Store {
	return entity.NewStore(map[string]int64{
		"A": 10, "B": 20, "C": 30, "D": 40, "E": 50, "F": 60,
	})
}

// articulationWellDefined checks Corollary 1 on a program: the interior
// well-defined states of the completed transaction are exactly the
// articulation points of its exported state-dependency graph.
func articulationWellDefined(p *txn.Program) (bool, error) {
	a := txn.Analyze(p)
	w := txn.AnalyzeWrites(p)
	n := a.NumLocks()
	// Build the SDG the way internal/sdg exports it: chain plus write
	// interval edges {u-1, j}.
	g := graph.NewUndirected()
	for q := 0; q <= n; q++ {
		g.AddNode(q)
		if q > 0 {
			g.AddEdge(q-1, q)
		}
	}
	for _, idxs := range w.WriteLockIndexes {
		if len(idxs) > 1 {
			lo := idxs[0] - 1
			if lo < 0 {
				lo = 0
			}
			g.AddEdge(lo, idxs[len(idxs)-1])
		}
	}
	arts := map[int]bool{}
	for _, v := range g.ArticulationPoints() {
		arts[v] = true
	}
	wd := w.StaticWellDefined()
	for q := 1; q < n; q++ {
		if wd[q] != arts[q] {
			return false, fmt.Errorf("state %d: well-defined=%v articulation=%v", q, wd[q], arts[q])
		}
	}
	return true, nil
}

// RunFigure4 executes the scenario and collects all asserted facts.
func RunFigure4() (*Figure4Result, error) {
	progT := Figure4T(true)
	progTP := Figure4T(false)
	res := &Figure4Result{}

	aTP := txn.Analyze(progTP)
	for q, ok := range txn.AnalyzeWrites(progT).StaticWellDefined() {
		if ok {
			res.WellDefinedT = append(res.WellDefinedT, q)
		}
	}
	for q, ok := range txn.AnalyzeWrites(progTP).StaticWellDefined() {
		if ok {
			res.WellDefinedTPrime = append(res.WellDefinedTPrime, q)
		}
	}
	okT, err := articulationWellDefined(progT)
	if err != nil {
		return nil, fmt.Errorf("figure4 T: %w", err)
	}
	okTP, err := articulationWellDefined(progTP)
	if err != nil {
		return nil, fmt.Errorf("figure4 T': %w", err)
	}
	res.ArticulationMatches = okT && okTP

	// Dynamic check: run T' alone under the single-copy strategy up to
	// (but not including) Commit, then compare the engine's
	// well-defined states with the static analysis.
	sys := core.New(core.Config{Store: Figure4Store(), Strategy: core.SDG, Resolver: deadlock.Detect{Policy: deadlock.MinCost{}}})
	id, err := sys.Register(progTP)
	if err != nil {
		return nil, err
	}
	if err := stepN(sys, id, len(progTP.Ops)-1); err != nil {
		return nil, err
	}
	res.DynamicTPrime, err = sys.WellDefinedStates(id)
	if err != nil {
		return nil, err
	}

	// Rollback check: force T' back from its final lock state to state
	// 4 and verify only E and F are released and the surviving state
	// matches a fresh re-execution of the prefix.
	heldBefore := sys.Held(id)
	if err := sys.ForceRollback(id, 4); err != nil {
		return nil, err
	}
	heldAfter := map[string]bool{}
	for _, e := range sys.Held(id) {
		heldAfter[e] = true
	}
	for _, e := range heldBefore {
		if !heldAfter[e] {
			res.RollbackReleases = append(res.RollbackReleases, e)
		}
	}

	// Fresh execution of the same prefix: step a new instance to the
	// same lock state (pc of lock request with lock index 4, i.e. the
	// request for E).
	sys2 := core.New(core.Config{Store: Figure4Store(), Strategy: core.SDG, Resolver: deadlock.Detect{Policy: deadlock.MinCost{}}})
	id2, err := sys2.Register(Figure4T(false))
	if err != nil {
		return nil, err
	}
	reqE := aTP.Requests[4].OpIndex
	if err := stepN(sys2, id2, reqE); err != nil {
		return nil, err
	}
	l1, err := sys.Locals(id)
	if err != nil {
		return nil, err
	}
	l2, err := sys2.Locals(id2)
	if err != nil {
		return nil, err
	}
	res.RestoredOK = fmt.Sprint(l1) == fmt.Sprint(l2)
	for _, e := range sys2.Held(id2) {
		v1, ok1 := sys.LocalCopy(id, e)
		v2, ok2 := sys2.LocalCopy(id2, e)
		if ok1 != ok2 || v1 != v2 {
			res.RestoredOK = false
		}
	}
	return res, nil
}
