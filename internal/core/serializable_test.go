package core_test

// These tests check serializability with history.Recorder on the event
// stream. history imports core, so they live in package core_test and
// reach core's test helpers through export_test.go.

import (
	"testing"

	"partialrollback/internal/core"
	"partialrollback/internal/deadlock"
	"partialrollback/internal/entity"
	"partialrollback/internal/history"
	"partialrollback/internal/txn"
	"partialrollback/internal/value"
)

// recorded returns a System over cfg with a history recorder on its
// event stream.
func recorded(cfg core.Config) (*core.System, *history.Recorder) {
	rec := history.NewRecorder()
	cfg.OnEvent = rec.Hook(cfg.OnEvent)
	return core.New(cfg), rec
}

func TestSingleTransactionLifecycle(t *testing.T) {
	store := entity.NewStore(map[string]int64{"a": 10, "b": 20})
	s, rec := recorded(core.Config{Store: store, Strategy: core.MCS})
	p := txn.NewProgram("T").
		Local("x", 0).Local("y", 1).
		LockX("a").
		Read("a", "x").
		Compute("y", value.Add(value.L("x"), value.C(5))).
		Write("a", value.L("y")).
		LockS("b").
		Read("b", "x").
		Unlock("b").
		MustBuild()
	id := s.MustRegister(p)
	core.StepToCommit(t, s, id)
	if got := store.MustGet("a"); got != 15 {
		t.Errorf("a = %d, want 15", got)
	}
	if got := store.MustGet("b"); got != 20 {
		t.Errorf("b = %d", got)
	}
	st, _ := s.Status(id)
	if st != core.StatusCommitted {
		t.Error("status")
	}
	if _, err := rec.CheckSerializable(); err != nil {
		t.Error(err)
	}
	// Stepping a committed transaction is a no-op.
	res, err := s.Step(id)
	if err != nil || res.Outcome != core.AlreadyCommitted {
		t.Errorf("step after commit: %v %v", res.Outcome, err)
	}
}

// runSerially executes programs one after another, alone, on store —
// the ground truth any serializable concurrent execution must match for
// some order.
func runSerially(t *testing.T, store *entity.Store, programs []*txn.Program) {
	t.Helper()
	s := core.New(core.Config{Store: store, Strategy: core.Total})
	for _, p := range programs {
		id := s.MustRegister(p)
		core.StepToCommit(t, s, id)
	}
}

// TestSerialEquivalenceOracle: for every strategy, a concurrent
// deadlocking execution must leave the database exactly as the
// history's equivalent serial order would.
func TestSerialEquivalenceOracle(t *testing.T) {
	entities := []string{"a", "b", "c", "d"}
	mkStore := func() *entity.Store {
		return entity.NewStore(map[string]int64{"a": 11, "b": 23, "c": 5, "d": 8})
	}
	programs := []*txn.Program{
		core.ChainProgram("P1", []string{"a", "b", "c"}, 1),
		core.ChainProgram("P2", []string{"c", "b", "a"}, 2),
		core.ChainProgram("P3", []string{"b", "d", "a"}, 3),
		core.ChainProgram("P4", []string{"d", "c"}, 4),
	}
	for _, strat := range []core.Strategy{core.Total, core.MCS, core.SDG, core.Hybrid} {
		t.Run(strat.String(), func(t *testing.T) {
			store := mkStore()
			s, rec := recorded(core.Config{Store: store, Strategy: strat, Resolver: deadlock.Detect{}})
			ids := make([]txn.ID, len(programs))
			progByID := map[txn.ID]*txn.Program{}
			for i, p := range programs {
				ids[i] = s.MustRegister(p)
				progByID[ids[i]] = p
			}
			core.RunAll(t, s)
			if s.Stats().Deadlocks == 0 {
				t.Log("warning: no deadlocks provoked")
			}
			order, err := rec.SerialOrder()
			if err != nil {
				t.Fatal(err)
			}
			oracle := mkStore()
			var serialProgs []*txn.Program
			for _, id := range order {
				serialProgs = append(serialProgs, progByID[id].Clone())
			}
			runSerially(t, oracle, serialProgs)
			for _, e := range entities {
				got := store.MustGet(e)
				want := oracle.MustGet(e)
				if got != want {
					t.Errorf("%s: entity %q = %d, serial oracle %d (order %v)", strat, e, got, want, order)
				}
			}
		})
	}
}

// TestMultiCycleSharedDeadlockResolved reproduces the Figure 3(c) shape
// inside a full closed run: an exclusive request on a doubly-shared
// entity closes two cycles; the engine must clear both and finish.
func TestMultiCycleSharedDeadlockResolved(t *testing.T) {
	store := entity.NewStore(map[string]int64{"a": 0, "b": 0, "f": 0})
	s, rec := recorded(core.Config{Store: store, Strategy: core.SDG, Resolver: deadlock.Detect{}})
	s.MustRegister(txn.NewProgram("T1").Local("x", 0).
		LockX("a").LockX("b").LockX("f").Read("f", "x").MustBuild())
	s.MustRegister(txn.NewProgram("T2").Local("x", 0).
		LockS("f").Read("f", "x").LockS("a").MustBuild())
	s.MustRegister(txn.NewProgram("T3").Local("x", 0).
		LockS("f").Read("f", "x").LockS("b").MustBuild())
	core.RunAll(t, s)
	if s.Stats().Deadlocks == 0 {
		t.Error("expected a multi-cycle deadlock")
	}
	if _, err := rec.CheckSerializable(); err != nil {
		t.Error(err)
	}
}

func TestSmokeDeadlockEveryStrategy(t *testing.T) {
	for _, strat := range []core.Strategy{core.Total, core.MCS, core.SDG, core.Hybrid} {
		t.Run(strat.String(), func(t *testing.T) {
			store := entity.NewStore(map[string]int64{"a": 100, "b": 200})
			store.AddConstraint(entity.SumConstraint("total", 300, "a", "b"))
			s, rec := recorded(core.Config{Store: store, Strategy: strat, Resolver: deadlock.Detect{}})
			s.MustRegister(core.TransferProg("T1", "a", "b", 10))
			s.MustRegister(core.TransferProg("T2", "b", "a", 5))
			core.RunAll(t, s)
			if err := store.CheckConsistent(); err != nil {
				t.Fatal(err)
			}
			if got := store.MustGet("a"); got != 95 {
				t.Errorf("a = %d, want 95", got)
			}
			if got := store.MustGet("b"); got != 205 {
				t.Errorf("b = %d, want 205", got)
			}
			if s.Stats().Deadlocks == 0 {
				t.Errorf("expected at least one deadlock under round-robin interleaving")
			}
			if _, err := rec.CheckSerializable(); err != nil {
				t.Errorf("serializability: %v", err)
			}
		})
	}
}
