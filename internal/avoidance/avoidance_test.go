package avoidance

import (
	"strings"
	"testing"

	"partialrollback/internal/core"
	"partialrollback/internal/deadlock"
	"partialrollback/internal/sim"
	"partialrollback/internal/txn"
)

func xOnlyWorkload(seed int64) sim.Workload {
	return sim.Generate(sim.GenConfig{
		Txns: 8, DBSize: 10, HotSet: 5, HotProb: 0.8,
		LocksPerTxn: 4, RewriteProb: 0.4, Shape: sim.Scattered, Seed: seed,
	})
}

func TestBankerCompletesWithoutDeadlock(t *testing.T) {
	w := xOnlyWorkload(1)
	res, err := RunBanker(w, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Commits != 8 {
		t.Errorf("commits = %d", res.Commits)
	}
	if res.Makespan == 0 {
		t.Error("makespan not recorded")
	}
}

func TestBankerMatchesSerialResult(t *testing.T) {
	// Avoidance never rolls back, so its final state must equal SOME
	// serializable outcome; check consistency by comparing with a
	// detection run's invariants (both must satisfy the store's
	// constraints).
	w := sim.BankingWorkload(5, 12, 300, 9)
	// Banker requires exclusive-only workloads; banking transfers are.
	res, err := RunBanker(w, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Commits != 12 {
		t.Errorf("commits = %d", res.Commits)
	}
}

func TestBankerRejectsSharedLocks(t *testing.T) {
	w := sim.Generate(sim.GenConfig{
		Txns: 4, DBSize: 8, LocksPerTxn: 3, SharedProb: 1.0, Seed: 1,
	})
	if _, err := RunBanker(w, 0); err == nil || !strings.Contains(err.Error(), "exclusive") {
		t.Errorf("want exclusive-only error, got %v", err)
	}
}

func TestSortLockOrderEliminatesDeadlocks(t *testing.T) {
	w := xOnlyWorkload(2)
	sorted := SortLockOrder(w)
	if len(sorted.Programs) != len(w.Programs) {
		t.Fatal("program count changed")
	}
	for _, p := range sorted.Programs {
		if err := txn.Validate(p); err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
		a := txn.Analyze(p)
		reqs := a.Requests
		for i := 1; i < len(reqs); i++ {
			if reqs[i-1].Entity >= reqs[i].Entity {
				t.Fatalf("%s locks out of order: %v then %v", p.Name, reqs[i-1].Entity, reqs[i].Entity)
			}
		}
	}
	r, err := sim.Run(sorted, sim.RunConfig{
		Strategy: core.MCS, Resolver: deadlock.Detect{},
		Scheduler: sim.RoundRobin, RecordHistory: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if r.Stats.Deadlocks != 0 {
		t.Errorf("ordered locking must be deadlock-free, got %d", r.Stats.Deadlocks)
	}
	if _, err := r.Recorder.CheckSerializable(); err != nil {
		t.Error(err)
	}
}

func TestSortPreservesSemantics(t *testing.T) {
	// A sorted program run alone must compute the same result as the
	// original run alone (operations are replayed in order, just with
	// all locks up front).
	w := xOnlyWorkload(3)
	sorted := SortLockOrder(w)
	for i := range w.Programs {
		s1 := runAlone(t, w, i)
		s2 := runAlone(t, sorted, i)
		for e, v := range s1 {
			if s2[e] != v {
				t.Errorf("program %d entity %q: original %d, sorted %d", i, e, v, s2[e])
			}
		}
	}
}

func runAlone(t *testing.T, w sim.Workload, i int) map[string]int64 {
	t.Helper()
	store := w.NewStore()
	s := core.New(core.Config{Store: store, Strategy: core.Total})
	id, err := s.Register(w.Programs[i].Clone())
	if err != nil {
		t.Fatal(err)
	}
	for {
		res, err := s.Step(id)
		if err != nil {
			t.Fatal(err)
		}
		if res.Outcome == core.Committed {
			break
		}
	}
	return store.Snapshot()
}
