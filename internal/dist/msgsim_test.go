package dist

import (
	"fmt"
	"testing"

	"partialrollback/internal/core"
	"partialrollback/internal/entity"
	"partialrollback/internal/sim"
	"partialrollback/internal/txn"
	"partialrollback/internal/value"
)

func msgWorkload(seed int64, tp Topology) sim.Workload {
	w := sim.Generate(sim.GenConfig{
		Txns: 10, DBSize: 12, HotSet: 6, HotProb: 0.8,
		LocksPerTxn: 4, RewriteProb: 0.5, Shape: sim.Mixed, Seed: seed,
	})
	return SiteOrder(w, tp)
}

// replaySerial runs the workload's programs sequentially in the given
// order and returns the final snapshot.
func replaySerial(t *testing.T, w sim.Workload, order []txn.ID) map[string]int64 {
	t.Helper()
	store := w.NewStore()
	s := core.New(core.Config{Store: store, Strategy: core.Total})
	for _, id := range order {
		nid, err := s.Register(w.Programs[int(id)-1].Clone())
		if err != nil {
			t.Fatal(err)
		}
		for {
			res, err := s.Step(nid)
			if err != nil {
				t.Fatal(err)
			}
			if res.Outcome == core.Committed {
				break
			}
			if res.Outcome != core.Progressed {
				t.Fatalf("serial replay blocked: %v", res.Outcome)
			}
		}
	}
	return store.Snapshot()
}

func TestMsgRunSerializableAcrossMatrix(t *testing.T) {
	for _, sites := range []int{1, 2, 4} {
		for _, strat := range []core.Strategy{core.Total, core.MCS, core.SDG} {
			for _, latency := range []int64{1, 10} {
				name := fmt.Sprintf("sites%d/%v/lat%d", sites, strat, latency)
				t.Run(name, func(t *testing.T) {
					tp := Topology{Sites: sites}
					w := msgWorkload(3, tp)
					res, err := MsgRun(w, MsgConfig{
						Topology: tp, Strategy: strat,
						Latency: latency, RecordHistory: true,
					})
					if err != nil {
						t.Fatal(err)
					}
					if res.Metrics.Commits != int64(len(w.Programs)) {
						t.Fatalf("commits = %d", res.Metrics.Commits)
					}
					if _, err := res.Recorder.CheckSerializable(); err != nil {
						t.Fatal(err)
					}
					order, err := res.Recorder.SerialOrder()
					if err != nil {
						t.Fatal(err)
					}
					want := replaySerial(t, w, order)
					for e, wv := range want {
						if got := res.Store.MustGet(e); got != wv {
							t.Errorf("entity %q = %d, serial oracle %d", e, got, wv)
						}
					}
				})
			}
		}
	}
}

func TestMsgRunProvokesLocalDeadlocks(t *testing.T) {
	tp := Topology{Sites: 2}
	w := msgWorkload(5, tp)
	res, err := MsgRun(w, MsgConfig{Topology: tp, Strategy: core.MCS})
	if err != nil {
		t.Fatal(err)
	}
	if res.Metrics.Deadlocks == 0 {
		t.Skip("no deadlock on this seed")
	}
	var sum int64
	for _, d := range res.Metrics.PerSiteDeadlocks {
		sum += d
	}
	if sum != res.Metrics.Deadlocks {
		t.Errorf("per-site deadlocks %d != total %d", sum, res.Metrics.Deadlocks)
	}
}

func TestMsgRunPartialBeatsTotal(t *testing.T) {
	tp := Topology{Sites: 3}
	var sumTotal, sumMCS int64
	var rolledBack bool
	for seed := int64(1); seed <= 8; seed++ {
		w := msgWorkload(seed, tp)
		lost := map[core.Strategy]int64{}
		for _, strat := range []core.Strategy{core.Total, core.MCS} {
			res, err := MsgRun(w, MsgConfig{Topology: tp, Strategy: strat})
			if err != nil {
				t.Fatal(err)
			}
			lost[strat] = res.Metrics.LostOps
		}
		if lost[core.Total] > 0 {
			rolledBack = true
		}
		sumTotal += lost[core.Total]
		sumMCS += lost[core.MCS]
	}
	if !rolledBack {
		t.Fatal("eight seeds produced no rollbacks; workload too tame")
	}
	if sumMCS >= sumTotal {
		t.Errorf("MCS lost %d >= Total %d over 8 seeds", sumMCS, sumTotal)
	}
}

func TestMsgRunSingleSiteNoRemoteTraffic(t *testing.T) {
	tp := Topology{Sites: 1}
	w := msgWorkload(2, tp)
	res, err := MsgRun(w, MsgConfig{Topology: tp, Strategy: core.MCS})
	if err != nil {
		t.Fatal(err)
	}
	if res.Metrics.Total() != 0 {
		t.Errorf("single site produced %d inter-site messages", res.Metrics.Total())
	}
}

func TestMsgRunRejectsUnorderedPrograms(t *testing.T) {
	tp := Topology{Sites: 4, EntitySite: map[string]int{"a": 3, "b": 0}}
	store := func() *entity.Store { return entity.NewStore(map[string]int64{"a": 0, "b": 0}) }
	p := txn.NewProgram("bad").Local("x", 0).LockX("a").LockX("b").MustBuild()
	w := sim.Workload{Name: "bad", NewStore: store, Programs: []*txn.Program{p}}
	if _, err := MsgRun(w, MsgConfig{Topology: tp, Strategy: core.MCS}); err == nil {
		t.Fatal("site-order violation accepted")
	}
	fixed := SiteOrder(w, tp)
	if _, err := MsgRun(fixed, MsgConfig{Topology: tp, Strategy: core.MCS}); err != nil {
		t.Fatalf("SiteOrder did not fix it: %v", err)
	}
}

func TestSiteOrderPreservesSemantics(t *testing.T) {
	tp := Topology{Sites: 3}
	w := sim.Generate(sim.GenConfig{
		Txns: 6, DBSize: 10, LocksPerTxn: 4, RewriteProb: 0.6,
		SharedProb: 0.2, Shape: sim.Scattered, Seed: 9,
	})
	sited := SiteOrder(w, tp)
	for i := range w.Programs {
		a := snapshotAlone(t, w, i)
		b := snapshotAlone(t, sited, i)
		for e, v := range a {
			if b[e] != v {
				t.Errorf("program %d entity %q: %d vs %d", i, e, v, b[e])
			}
		}
	}
}

func snapshotAlone(t *testing.T, w sim.Workload, i int) map[string]int64 {
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

func TestMsgRunDeterministic(t *testing.T) {
	tp := Topology{Sites: 2}
	w := msgWorkload(11, tp)
	r1, err := MsgRun(w, MsgConfig{Topology: tp, Strategy: core.SDG})
	if err != nil {
		t.Fatal(err)
	}
	r2, err := MsgRun(w, MsgConfig{Topology: tp, Strategy: core.SDG})
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(r1.Metrics) != fmt.Sprint(r2.Metrics) {
		t.Errorf("metrics differ:\n%+v\n%+v", r1.Metrics, r2.Metrics)
	}
	if fmt.Sprint(r1.Store.Snapshot()) != fmt.Sprint(r2.Store.Snapshot()) {
		t.Error("final states differ")
	}
}

// TestMsgRunDetectsCycleThroughSharedGrant: a shared request granted
// past a queued exclusive waiter makes that waiter wait for the new
// holder too, and the cycle that arc closes must be detected. T1 holds
// a shared; T2 holds b and queues for a exclusive behind T1; T3 is
// granted a shared past T2, then requests b: T3 waits for T2, which
// waits for T3 over the arc T2 -a-> T3 that T3's grant added. Missing
// that arc leaves T2 and T3 waiting on each other forever, and MsgRun
// fails with "T2 never committed".
func TestMsgRunDetectsCycleThroughSharedGrant(t *testing.T) {
	pad := func(b *txn.Builder, n int) *txn.Builder {
		for i := 0; i < n; i++ {
			b = b.Compute("x", value.Add(value.L("x"), value.C(1)))
		}
		return b
	}
	w := sim.Workload{
		Name: "shared-grant-cycle",
		NewStore: func() *entity.Store {
			return entity.NewStore(map[string]int64{"a": 0, "b": 0, "c": 0})
		},
		Programs: []*txn.Program{
			pad(txn.NewProgram("T1").Local("x", 0).LockS("a"), 12).MustBuild(),
			txn.NewProgram("T2").Local("x", 0).LockX("b").LockX("a").MustBuild(),
			pad(txn.NewProgram("T3").Local("x", 0).LockX("c"), 3).LockS("a").LockX("b").MustBuild(),
		},
	}
	res, err := MsgRun(w, MsgConfig{Topology: Topology{Sites: 1}, Strategy: core.MCS})
	if err != nil {
		t.Fatal(err)
	}
	if res.Metrics.Deadlocks == 0 {
		t.Fatal("no deadlock detected")
	}
}
