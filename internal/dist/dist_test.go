package dist

import (
	"testing"

	"partialrollback/internal/core"
	"partialrollback/internal/deadlock"
	"partialrollback/internal/sim"
)

func workload(seed int64) sim.Workload {
	return sim.Generate(sim.GenConfig{
		Txns: 10, DBSize: 16, HotSet: 6, HotProb: 0.8,
		LocksPerTxn: 4, RewriteProb: 0.4, Shape: sim.Mixed, Seed: seed,
	})
}

func TestSiteAssignmentStable(t *testing.T) {
	tp := Topology{Sites: 4}
	if tp.SiteOf("e1") != tp.SiteOf("e1") {
		t.Error("hash placement must be stable")
	}
	tp2 := Topology{Sites: 4, EntitySite: map[string]int{"e1": 3}}
	if tp2.SiteOf("e1") != 3 {
		t.Error("override ignored")
	}
	spread := map[int]bool{}
	for _, e := range []string{"a", "b", "c", "d", "e", "f", "g", "h"} {
		s := tp.SiteOf(e)
		if s < 0 || s >= 4 {
			t.Fatalf("site %d out of range", s)
		}
		spread[s] = true
	}
	if len(spread) < 2 {
		t.Error("hash should spread entities over sites")
	}
}

func TestRunValidation(t *testing.T) {
	w := workload(1)
	if _, err := Run(w, Config{Topology: Topology{Sites: 0}, Mode: deadlock.WoundWait{}}); err == nil {
		t.Error("zero sites accepted")
	}
	if _, err := Run(w, Config{Topology: Topology{Sites: 2}, Mode: deadlock.Detect{}}); err == nil {
		t.Error("detection mode accepted")
	}
	tuned := deadlock.WaitDie{Detect: deadlock.Detect{StarvationLimit: 3}}
	if _, err := Run(w, Config{Topology: Topology{Sites: 2}, Mode: tuned}); err == nil {
		t.Error("wait-die with a tuned safety net accepted")
	}
}

func TestWoundWaitCompletesAndCounts(t *testing.T) {
	for _, strat := range []core.Strategy{core.Total, core.MCS, core.SDG} {
		r, err := Run(workload(2), Config{
			Topology:  Topology{Sites: 4},
			Strategy:  strat,
			Mode:      deadlock.WoundWait{},
			Scheduler: sim.RoundRobin,
		})
		if err != nil {
			t.Fatalf("%v: %v", strat, err)
		}
		if r.Sim.Committed != 10 {
			t.Errorf("%v: commits %d", strat, r.Sim.Committed)
		}
		if r.Messages.Total() == 0 {
			t.Errorf("%v: no messages counted", strat)
		}
		if r.Messages.Wounds != r.Stats.Wounds {
			t.Errorf("wound accounting mismatch: %d vs %d", r.Messages.Wounds, r.Stats.Wounds)
		}
	}
}

func TestWaitDieCompletes(t *testing.T) {
	r, err := Run(workload(3), Config{
		Topology:  Topology{Sites: 2},
		Strategy:  core.Total,
		Mode:      deadlock.WaitDie{},
		Scheduler: sim.RoundRobin,
	})
	if err != nil {
		t.Fatal(err)
	}
	if r.Sim.Committed != 10 {
		t.Errorf("commits %d", r.Sim.Committed)
	}
	if r.Stats.Dies == 0 {
		t.Error("contended wait-die run should record dies")
	}
}

func TestSingleSiteHasNoRemoteTraffic(t *testing.T) {
	r, err := Run(workload(4), Config{
		Topology:  Topology{Sites: 1},
		Strategy:  core.MCS,
		Mode:      deadlock.WoundWait{},
		Scheduler: sim.RoundRobin,
	})
	if err != nil {
		t.Fatal(err)
	}
	if r.Messages.LockRequests != 0 {
		t.Errorf("single site should have no remote lock requests, got %d", r.Messages.LockRequests)
	}
}

func TestMoreSitesMoreMessages(t *testing.T) {
	prev := int64(-1)
	for _, sites := range []int{1, 2, 8} {
		r, err := Run(workload(5), Config{
			Topology:  Topology{Sites: sites},
			Strategy:  core.MCS,
			Mode:      deadlock.WoundWait{},
			Scheduler: sim.RoundRobin,
		})
		if err != nil {
			t.Fatal(err)
		}
		total := r.Messages.LockRequests
		if total < prev {
			t.Errorf("sites=%d remote lock traffic %d decreased from %d", sites, total, prev)
		}
		prev = total
	}
}
