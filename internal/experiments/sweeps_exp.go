package experiments

import (
	"partialrollback/internal/avoidance"
	"partialrollback/internal/core"
	"partialrollback/internal/deadlock"
	"partialrollback/internal/dist"
	"partialrollback/internal/sim"
	"partialrollback/internal/trace"
	"partialrollback/internal/txn"
)

// E9Row is one cell of the strategy-comparison sweep.
type E9Row struct {
	Txns     int
	Hot      bool
	Strategy core.Strategy
	Result   sim.Result
}

// E9Strategies runs the substituted evaluation: identical workloads
// under Total, MCS, and SDG, across concurrency and contention levels.
// The paper's qualitative claim — partial rollback loses substantially
// less progress than total restart — is what the LostOps/LostRatio
// columns quantify.
func E9Strategies(seed int64) ([]E9Row, *Table, error) {
	t := &Table{
		ID:     "E9",
		Title:  "Lost progress: total restart vs partial rollback (MCS, SDG)",
		Header: []string{"txns", "contention", "strategy", "deadlocks", "rollbacks", "restarts", "lost ops", "lost %", "depth p50", "depth p95"},
	}
	var rows []E9Row
	for _, txns := range []int{4, 8, 16, 32} {
		for _, hot := range []bool{false, true} {
			cfg := sim.GenConfig{
				Txns: txns, DBSize: 24, LocksPerTxn: 5,
				RewriteProb: 0.4, PadOps: 3, Shape: sim.Mixed,
				Seed: seed + int64(txns),
			}
			label := "uniform"
			if hot {
				cfg.HotSet, cfg.HotProb = 6, 0.85
				label = "hot-set"
			}
			w := sim.Generate(cfg)
			for _, st := range []core.Strategy{core.Total, core.MCS, core.SDG} {
				rec := trace.NewRecorder(nil)
				r, err := sim.Run(w, sim.RunConfig{
					Resolver: deadlock.Detect{},
					Strategy: st, Scheduler: sim.RoundRobin, Seed: seed,
					OnEvent: rec.Hook(),
				})
				if err != nil {
					return nil, nil, err
				}
				sum := trace.Summarize(rec.Records())
				rows = append(rows, E9Row{Txns: txns, Hot: hot, Strategy: st, Result: r})
				t.Rows = append(t.Rows, []string{
					itoa(int64(txns)), label, st.String(),
					itoa(r.Stats.Deadlocks), itoa(r.Stats.Rollbacks), itoa(r.Stats.Restarts),
					itoa(r.Stats.OpsLost), pct(r.LostRatio),
					itoa(sum.Percentile(50)), itoa(sum.Percentile(95)),
				})
			}
		}
	}
	t.Notes = []string{
		"identical workload and schedule per (txns, contention) triple; only the rollback strategy differs",
		"expected shape: lost ops Total >= SDG >= MCS; restarts only under Total",
	}
	return rows, t, nil
}

// E10Row is one cell of the transaction-structure sweep.
type E10Row struct {
	Shape        sim.WriteShape
	WellDefRatio float64
	// SDG and MCS are the single-copy and multi-copy runs of the same
	// workload and schedule; Overshoot is the extra progress SDG lost
	// because its rollbacks had to retreat past non-well-defined states
	// to reach a restorable one.
	SDG       sim.Result
	MCS       sim.Result
	Overshoot int64
}

// E10Structure quantifies §5: under the single-copy strategy, write
// clustering and the three-phase form raise the fraction of
// well-defined states, eliminating the rollback *overshoot* relative to
// the multi-copy strategy's minimal targets.
func E10Structure(seed int64) ([]E10Row, *Table, error) {
	t := &Table{
		ID:     "E10",
		Title:  "§5 structure: write placement vs single-copy (SDG) rollback overshoot",
		Header: []string{"shape", "well-defined %", "lost ops (MCS)", "lost ops (SDG)", "SDG overshoot", "SDG avg depth"},
	}
	var rows []E10Row
	for _, shape := range []sim.WriteShape{sim.Scattered, sim.Clustered, sim.ThreePhase} {
		w := sim.Generate(sim.GenConfig{
			Txns: 16, DBSize: 16, HotSet: 6, HotProb: 0.8,
			LocksPerTxn: 5, RewriteProb: 0.6, PadOps: 2,
			Shape: shape, Seed: seed,
		})
		// Static well-defined ratio over the workload's programs.
		var wd, states int
		for _, p := range w.Programs {
			a := txn.Analyze(p)
			wd += txn.AnalyzeWrites(p).WellDefinedCount()
			states += a.NumLocks() + 1
		}
		ratio := float64(wd) / float64(states)
		rc := sim.RunConfig{
			Resolver:  deadlock.Detect{},
			Scheduler: sim.RoundRobin, Seed: seed,
		}
		rc.Strategy = core.SDG
		rs, err := sim.Run(w, rc)
		if err != nil {
			return nil, nil, err
		}
		rc.Strategy = core.MCS
		rm, err := sim.Run(w, rc)
		if err != nil {
			return nil, nil, err
		}
		row := E10Row{
			Shape: shape, WellDefRatio: ratio,
			SDG: rs, MCS: rm,
			Overshoot: rs.Stats.OpsLost - rm.Stats.OpsLost,
		}
		rows = append(rows, row)
		t.Rows = append(t.Rows, []string{
			shape.String(), pct(ratio),
			itoa(rm.Stats.OpsLost), itoa(rs.Stats.OpsLost),
			itoa(row.Overshoot), f1(rs.AvgRollbackDepth),
		})
	}
	t.Notes = []string{
		"scattered writes destroy interior states, so single-copy rollbacks overshoot the multi-copy minimum",
		"clustered and three-phase programs keep every lock state well-defined: SDG matches MCS with one copy per entity",
	}
	return rows, t, nil
}

// E11Row is one cell of the distributed sweep.
type E11Row struct {
	Sites    int
	Strategy core.Strategy
	Result   dist.Result
}

// E11Distributed runs §3.3's setting: wound-wait timestamp resolution
// with partial vs total rollback across site counts, accounting lost
// work and simulated messages.
func E11Distributed(seed int64) ([]E11Row, *Table, error) {
	t := &Table{
		ID:     "E11",
		Title:  "§3.3 distributed: wound-wait with partial rollback, message accounting",
		Header: []string{"sites", "strategy", "wounds", "lost ops", "lost %", "messages", "copy ships"},
	}
	var rows []E11Row
	w := sim.Generate(sim.GenConfig{
		Txns: 16, DBSize: 24, HotSet: 8, HotProb: 0.8,
		LocksPerTxn: 5, RewriteProb: 0.4, PadOps: 2,
		Shape: sim.Scattered, Seed: seed,
	})
	for _, sites := range []int{1, 2, 4, 8} {
		for _, st := range []core.Strategy{core.Total, core.MCS, core.SDG} {
			r, err := dist.Run(w, dist.Config{
				Topology:  dist.Topology{Sites: sites},
				Strategy:  st,
				Mode:      deadlock.WoundWait{},
				Scheduler: sim.RoundRobin,
				Seed:      seed,
			})
			if err != nil {
				return nil, nil, err
			}
			rows = append(rows, E11Row{Sites: sites, Strategy: st, Result: r})
			t.Rows = append(t.Rows, []string{
				itoa(int64(sites)), st.String(),
				itoa(r.Stats.Wounds), itoa(r.Stats.OpsLost), pct(r.Sim.LostRatio),
				itoa(r.Messages.Total()), itoa(r.Messages.CopyShips),
			})
		}
	}
	t.Notes = []string{
		"partial rollback keeps its lost-work advantage under timestamp (wound-wait) resolution",
		"the price is extra cross-site copy shipping, the paper's §3.3 caveat",
	}
	return rows, t, nil
}

// E12Row is one cell of the avoidance-vs-detection comparison.
type E12Row struct {
	Scheme    string
	Makespan  int64
	Waits     int64
	Deadlocks int64
	LostOps   int64
}

// E12Avoidance contrasts the intro's avoidance schemes (banker with
// declared claims; hierarchical lock ordering) with detection +
// partial rollback on the same exclusive-lock workload.
func E12Avoidance(seed int64) ([]E12Row, *Table, error) {
	w := sim.Generate(sim.GenConfig{
		Txns: 12, DBSize: 12, HotSet: 6, HotProb: 0.8,
		LocksPerTxn: 4, RewriteProb: 0.3, PadOps: 2,
		Shape: sim.Scattered, Seed: seed,
	})
	var rows []E12Row

	det, err := sim.Run(w, sim.RunConfig{
		Strategy: core.MCS, Resolver: deadlock.Detect{},
		Scheduler: sim.RoundRobin, Seed: seed,
	})
	if err != nil {
		return nil, nil, err
	}
	rows = append(rows, E12Row{
		Scheme: "detect+partial (MCS)", Makespan: det.Steps,
		Waits: det.Stats.Waits, Deadlocks: det.Stats.Deadlocks, LostOps: det.Stats.OpsLost,
	})

	bank, err := avoidance.RunBanker(w, 0)
	if err != nil {
		return nil, nil, err
	}
	rows = append(rows, E12Row{
		Scheme: "banker (claims)", Makespan: bank.Makespan,
		Waits: bank.SafetyWaits + bank.ConflictWaits,
	})

	sorted := avoidance.SortLockOrder(w)
	tree, err := sim.Run(sorted, sim.RunConfig{
		Strategy: core.MCS, Resolver: deadlock.Detect{},
		Scheduler: sim.RoundRobin, Seed: seed,
	})
	if err != nil {
		return nil, nil, err
	}
	rows = append(rows, E12Row{
		Scheme: "ordered locks (tree)", Makespan: tree.Steps,
		Waits: tree.Stats.Waits, Deadlocks: tree.Stats.Deadlocks, LostOps: tree.Stats.OpsLost,
	})

	t := &Table{
		ID:     "E12",
		Title:  "§1 baselines: avoidance (a-priori info) vs detection + partial rollback",
		Header: []string{"scheme", "makespan (steps)", "waits", "deadlocks", "lost ops"},
	}
	for _, r := range rows {
		t.Rows = append(t.Rows, []string{
			r.Scheme, itoa(r.Makespan), itoa(r.Waits), itoa(r.Deadlocks), itoa(r.LostOps),
		})
	}
	t.Notes = []string{
		"avoidance schemes never roll back but require a-priori knowledge (claims or a global lock order)",
		"ordered locks must still wait; the banker additionally delays admissions for safety",
	}
	return rows, t, nil
}
