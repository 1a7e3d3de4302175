package experiments

import (
	"testing"

	"partialrollback/internal/core"
	"partialrollback/internal/sim"
)

func TestE1(t *testing.T) {
	res, table, err := E1Figure1()
	if err != nil {
		t.Fatal(err)
	}
	if res.Victim != 2 {
		t.Errorf("victim T%d, want T2", res.Victim)
	}
	if len(table.Rows) != 3 {
		t.Errorf("rows = %d", len(table.Rows))
	}
}

func TestE2(t *testing.T) {
	out, _, err := E2Figure2(5)
	if err != nil {
		t.Fatal(err)
	}
	if out["min-cost"].ACommitted {
		t.Error("min-cost should starve A")
	}
	if !out["ordered-min-cost"].ACommitted {
		t.Error("ordered policy should let A commit")
	}
}

func TestE3toE5(t *testing.T) {
	if _, err := E3Figure3(); err != nil {
		t.Fatal(err)
	}
	if _, _, err := E4Figure4(); err != nil {
		t.Fatal(err)
	}
	if _, _, err := E5Figure5(); err != nil {
		t.Fatal(err)
	}
}

func TestE6(t *testing.T) {
	res, _, err := E6Forest(5)
	if err != nil {
		t.Fatal(err)
	}
	if res.ForestViolations != 0 {
		t.Errorf("forest violations = %d, want 0 (Theorem 1)", res.ForestViolations)
	}
	if res.Deadlocks == 0 {
		t.Error("sweep should provoke at least one deadlock")
	}
}

func TestE7BoundIsTight(t *testing.T) {
	rows, _, err := E7MCSBound([]int{2, 3, 5, 8, 16})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r.EntityElems != r.EntityBound {
			t.Errorf("n=%d: entity copies %d, bound %d (Theorem 3 tightness)", r.N, r.EntityElems, r.EntityBound)
		}
		if r.LocalPerLocal != r.LocalBound {
			t.Errorf("n=%d: local copies %d, bound %d", r.N, r.LocalPerLocal, r.LocalBound)
		}
	}
}

func TestE8(t *testing.T) {
	rows, _, err := E8Cutset([]int{3, 5, 8}, 20, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r.Ratio < 1 {
			t.Errorf("greedy beat exact at size %d", r.Participants)
		}
	}
}

func TestE9ShapeHolds(t *testing.T) {
	rows, _, err := E9Strategies(123)
	if err != nil {
		t.Fatal(err)
	}
	byKey := map[string]map[core.Strategy]sim.Result{}
	for _, r := range rows {
		k := ""
		if r.Hot {
			k = "hot"
		}
		k += string(rune('0' + r.Txns))
		if byKey[k] == nil {
			byKey[k] = map[core.Strategy]sim.Result{}
		}
		byKey[k][r.Strategy] = r.Result
	}
	var totalLostTotal, totalLostMCS, totalLostSDG int64
	for _, m := range byKey {
		totalLostTotal += m[core.Total].Stats.OpsLost
		totalLostMCS += m[core.MCS].Stats.OpsLost
		totalLostSDG += m[core.SDG].Stats.OpsLost
		if m[core.MCS].Stats.Restarts > m[core.Total].Stats.Restarts {
			t.Error("MCS restarted more than Total")
		}
	}
	if totalLostMCS >= totalLostTotal {
		t.Errorf("MCS lost %d ops >= Total's %d: partial rollback shows no advantage", totalLostMCS, totalLostTotal)
	}
	if totalLostSDG >= totalLostTotal {
		t.Errorf("SDG lost %d ops >= Total's %d", totalLostSDG, totalLostTotal)
	}
	if totalLostMCS > totalLostSDG {
		t.Errorf("MCS (%d) should lose no more than SDG (%d): MCS targets are at least as shallow", totalLostMCS, totalLostSDG)
	}
}

func TestE10ShapeHolds(t *testing.T) {
	rows, _, err := E10Structure(7)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	scattered, clustered, threePhase := rows[0], rows[1], rows[2]
	if scattered.WellDefRatio >= clustered.WellDefRatio {
		t.Errorf("scattered well-defined ratio %.2f >= clustered %.2f", scattered.WellDefRatio, clustered.WellDefRatio)
	}
	if clustered.WellDefRatio != 1 || threePhase.WellDefRatio != 1 {
		t.Errorf("clustered/three-phase should keep all states well-defined: %.2f, %.2f",
			clustered.WellDefRatio, threePhase.WellDefRatio)
	}
	if scattered.Overshoot <= 0 {
		t.Errorf("scattered SDG overshoot = %d, want > 0", scattered.Overshoot)
	}
	if clustered.Overshoot != 0 {
		t.Errorf("clustered SDG overshoot = %d, want 0 (all states well-defined => SDG targets equal MCS)", clustered.Overshoot)
	}
	if threePhase.Overshoot != 0 {
		t.Errorf("three-phase SDG overshoot = %d, want 0", threePhase.Overshoot)
	}
}

func TestE11(t *testing.T) {
	rows, _, err := E11Distributed(5)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r.Result.Stats.Deadlocks != 0 && r.Result.Stats.Wounds == 0 {
			t.Errorf("sites=%d %v: deadlock detection fired without wounds under wound-wait", r.Sites, r.Strategy)
		}
	}
	// Partial rollback should not lose more than total under the same
	// wound pattern... wounds differ per strategy (different targets),
	// so compare aggregate lost ops.
	sum := map[core.Strategy]int64{}
	for _, r := range rows {
		sum[r.Strategy] += r.Result.Stats.OpsLost
	}
	if sum[core.MCS] >= sum[core.Total] {
		t.Errorf("distributed: MCS lost %d >= Total %d", sum[core.MCS], sum[core.Total])
	}
}

func TestE12(t *testing.T) {
	rows, _, err := E12Avoidance(3)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.Scheme != "detect+partial (MCS)" && r.Deadlocks != 0 {
			t.Errorf("%s produced %d deadlocks; avoidance must have none", r.Scheme, r.Deadlocks)
		}
	}
}

func TestE13HybridRecoversOvershoot(t *testing.T) {
	rows, _, err := E13Hybrid(7)
	if err != nil {
		t.Fatal(err)
	}
	var budget0, maxBudgetMinGap *E13Row
	for i := range rows {
		r := &rows[i]
		if r.Budget == 0 {
			budget0 = r
		}
		if r.Budget == 8 && r.Allocator == "min-gap" {
			maxBudgetMinGap = r
		}
	}
	if budget0 == nil || maxBudgetMinGap == nil {
		t.Fatal("missing rows")
	}
	if budget0.Overshoot <= 0 {
		t.Errorf("budget 0 overshoot = %d, want > 0 on scattered workload", budget0.Overshoot)
	}
	if maxBudgetMinGap.Overshoot >= budget0.Overshoot {
		t.Errorf("budget 8 overshoot %d should be below budget 0's %d", maxBudgetMinGap.Overshoot, budget0.Overshoot)
	}
	if budget0.PeakCopies != 0 {
		t.Errorf("budget 0 used %d extra copies", budget0.PeakCopies)
	}
}

func TestE14OptimizerClusters(t *testing.T) {
	rows, _, err := E14Optimizer(7)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatal("rows")
	}
	orig, opt := rows[0], rows[1]
	if opt.WellDefRatio <= orig.WellDefRatio {
		t.Errorf("optimizer did not raise well-defined ratio: %.2f -> %.2f", orig.WellDefRatio, opt.WellDefRatio)
	}
	if !opt.SemanticsOK {
		t.Error("optimizer changed semantics")
	}
	if opt.MovedWrites == 0 {
		t.Error("no writes moved")
	}
}

func TestE15(t *testing.T) {
	rows, _, err := E15MessagePassing(7)
	if err != nil {
		t.Fatal(err)
	}
	sum := map[core.Strategy]int64{}
	var msgs1, msgs8 int64
	for _, r := range rows {
		sum[r.Strategy] += r.Metrics.LostOps
		if r.Sites == 1 {
			msgs1 += r.Metrics.Total()
		}
		if r.Sites == 8 {
			msgs8 += r.Metrics.Total()
		}
	}
	if msgs1 != 0 {
		t.Errorf("single-site runs sent %d messages", msgs1)
	}
	if msgs8 == 0 {
		t.Error("eight-site runs sent no messages")
	}
	if sum[core.MCS] > sum[core.Total] {
		t.Errorf("distributed MCS lost %d > Total %d", sum[core.MCS], sum[core.Total])
	}
}
