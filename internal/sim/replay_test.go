package sim

import (
	"fmt"
	"testing"

	"partialrollback/internal/core"
	"partialrollback/internal/deadlock"
)

// collectEvents runs a workload and returns the result plus the full
// event stream rendered as strings.
func collectEvents(t *testing.T, w Workload, rc RunConfig) (Result, []string) {
	t.Helper()
	var events []string
	rc.OnEvent = func(e core.Event) { events = append(events, e.String()) }
	r, err := Run(w, rc)
	if err != nil {
		t.Fatal(err)
	}
	return r, events
}

// assertSameRun fails unless two runs produced the same stats, step
// count, event stream, final database and serial order.
func assertSameRun(t *testing.T, ra, rb Result, ea, eb []string) {
	t.Helper()
	if ra.Stats != rb.Stats {
		t.Errorf("stats diverge:\n a %+v\n b %+v", ra.Stats, rb.Stats)
	}
	if ra.Steps != rb.Steps {
		t.Errorf("steps diverge: a %d, b %d", ra.Steps, rb.Steps)
	}
	if len(ea) != len(eb) {
		t.Fatalf("event counts diverge: a %d, b %d", len(ea), len(eb))
	}
	for i := range ea {
		if ea[i] != eb[i] {
			t.Fatalf("event %d diverges:\n a %s\n b %s", i, ea[i], eb[i])
		}
	}
	sa := snapshotOf(t, ra)
	sb := snapshotOf(t, rb)
	if len(sa) != len(sb) {
		t.Fatalf("snapshot sizes diverge: a %d, b %d", len(sa), len(sb))
	}
	for e, v := range sa {
		if sb[e] != v {
			t.Errorf("entity %q = %d in b, %d in a", e, sb[e], v)
		}
	}
	oa, err := ra.Recorder.SerialOrder()
	if err != nil {
		t.Fatal(err)
	}
	ob, err := rb.Recorder.SerialOrder()
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(oa) != fmt.Sprint(ob) {
		t.Errorf("serial orders diverge: a %v, b %v", oa, ob)
	}
}

// TestStripedSequentialRegression pins replay determinism: two runs of
// the same seed — workload, random scheduler and engine — must give the
// same event stream, step count, stats, final database and serial
// order. A seeded simulation of the whole node needs exactly this to
// replay a failing schedule.
//
// The stripesN labels are the stripe counts of the retired striped
// engine, kept so the test IDs stay stable; N is now the burst size the
// replayed runs step with.
func TestStripedSequentialRegression(t *testing.T) {
	for _, strat := range []core.Strategy{core.Total, core.MCS, core.SDG} {
		for _, burst := range []int{1, 2, 8} {
			t.Run(fmt.Sprintf("%v/stripes%d", strat, burst), func(t *testing.T) {
				gen := GenConfig{
					Txns: 10, DBSize: 12, HotSet: 6, HotProb: 0.8,
					LocksPerTxn: 4, SharedProb: 0.3, RewriteProb: 0.5,
					PadOps: 2, Shape: Mixed, Seed: 29,
				}
				rc := RunConfig{
					Resolver: deadlock.Detect{},
					Strategy: strat, Scheduler: RandomPick, Seed: 29,
					Burst: burst, RecordHistory: true, CheckInvariants: true,
				}
				ra, ea := collectEvents(t, Generate(gen), rc)
				rb, eb := collectEvents(t, Generate(gen), rc)
				if ra.Stats.Commits == 0 {
					t.Fatal("replayed run committed nothing")
				}
				assertSameRun(t, ra, rb, ea, eb)
			})
		}
	}
}
