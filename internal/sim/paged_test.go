package sim

import (
	"fmt"
	"path/filepath"
	"testing"

	"partialrollback/internal/core"
	"partialrollback/internal/deadlock"
	"partialrollback/internal/entity"
)

// pagedVariant returns w with its store swapped for a paged backend
// whose pool is much smaller than the working set, so the run faults
// and evicts constantly.
func pagedVariant(t *testing.T, w Workload, poolPages int) Workload {
	t.Helper()
	memNew := w.NewStore
	dir := t.TempDir()
	n := 0
	w.NewStore = func() *entity.Store {
		mem := memNew()
		n++
		// Constraints attached inside the workload's NewStore don't
		// survive the Snapshot copy; the byte-identity comparison below
		// is entity-exact, which subsumes them for this test.
		s, err := entity.NewPagedStore(mem.Snapshot(), entity.PagedConfig{
			Path:      filepath.Join(dir, fmt.Sprintf("heap%d.dat", n)),
			PageSize:  128, // 15 slots/page
			PoolPages: poolPages,
		})
		if err != nil {
			t.Fatalf("NewPagedStore: %v", err)
		}
		return s
	}
	return w
}

// TestPagedStoreSequentialRegression pins the backend-equivalence
// guarantee: on a seeded deterministic workload, an engine running
// over the paged store — with a pool far smaller than the entity set,
// so pages evict throughout the run — must reproduce the memory
// backend byte-for-byte: same event stream, same stats, same final
// database, same serial order. This is the `-store mem` identity pin
// from the other side: both backends implement one store contract.
//
// The stripesN labels are the stripe counts of the retired striped
// engine, kept so the test IDs stay stable; N is now the burst size
// both runs step with (0 steps one operation per call).
func TestPagedStoreSequentialRegression(t *testing.T) {
	for _, strat := range []core.Strategy{core.Total, core.MCS} {
		for _, burst := range []int{0, 4} {
			t.Run(fmt.Sprintf("%v/stripes%d", strat, burst), func(t *testing.T) {
				gen := GenConfig{
					Txns: 12, DBSize: 60, HotSet: 8, HotProb: 0.7,
					LocksPerTxn: 4, SharedProb: 0.3, RewriteProb: 0.5,
					PadOps: 2, Shape: Mixed, Seed: 37,
				}
				rc := RunConfig{
					Resolver: deadlock.Detect{},
					Strategy: strat, Scheduler: RoundRobin, Seed: 37,
					RecordHistory: true, CheckInvariants: true,
					Burst: burst,
				}
				// DBSize 60 over 15-slot pages = 4 pages through a
				// 2-frame pool.
				mem := Generate(gen)
				paged := pagedVariant(t, Generate(gen), 2)

				rm, em := collectEvents(t, mem, rc)
				rp, ep := collectEvents(t, paged, rc)

				if rm.Stats != rp.Stats {
					t.Errorf("stats diverge:\n mem   %+v\n paged %+v", rm.Stats, rp.Stats)
				}
				if rm.Steps != rp.Steps {
					t.Errorf("steps diverge: mem %d, paged %d", rm.Steps, rp.Steps)
				}
				if len(em) != len(ep) {
					t.Fatalf("event counts diverge: mem %d, paged %d", len(em), len(ep))
				}
				for i := range em {
					if em[i] != ep[i] {
						t.Fatalf("event %d diverges:\n mem   %s\n paged %s", i, em[i], ep[i])
					}
				}
				sm := snapshotOf(t, rm)
				sp := snapshotOf(t, rp)
				if len(sm) != len(sp) {
					t.Fatalf("snapshot sizes diverge: mem %d, paged %d", len(sm), len(sp))
				}
				for e, v := range sm {
					if sp[e] != v {
						t.Errorf("entity %q = %d paged, %d mem", e, sp[e], v)
					}
				}
				om, err := rm.Recorder.SerialOrder()
				if err != nil {
					t.Fatal(err)
				}
				op, err := rp.Recorder.SerialOrder()
				if err != nil {
					t.Fatal(err)
				}
				if fmt.Sprint(om) != fmt.Sprint(op) {
					t.Errorf("serial orders diverge: mem %v, paged %v", om, op)
				}
			})
		}
	}
}
