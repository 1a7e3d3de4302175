package runtime

import (
	"fmt"
	"path/filepath"
	"testing"

	"partialrollback/internal/core"
	"partialrollback/internal/deadlock"
	"partialrollback/internal/entity"
	"partialrollback/internal/sim"
)

// TestConcurrentPagedBank runs the banking workload (run with -race)
// over a paged store whose pool is far smaller than the working set,
// so the run evicts and faults throughout, while concurrent clients
// drive transfers. The sum invariant must hold on the final state and
// the history must serialize — the eviction×pinning interplay must be
// invisible to correctness.
//
// The stripesN labels are the stripe counts of the retired striped
// engine, kept so the test IDs stay stable; N now only offsets the
// workload seed (61+N).
func TestConcurrentPagedBank(t *testing.T) {
	const (
		accounts  = 64
		transfers = 48
		balance   = 100
	)
	for _, n := range []int{1, 4} {
		t.Run(fmt.Sprintf("stripes%d", n), func(t *testing.T) {
			w := sim.BankingWorkload(accounts, transfers, balance, int64(61+n))
			// 64 accounts over 15-slot pages = 5 pages through a
			// 2-frame pool: every transaction's pins contend with
			// eviction pressure from every other.
			store, err := entity.NewUniformPagedStore("acct", accounts, balance, entity.PagedConfig{
				Path:      filepath.Join(t.TempDir(), "heap.dat"),
				PageSize:  128,
				PoolPages: 2,
			})
			if err != nil {
				t.Fatal(err)
			}
			defer store.Close()
			names := make([]string, accounts)
			for i := range names {
				names[i] = fmt.Sprintf("acct%d", i)
			}
			store.AddConstraint(entity.SumConstraint("balance-sum", accounts*balance, names...))
			store.AddConstraint(entity.NonNegativeConstraint("no-overdraft", names...))

			out, err := Run(store, w.Programs, Options{
				Resolver: deadlock.Detect{},
				Strategy: core.MCS, RecordHistory: true,
			})
			if err != nil {
				t.Fatal(err)
			}
			if err := store.CheckConsistent(); err != nil {
				t.Fatal(err)
			}
			if out.Stats.Commits != transfers {
				t.Errorf("commits = %d, want %d", out.Stats.Commits, transfers)
			}
			if err := out.System.CheckInvariants(); err != nil {
				t.Error(err)
			}
			if _, err := out.Recorder.CheckSerializable(); err != nil {
				t.Error(err)
			}
			st := store.PoolStats()
			if st.Evictions == 0 {
				t.Errorf("5-page working set through a 2-frame pool never evicted: %+v", st)
			}
			if st.PinnedPages != 0 {
				t.Errorf("%d pages still pinned after all transactions finished", st.PinnedPages)
			}
		})
	}
}
