package runtime

import (
	"errors"
	"fmt"
	"math/rand"
	"sync/atomic"
	"testing"
	"time"

	"partialrollback/internal/core"
	"partialrollback/internal/deadlock"
	"partialrollback/internal/entity"
	"partialrollback/internal/sim"
	"partialrollback/internal/txn"
	"partialrollback/internal/value"
)

func bankStore(accounts int, balance int64) *entity.Store {
	s := entity.NewUniformStore("acct", accounts, balance)
	names := make([]string, accounts)
	for i := range names {
		names[i] = fmt.Sprintf("acct%d", i)
	}
	s.AddConstraint(entity.SumConstraint("sum", int64(accounts)*balance, names...))
	return s
}

func TestConcurrentBankTransfers(t *testing.T) {
	for _, strat := range []core.Strategy{core.Total, core.MCS, core.SDG} {
		t.Run(strat.String(), func(t *testing.T) {
			const accounts, transfers = 6, 40
			w := sim.BankingWorkload(accounts, transfers, 1000, 7)
			store := w.NewStore()
			out, err := Run(store, w.Programs, Options{Strategy: strat, Resolver: deadlock.Detect{}, RecordHistory: true})
			if err != nil {
				t.Fatal(err)
			}
			if err := store.CheckConsistent(); err != nil {
				t.Fatal(err)
			}
			if out.Stats.Commits != transfers {
				t.Errorf("commits = %d, want %d", out.Stats.Commits, transfers)
			}
			if _, err := out.Recorder.CheckSerializable(); err != nil {
				t.Error(err)
			}
		})
	}
}

func TestConcurrentWithPrevention(t *testing.T) {
	for _, tc := range []struct {
		name string
		prev core.Resolver
	}{{"wound-wait", deadlock.WoundWait{}}, {"wait-die", deadlock.WaitDie{}}} {
		prev := tc.prev
		t.Run(tc.name, func(t *testing.T) {
			w := sim.BankingWorkload(5, 30, 1000, 11)
			store := w.NewStore()
			out, err := Run(store, w.Programs, Options{Strategy: core.MCS, Resolver: prev, RecordHistory: true})
			if err != nil {
				t.Fatal(err)
			}
			if err := store.CheckConsistent(); err != nil {
				t.Fatal(err)
			}
			if _, err := out.Recorder.CheckSerializable(); err != nil {
				t.Error(err)
			}
		})
	}
}

// TestConcurrentBurst runs the concurrent driver's bursting loop (run
// with -race): a contended banking workload must fully commit, keep the
// store's sum constraint, and stay conflict-serializable — bursting
// amortizes engine-lock acquisitions but must not coarsen conflict
// resolution.
//
// The burstN labels name the retired -burst modes (-1 was adaptive),
// kept so the test IDs stay stable; every label now runs the one
// stepping rule, and N still offsets the workload seed (17+N).
// label historical: shardsN named the retired in-process shard count;
// both legs run the one engine, and a non-zero N offsets the seed by N
// so the legs stay distinct workloads.
func TestConcurrentBurst(t *testing.T) {
	for _, n := range []int{1, 4, 16, 64, -1} {
		for _, shards := range []int{0, 4} {
			t.Run(fmt.Sprintf("burst%d/shards%d", n, shards), func(t *testing.T) {
				const accounts, transfers = 6, 40
				w := paddedBanking(accounts, transfers, int64(17+n+shards))
				store := w.NewStore()
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
			})
		}
	}
}

// paddedBanking is sim.BankingWorkload with every transfer padded to
// 77 operations, two 64-op step bursts, so a transfer holds its first
// lock across a burst boundary and concurrent transfers contend.
func paddedBanking(accounts, transfers int, seed int64) sim.Workload {
	w := sim.BankingWorkload(accounts, transfers, 1000, seed)
	rng := rand.New(rand.NewSource(seed))
	for i := range w.Programs {
		from := rng.Intn(accounts)
		to := (from + 1 + rng.Intn(accounts-1)) % accounts
		w.Programs[i] = sim.TransferProgram(fmt.Sprintf("xfer%d", i),
			fmt.Sprintf("acct%d", from), fmt.Sprintf("acct%d", to), 1+rng.Int63n(10), 70)
	}
	return w
}

// TestConcurrentSharded runs the concurrent driver over a mixed
// hotspot workload (run with -race): it must fully commit, keep the
// store consistent, pass engine invariants, and stay
// conflict-serializable.
//
// label historical: shardsN named the retired in-process shard count;
// every leg runs the one engine, and N offsets the seed (13+N).
func TestConcurrentSharded(t *testing.T) {
	for _, shards := range []int{2, 4} {
		for _, strat := range []core.Strategy{core.MCS, core.SDG} {
			t.Run(fmt.Sprintf("shards%d/%v", shards, strat), func(t *testing.T) {
				w := sim.Generate(sim.GenConfig{
					Txns: 24, DBSize: 32, HotSet: 8, HotProb: 0.6,
					LocksPerTxn: 4, RewriteProb: 0.5, PadOps: longPad,
					Shape: sim.Mixed, Seed: 13 + int64(shards),
				})
				store := w.NewStore()
				out, err := Run(store, w.Programs, Options{
					Resolver: deadlock.Detect{},
					Strategy: strat, RecordHistory: true,
				})
				if err != nil {
					t.Fatal(err)
				}
				if err := store.CheckConsistent(); err != nil {
					t.Fatal(err)
				}
				if out.Stats.Commits != 24 {
					t.Errorf("commits = %d, want 24", out.Stats.Commits)
				}
				if err := out.System.CheckInvariants(); err != nil {
					t.Error(err)
				}
				if _, err := out.Recorder.CheckSerializable(); err != nil {
					t.Error(err)
				}
			})
		}
	}
}

// TestRunAbortsFailedTransaction: F takes a and then fails at run time
// (division by a zero local); W, which needs a after 700 pad ops, must
// still commit, because Run aborts F and so releases a. Run returns
// F's error.
func TestRunAbortsFailedTransaction(t *testing.T) {
	store := entity.NewStore(map[string]int64{"a": 1, "b": 2})
	f := txn.NewProgram("F").Local("x", 0).Local("zero", 0).
		LockX("a").
		Compute("x", value.Div(value.C(1), value.L("zero"))).
		MustBuild()
	wb := txn.NewProgram("W").Local("pad", 0).LockX("b")
	for i := 0; i < 700; i++ {
		wb.Compute("pad", value.Add(value.L("pad"), value.C(1)))
	}
	w := wb.LockX("a").MustBuild()

	var commits atomic.Int64
	tap := func(e core.Event) {
		if e.Kind == core.EventCommit {
			commits.Add(1)
		}
	}
	done := make(chan error, 1)
	go func() {
		_, err := Run(store, []*txn.Program{f, w}, Options{Strategy: core.MCS, Resolver: deadlock.Detect{}, OnEvent: tap})
		done <- err
	}()
	select {
	case err := <-done:
		if !errors.Is(err, value.ErrDivideByZero) {
			t.Fatalf("Run: %v, want an error wrapping %v", err, value.ErrDivideByZero)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Run did not return: the failed transaction kept its locks")
	}
	if n := commits.Load(); n != 1 {
		t.Errorf("%d commits seen, want W's", n)
	}
}
