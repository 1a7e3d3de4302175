package checkpoint_test

import (
	"context"
	"strings"
	"sync"
	"testing"
	"time"

	"partialrollback/internal/checkpoint"
	"partialrollback/internal/core"
	"partialrollback/internal/deadlock"
	"partialrollback/internal/durable"
	"partialrollback/internal/entity"
	"partialrollback/internal/exec"
	"partialrollback/internal/intern"
	"partialrollback/internal/sim"
	"partialrollback/internal/txn"
)

// storeSnapshotter is the same adapter internal/node wires: copy the
// store's slices under quiesce and resolve interned names.
func storeSnapshotter(store *entity.Store) checkpoint.SnapshotFunc {
	var vals []int64
	var defined []bool
	return func() []checkpoint.Entry {
		vals, defined, _ = store.SnapshotSlices(vals, defined)
		entries := make([]checkpoint.Entry, 0, len(vals))
		for i, ok := range defined {
			if !ok {
				continue
			}
			entries = append(entries, checkpoint.Entry{Name: store.NameOf(intern.ID(i)), Val: vals[i]})
		}
		return entries
	}
}

// TestConcurrentCheckpointsAreCommitConsistent runs a contended
// banking workload on the node's engine while a checkpointer fires
// every couple of milliseconds, then asserts the fuzzy-snapshot
// correctness claim directly: EVERY checkpoint written during the run
// must satisfy the balance-sum invariant (a snapshot catching a
// half-installed transfer would be off by the transfer amount), and
// recovery from the newest checkpoint plus log tail must reproduce
// the engine's exact final state.
//
// label historical: the node has one engine since sharding left it.
func TestConcurrentCheckpointsAreCommitConsistent(t *testing.T) {
	const accounts, transfers, balance = 8, 150, 100
	dir := t.TempDir()
	w := sim.BankingWorkload(accounts, transfers, balance, 3)
	store := w.NewStore()
	set, _, err := durable.Open(dir, 1, store, durable.Options{Mode: durable.SyncOff})
	if err != nil {
		t.Fatal(err)
	}

	eng := core.New(core.Config{
		Store:     store,
		Strategy:  core.MCS,
		Resolver:  deadlock.Detect{},
		CommitLog: set,
	})
	cp := checkpoint.New(set, eng, storeSnapshotter(store), checkpoint.Options{
		Interval: 2 * time.Millisecond,
		Retain:   2,
	})
	cp.Start()

	ids := make([]txn.ID, 0, len(w.Programs))
	for _, p := range w.Programs {
		id, err := eng.Register(p)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	var wg sync.WaitGroup
	errCh := make(chan error, len(ids))
	for _, id := range ids {
		wg.Add(1)
		go func(id txn.ID) {
			defer wg.Done()
			if err := exec.StepToCommit(context.Background(), eng, id, time.Time{}, 0); err != nil {
				errCh <- err
			}
		}(id)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
	if err := cp.CheckpointNow(); err != nil {
		t.Fatal(err)
	}
	cp.Close()

	files, err := checkpoint.List(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(files) == 0 {
		t.Fatal("no checkpoints written during the run")
	}
	for _, f := range files {
		st, err := checkpoint.Load(f.Path)
		if err != nil {
			t.Fatalf("%s: %v", f.Path, err)
		}
		var sum int64
		n := 0
		for _, e := range st.Entries {
			if strings.HasPrefix(e.Name, "acct") {
				sum += e.Val
				n++
			}
		}
		if n != accounts || sum != int64(accounts)*balance {
			t.Errorf("%s: %d accounts sum to %d, want %d of them summing to %d — snapshot not commit-consistent",
				f.Path, n, sum, accounts, int64(accounts)*balance)
		}
	}

	final := store.Snapshot()
	if err := set.Close(); err != nil {
		t.Fatal(err)
	}

	fresh := w.NewStore()
	set2, info, err := durable.Open(dir, 1, fresh, durable.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer set2.Close()
	if info.CheckpointFile == "" {
		t.Error("recovery did not use a checkpoint base")
	}
	for name, want := range final {
		if got := fresh.MustGet(name); got != want {
			t.Errorf("%s: recovered %d, final %d", name, got, want)
		}
	}
	if err := fresh.CheckConsistent(); err != nil {
		t.Errorf("recovered store violates invariant: %v", err)
	}
}
