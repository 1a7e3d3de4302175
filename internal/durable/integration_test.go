package durable

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"partialrollback/internal/core"
	"partialrollback/internal/deadlock"
	"partialrollback/internal/entity"
	"partialrollback/internal/runtime"
	"partialrollback/internal/sim"
	"partialrollback/internal/wal"
)

// scanSet reads every wal-*.log in dir (read-only, no recovery side
// effects) and returns the latest value per entity — the durable
// state an acknowledged commit promises.
func scanSet(t *testing.T, dir string) map[string]int64 {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join(dir, "wal-*.log"))
	if err != nil {
		t.Fatal(err)
	}
	type lv struct {
		val int64
		seq uint64
	}
	latest := map[string]lv{}
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		recs, _, serr := wal.Scan(strings.NewReader(string(data)))
		if serr != nil {
			t.Fatalf("%s: %v", p, serr)
		}
		for _, r := range recs {
			if r.Name == "" {
				continue
			}
			if old, ok := latest[r.Name]; !ok || r.Seq > old.seq {
				latest[r.Name] = lv{r.Value, r.Seq}
			}
		}
	}
	out := make(map[string]int64, len(latest))
	for n, v := range latest {
		out[n] = v.val
	}
	return out
}

// TestConcurrentCommitDurability: many concurrent committers on one
// engine, all sharing the one log, each acknowledged only after its
// increment is durable. Run with -race;
// the log is then inspected WITHOUT closing the set — everything an
// ack covered must already be in the file.
func TestConcurrentCommitDurability(t *testing.T) {
	const counters, txns = 8, 96
	dir := t.TempDir()
	w := sim.CounterWorkload(counters, txns, 11)
	store := w.NewStore()
	set, _ := mustOpen(t, dir, 1, store, Options{Mode: SyncGroup})
	defer set.Close()

	out, err := runtime.Run(store, w.Programs, runtime.Options{
		Resolver:  deadlock.Detect{},
		Strategy:  core.MCS,
		CommitLog: set,
	})
	if err != nil {
		t.Fatal(err)
	}
	if int(out.Stats.Commits) != txns {
		t.Fatalf("commits = %d", out.Stats.Commits)
	}

	durable := scanSet(t, dir)
	var sum int64
	for i := 0; i < counters; i++ {
		name := fmt.Sprintf("e%d", i)
		if durable[name] != store.MustGet(name) {
			t.Errorf("%s: durable %d != memory %d", name, durable[name], store.MustGet(name))
		}
		sum += durable[name]
	}
	if sum != txns {
		t.Fatalf("durable increments = %d, want %d (acknowledged commits lost)", sum, txns)
	}
}

// TestConcurrentCommitDurabilityAlways is the same contract under the
// per-commit fsync discipline.
func TestConcurrentCommitDurabilityAlways(t *testing.T) {
	const counters, txns = 4, 24
	dir := t.TempDir()
	w := sim.CounterWorkload(counters, txns, 5)
	store := w.NewStore()
	set, _ := mustOpen(t, dir, 1, store, Options{Mode: SyncAlways})
	defer set.Close()

	if _, err := runtime.Run(store, w.Programs, runtime.Options{
		Resolver:  deadlock.Detect{},
		Strategy:  core.MCS,
		CommitLog: set,
	}); err != nil {
		t.Fatal(err)
	}
	var sum int64
	for _, v := range scanSet(t, dir) {
		sum += v
	}
	if sum != txns {
		t.Fatalf("durable increments = %d, want %d", sum, txns)
	}
	if st := set.Stats(); st.Fsyncs < int64(txns) {
		t.Errorf("always mode fsyncs = %d, want >= %d", st.Fsyncs, txns)
	}
}

// TestConcurrentFsyncErrorFailsCommits: when the device dies, no
// committer is told its transaction succeeded — StepToCommit surfaces
// the durability failure instead.
func TestConcurrentFsyncErrorFailsCommits(t *testing.T) {
	w := sim.CounterWorkload(4, 16, 3)
	store := w.NewStore()
	set := &Set{opts: Options{Mode: SyncGroup}}
	set.log = newLog(set, &failFile{syncErr: errors.New("injected: device lost")}, "", 0, 0)
	defer set.Close()

	_, err := runtime.Run(store, w.Programs, runtime.Options{
		Resolver:  deadlock.Detect{},
		Strategy:  core.MCS,
		CommitLog: set,
	})
	if err == nil {
		t.Fatal("run succeeded with a dead log device")
	}
	if !strings.Contains(err.Error(), "commit not durable") {
		t.Fatalf("error does not name the durability failure: %v", err)
	}
	if !strings.Contains(err.Error(), "device lost") {
		t.Fatalf("root cause lost: %v", err)
	}
}

// TestEngineRecoveryEquivalence: run a contended banking workload
// through the concurrent runtime with the log attached, close, and replay
// into a fresh initial store — the recovered state must equal the
// engine's final in-memory state, invariant included.
func TestEngineRecoveryEquivalence(t *testing.T) {
	const accounts, transfers = 8, 48
	dir := t.TempDir()
	w := sim.BankingWorkload(accounts, transfers, 100, 7)
	store := w.NewStore()
	set, _ := mustOpen(t, dir, 1, store, Options{Mode: SyncGroup})

	if _, err := runtime.Run(store, w.Programs, runtime.Options{
		Resolver:  deadlock.Detect{},
		Strategy:  core.MCS,
		CommitLog: set,
	}); err != nil {
		t.Fatal(err)
	}
	final := store.Snapshot()
	if err := set.Close(); err != nil {
		t.Fatal(err)
	}

	fresh := w.NewStore()
	set2, info := mustOpen(t, dir, 1, fresh, Options{})
	defer set2.Close()
	if info.TornFiles != 0 || len(info.CorruptFiles) != 0 || info.TornCommits != 0 {
		t.Fatalf("clean shutdown recovered damage: %+v", info)
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

// TestUnshardedEngineDurability: a Set used as the engine's
// CommitLogger makes every commit wait for durability, here under SDG.
//
// label historical: the name is from when the engine could also be
// sharded; there is one engine now.
func TestUnshardedEngineDurability(t *testing.T) {
	dir := t.TempDir()
	w := sim.CounterWorkload(4, 20, 9)
	store := w.NewStore()
	set, _ := mustOpen(t, dir, 1, store, Options{Mode: SyncOff})
	if _, err := runtime.Run(store, w.Programs, runtime.Options{
		Resolver:  deadlock.Detect{},
		Strategy:  core.SDG,
		CommitLog: set,
	}); err != nil {
		t.Fatal(err)
	}
	if err := set.Close(); err != nil {
		t.Fatal(err)
	}
	fresh := entity.NewUniformStore("e", 4, 0)
	set2, _ := mustOpen(t, dir, 1, fresh, Options{})
	defer set2.Close()
	var sum int64
	for i := 0; i < 4; i++ {
		sum += fresh.MustGet(fmt.Sprintf("e%d", i))
	}
	if sum != 20 {
		t.Fatalf("recovered increments = %d, want 20", sum)
	}
}
