package durable

import (
	"fmt"
	"path/filepath"
	"testing"

	"partialrollback/internal/checkpoint"
	"partialrollback/internal/entity"
)

// TestRecoveryIntoPagedStore: the recovery path (checkpoint base +
// WAL tail replay) must rebuild a paged store exactly as it rebuilds
// the memory store, with the pool evicting throughout — the heap file
// is a spill area, so recovery after any crash (including mid-flush)
// is checkpoint + tail, never the heap.
func TestRecoveryIntoPagedStore(t *testing.T) {
	dir := t.TempDir()
	const n = 64 // 5 pages of 15 slots through a 2-frame pool
	store := entity.NewUniformStore("e", n, 0)
	s, _ := mustOpen(t, dir, 1, store, Options{Mode: SyncAlways})
	// A spread of commits, a checkpoint mid-stream, then a tail.
	for i := 0; i < n; i += 2 {
		if err := s.LogCommit(commit(w(fmt.Sprintf("e%d", i), int64(i+100)))).Wait(); err != nil {
			t.Fatal(err)
		}
	}
	entries := make([]checkpoint.Entry, 0, n)
	for name, v := range store.Snapshot() {
		entries = append(entries, checkpoint.Entry{Name: name, Val: v})
	}
	if _, _, err := checkpoint.Write(dir, checkpoint.State{
		Frontier: s.Frontier(), Entries: entries,
	}, checkpoint.WriteOptions{}); err != nil {
		t.Fatal(err)
	}
	if err := s.LogCommit(commit(w("e1", 999), w("e63", -7))).Wait(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	for name, cfg := range map[string]entity.PagedConfig{
		"tiny-pool": {PageSize: 128, PoolPages: 2},
		"roomy":     {PageSize: 4096, PoolPages: 8},
	} {
		t.Run(name, func(t *testing.T) {
			cfg.Path = filepath.Join(t.TempDir(), "heap.dat")
			paged, err := entity.NewUniformPagedStore("e", n, 0, cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer paged.Close()
			s2, info := mustOpen(t, dir, 1, paged, Options{})
			defer s2.Close()
			if info.CheckpointEntities != n {
				t.Errorf("CheckpointEntities = %d, want %d", info.CheckpointEntities, n)
			}
			// LogCommit writes only the WAL, so the checkpoint above
			// captured the store's initial zeros and its frontier
			// supersedes the even-entity records; the recovered state
			// is therefore the zero base plus the two tail writes.
			want := map[string]int64{"e1": 999, "e63": -7}
			got := paged.Snapshot()
			if len(got) != n {
				t.Fatalf("recovered %d entities, want %d", len(got), n)
			}
			for k, v := range got {
				if v != want[k] {
					t.Errorf("%s = %d, want %d", k, v, want[k])
				}
			}
		})
	}
}
