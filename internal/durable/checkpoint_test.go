package durable

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"partialrollback/internal/checkpoint"
	"partialrollback/internal/entity"
	"partialrollback/internal/wal"
)

func dirNames(t *testing.T, dir string) []string {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, e := range ents {
		out = append(out, e.Name())
	}
	return out
}

// TestRotationSealsAndRecovers: rotating seals the active segment
// under a new name, appends continue into a fresh file, and recovery
// scans both.
func TestRotationSealsAndRecovers(t *testing.T) {
	dir := t.TempDir()
	store := entity.NewUniformStore("e", 2, 0)
	s, _ := mustOpen(t, dir, 1, store, Options{Mode: SyncAlways})
	if err := s.LogCommit(commit(w("e0", 1), w("e1", 2))).Wait(); err != nil {
		t.Fatal(err)
	}
	if err := s.Rotate(); err != nil {
		t.Fatal(err)
	}
	segs := s.SealedSegments()
	if len(segs) != 1 {
		t.Fatalf("sealed segments = %d, want 1", len(segs))
	}
	// marker(seq 1) + two members (2, 3) were sealed.
	if segs[0].MaxSeq != 3 {
		t.Fatalf("sealed segment = %+v", segs[0])
	}
	// Rotating an empty active file is a no-op.
	if err := s.Rotate(); err != nil {
		t.Fatal(err)
	}
	if n := len(s.SealedSegments()); n != 1 {
		t.Fatalf("empty rotation sealed something: %d segments", n)
	}
	if err := s.LogCommit(commit(w("e0", 9))).Wait(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	names := dirNames(t, dir)
	var sealed, active int
	for _, n := range names {
		if _, _, ok := parseSealedName(n); ok {
			sealed++
		} else if _, ok := parseActiveName(n); ok {
			active++
		}
	}
	if sealed != 1 || active != 1 {
		t.Fatalf("dir = %v, want 1 sealed + 1 active", names)
	}

	fresh := entity.NewUniformStore("e", 2, 0)
	s2, info := mustOpen(t, dir, 1, fresh, Options{})
	defer s2.Close()
	if v := fresh.MustGet("e0"); v != 9 {
		t.Errorf("e0 = %d, want 9", v)
	}
	if v := fresh.MustGet("e1"); v != 2 {
		t.Errorf("e1 = %d, want 2", v)
	}
	if info.MaxSeq != 4 {
		t.Errorf("MaxSeq = %d, want 4", info.MaxSeq)
	}
	if got := s2.SealedSegments(); len(got) != 1 || got[0].MaxSeq != 3 {
		t.Errorf("reopened sealed segments = %+v", got)
	}
}

// TestCheckpointTailReplay: recovery loads the checkpoint base and
// replays only records past its frontier.
func TestCheckpointTailReplay(t *testing.T) {
	dir := t.TempDir()
	store := entity.NewUniformStore("e", 2, 0)
	s, _ := mustOpen(t, dir, 1, store, Options{Mode: SyncAlways})
	if err := s.LogCommit(commit(w("e0", 5))).Wait(); err != nil {
		t.Fatal(err)
	}
	if err := s.LogCommit(commit(w("e1", 6))).Wait(); err != nil {
		t.Fatal(err)
	}
	frontier := s.Frontier()
	if _, _, err := checkpoint.Write(dir, checkpoint.State{
		Frontier: frontier,
		Entries:  []checkpoint.Entry{{Name: "e0", Val: 5}, {Name: "e1", Val: 6}},
	}, checkpoint.WriteOptions{}); err != nil {
		t.Fatal(err)
	}
	if err := s.LogCommit(commit(w("e0", 7))).Wait(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	fresh := entity.NewUniformStore("e", 2, 0)
	s2, info := mustOpen(t, dir, 1, fresh, Options{})
	defer s2.Close()
	if info.CheckpointSeq != frontier || info.CheckpointFile != checkpoint.FileName(frontier) {
		t.Fatalf("checkpoint base = %q seq %d, want %q seq %d",
			info.CheckpointFile, info.CheckpointSeq, checkpoint.FileName(frontier), frontier)
	}
	if info.CheckpointEntities != 2 {
		t.Errorf("CheckpointEntities = %d, want 2", info.CheckpointEntities)
	}
	if info.TailRecords != 1 {
		t.Errorf("TailRecords = %d, want 1 (only the post-checkpoint commit)", info.TailRecords)
	}
	if v := fresh.MustGet("e0"); v != 7 {
		t.Errorf("e0 = %d, want 7", v)
	}
	if v := fresh.MustGet("e1"); v != 6 {
		t.Errorf("e1 = %d, want 6", v)
	}
}

// TestRecoveryPrefersOlderValidCheckpoint: a torn newer checkpoint is
// skipped (and reported) in favor of an older valid one; the longer
// tail replay still reaches the same state.
func TestRecoveryPrefersOlderValidCheckpoint(t *testing.T) {
	dir := t.TempDir()
	store := entity.NewUniformStore("e", 1, 0)
	s, _ := mustOpen(t, dir, 1, store, Options{Mode: SyncAlways})
	if err := s.LogCommit(commit(w("e0", 1))).Wait(); err != nil {
		t.Fatal(err)
	}
	if _, _, err := checkpoint.Write(dir, checkpoint.State{
		Frontier: 1, Entries: []checkpoint.Entry{{Name: "e0", Val: 1}},
	}, checkpoint.WriteOptions{}); err != nil {
		t.Fatal(err)
	}
	if err := s.LogCommit(commit(w("e0", 2))).Wait(); err != nil {
		t.Fatal(err)
	}
	newer, _, err := checkpoint.Write(dir, checkpoint.State{
		Frontier: 2, Entries: []checkpoint.Entry{{Name: "e0", Val: 2}},
	}, checkpoint.WriteOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.LogCommit(commit(w("e0", 3))).Wait(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// Corrupt the newer checkpoint mid-body.
	data, err := os.ReadFile(newer)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0xff
	if err := os.WriteFile(newer, data, 0o644); err != nil {
		t.Fatal(err)
	}

	fresh := entity.NewUniformStore("e", 1, 0)
	s2, info := mustOpen(t, dir, 1, fresh, Options{})
	defer s2.Close()
	if info.CheckpointSeq != 1 {
		t.Fatalf("CheckpointSeq = %d, want 1 (older valid checkpoint)", info.CheckpointSeq)
	}
	if len(info.SkippedCheckpoints) != 1 || info.SkippedCheckpoints[0] != filepath.Base(newer) {
		t.Fatalf("SkippedCheckpoints = %v, want [%s]", info.SkippedCheckpoints, filepath.Base(newer))
	}
	if info.TailRecords != 2 {
		t.Errorf("TailRecords = %d, want 2 (seqs 2 and 3)", info.TailRecords)
	}
	if v := fresh.MustGet("e0"); v != 3 {
		t.Errorf("e0 = %d, want 3", v)
	}
}

// TestNoCheckpointByteIdentity pins the acceptance criterion that a
// run without any checkpointing is byte-identical to the
// pre-checkpoint durability layer: the directory holds exactly the
// active file, named as before, containing exactly the
// bytes the wal encoding has always produced.
func TestNoCheckpointByteIdentity(t *testing.T) {
	dir := t.TempDir()
	store := entity.NewUniformStore("e", 2, 0)
	s, _ := mustOpen(t, dir, 1, store, Options{Mode: SyncAlways})
	if err := s.LogCommit(commit(w("e0", 41))).Wait(); err != nil {
		t.Fatal(err)
	}
	if err := s.LogCommit(commit(w("e0", 42), w("e1", 7))).Wait(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	if names := dirNames(t, dir); len(names) != 1 || names[0] != "wal-0.log" {
		t.Fatalf("dir = %v, want exactly [wal-0.log]", names)
	}
	// The exact bytes the format has produced since the layer landed:
	// singleton record, then marker + two members.
	var want []byte
	want = wal.AppendRecord(want, "e0", 41, 1)
	want = wal.AppendRecord(want, "", 2, 2)
	want = wal.AppendRecord(want, "e0", 42, 3)
	want = wal.AppendRecord(want, "e1", 7, 4)
	got, err := os.ReadFile(filepath.Join(dir, "wal-0.log"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("log bytes diverged from the pre-checkpoint format:\n got %x\nwant %x", got, want)
	}
}

// TestSegmentNameParsing covers the active/sealed classifier.
func TestSegmentNameParsing(t *testing.T) {
	if k, ok := parseActiveName("wal-3.log"); !ok || k != 3 {
		t.Errorf("parseActiveName(wal-3.log) = %d, %v", k, ok)
	}
	for _, bad := range []string{"wal-x.log", "wal-3.sealed-5.log", "ckpt-5.ckpt", "wal-.log", "foo.log"} {
		if _, ok := parseActiveName(bad); ok {
			t.Errorf("parseActiveName(%s) accepted", bad)
		}
	}
	k, seq, ok := parseSealedName("wal-2.sealed-00000000000000000042.log")
	if !ok || k != 2 || seq != 42 {
		t.Errorf("parseSealedName = %d, %d, %v", k, seq, ok)
	}
	for _, bad := range []string{"wal-2.log", "wal-2.sealed-.log", "wal-.sealed-5.log", "wal-2.sealed-5.ckpt"} {
		if _, _, ok := parseSealedName(bad); ok {
			t.Errorf("parseSealedName(%s) accepted", bad)
		}
	}
}

// TestRemoveSealedBoundsDisk: removing a sealed segment deletes the
// file and drops it from the listing.
func TestRemoveSealedBoundsDisk(t *testing.T) {
	dir := t.TempDir()
	store := entity.NewUniformStore("e", 1, 0)
	s, _ := mustOpen(t, dir, 1, store, Options{Mode: SyncAlways})
	defer s.Close()
	if err := s.LogCommit(commit(w("e0", 1))).Wait(); err != nil {
		t.Fatal(err)
	}
	if err := s.Rotate(); err != nil {
		t.Fatal(err)
	}
	segs := s.SealedSegments()
	if len(segs) != 1 {
		t.Fatalf("sealed = %d", len(segs))
	}
	if err := s.RemoveSealed(segs[0]); err != nil {
		t.Fatal(err)
	}
	if n := len(s.SealedSegments()); n != 0 {
		t.Fatalf("sealed after removal = %d", n)
	}
	for _, n := range dirNames(t, dir) {
		if strings.Contains(n, "sealed") {
			t.Fatalf("sealed file %s survived removal", n)
		}
	}
}
