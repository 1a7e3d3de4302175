package durable

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"partialrollback/internal/checkpoint"
	"partialrollback/internal/core"
	"partialrollback/internal/entity"
	"partialrollback/internal/wal"
)

func writeLog(t *testing.T, path string, recs ...wal.Record) {
	t.Helper()
	var buf []byte
	for _, r := range recs {
		buf = wal.AppendRecord(buf, r.Name, r.Value, r.Seq)
	}
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		t.Fatal(err)
	}
}

func mustOpen(t *testing.T, dir string, logs int, store *entity.Store, opts Options) (*Set, *RecoveryInfo) {
	t.Helper()
	s, info, err := Open(dir, logs, store, opts)
	if err != nil {
		t.Fatal(err)
	}
	return s, info
}

func commit(writes ...core.CommitWrite) []core.CommitWrite { return writes }

func w(name string, val int64) core.CommitWrite { return core.CommitWrite{Name: name, Val: val} }

func TestParseSyncMode(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want SyncMode
	}{{"group", SyncGroup}, {"always", SyncAlways}, {"off", SyncOff}} {
		got, err := ParseSyncMode(tc.in)
		if err != nil || got != tc.want {
			t.Errorf("ParseSyncMode(%q) = %v, %v", tc.in, got, err)
		}
		if got.String() != tc.in {
			t.Errorf("%v.String() = %q", got, got.String())
		}
	}
	if _, err := ParseSyncMode("sometimes"); err == nil {
		t.Error("bad mode accepted")
	}
}

// TestCommitDurableAndRecovered: the basic contract — once Wait
// returns, a reopened set sees the write.
func TestCommitDurableAndRecovered(t *testing.T) {
	dir := t.TempDir()
	store := entity.NewUniformStore("e", 2, 0)
	s, info := mustOpen(t, dir, 1, store, Options{Mode: SyncAlways})
	if info.Files != 0 || info.Records != 0 {
		t.Fatalf("fresh dir recovered %+v", info)
	}
	if err := s.LogCommit(commit(w("e0", 41))).Wait(); err != nil {
		t.Fatal(err)
	}
	if err := s.LogCommit(commit(w("e0", 42), w("e1", 7))).Wait(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	store2 := entity.NewUniformStore("e", 2, 0)
	s2, info2 := mustOpen(t, dir, 1, store2, Options{})
	defer s2.Close()
	// 1 singleton + 1 marker + 2 members.
	if info2.Records != 4 || info2.Applied != 2 {
		t.Fatalf("recovery = %+v", info2)
	}
	if v := store2.MustGet("e0"); v != 42 {
		t.Errorf("e0 = %d, want 42", v)
	}
	if v := store2.MustGet("e1"); v != 7 {
		t.Errorf("e1 = %d, want 7", v)
	}
}

// TestGroupCommitBatchesFsyncs: commits enqueued while an fsync is in
// flight share the next fsync, and none of them is acknowledged by the
// in-flight one — a commit is acknowledged only by an fsync that
// started after it was enqueued.
func TestGroupCommitBatchesFsyncs(t *testing.T) {
	f := &tokenFile{entered: make(chan struct{}, 2), tokens: make(chan struct{})}
	s := &Set{opts: Options{Mode: SyncGroup}}
	s.log = newLog(s, f, "", 0, 0)

	c1 := s.LogCommit(commit(w("e0", 0)))
	<-f.entered // c1's flush is inside Sync
	rest := make([]core.CommitAck, 7)
	for i := range rest {
		rest[i] = s.LogCommit(commit(w(fmt.Sprintf("e%d", i+1), int64(i+1))))
	}
	f.tokens <- struct{}{}
	if err := c1.Wait(); err != nil {
		t.Fatal(err)
	}
	<-f.entered // the 7 are inside the second Sync
	for i, a := range rest {
		if acked(a) {
			t.Fatalf("commit %d acknowledged by an fsync that started before it", i+2)
		}
	}
	f.tokens <- struct{}{}
	for _, a := range rest {
		if err := a.Wait(); err != nil {
			t.Fatal(err)
		}
	}
	st := s.Stats()
	if st.Commits != 8 || st.Fsyncs != 2 || st.MaxCommitsPerFlush != 7 {
		t.Fatalf("commits = %d, fsyncs = %d, max group = %d; want 8, 2, 7",
			st.Commits, st.Fsyncs, st.MaxCommitsPerFlush)
	}
	close(f.tokens) // Close's own sync
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestGroupCommitSlowSync: with many closed-loop committers and a slow
// fsync, the leader loop batches without a timer. The first commit's
// fsync runs alone while the other 63 committers queue; from then on a
// 1-commit group and a 63-commit group take turns, each refilling the
// queue while the other's fsync is in flight (closed-loop ping-pong).
// So a batch averages half the population: 32 commits per fsync, where
// a 2 ms collection window reached 64 in the same wall time. The bound
// is 0.4 × concurrency.
func TestGroupCommitSlowSync(t *testing.T) {
	const committers, each = 64, 20
	s := &Set{opts: Options{Mode: SyncGroup}}
	s.log = newLog(s, &slowFile{delay: 2 * time.Millisecond}, "", 0, 0)
	var wg sync.WaitGroup
	for c := 0; c < committers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				if err := s.LogCommit(commit(w(fmt.Sprintf("e%d", c), int64(i)))).Wait(); err != nil {
					t.Error(err)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	st := s.Stats()
	if st.Commits != committers*each {
		t.Fatalf("commits = %d, want %d", st.Commits, committers*each)
	}
	ratio := float64(st.Commits) / float64(st.Fsyncs)
	t.Logf("%d commits in %d fsyncs: %.1f per fsync", st.Commits, st.Fsyncs, ratio)
	if ratio < 0.4*committers {
		t.Errorf("%.1f commits per fsync (%d fsyncs), want >= %.1f", ratio, st.Fsyncs, 0.4*committers)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestSyncAlwaysOneFsyncPerCommit: even commits enqueued together get
// their own fsync under SyncAlways.
func TestSyncAlwaysOneFsyncPerCommit(t *testing.T) {
	dir := t.TempDir()
	store := entity.NewUniformStore("e", 4, 0)
	s, _ := mustOpen(t, dir, 1, store, Options{Mode: SyncAlways})
	var acks []core.CommitAck
	for i := 0; i < 4; i++ {
		acks = append(acks, s.LogCommit(commit(w(fmt.Sprintf("e%d", i), 1))))
	}
	for _, a := range acks {
		if err := a.Wait(); err != nil {
			t.Fatal(err)
		}
	}
	st := s.Stats()
	if st.Fsyncs != 4 || st.MaxCommitsPerFlush != 1 {
		t.Errorf("always mode: fsyncs=%d maxGroup=%d, want 4 and 1", st.Fsyncs, st.MaxCommitsPerFlush)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestSyncOffStillRecoversAfterClose: no fsyncs during the run, but
// Close syncs once and the data is all there.
func TestSyncOffStillRecoversAfterClose(t *testing.T) {
	dir := t.TempDir()
	store := entity.NewUniformStore("e", 1, 0)
	s, _ := mustOpen(t, dir, 1, store, Options{Mode: SyncOff})
	for i := 1; i <= 10; i++ {
		if err := s.LogCommit(commit(w("e0", int64(i)))).Wait(); err != nil {
			t.Fatal(err)
		}
	}
	if st := s.Stats(); st.Fsyncs != 0 || st.Flushes == 0 {
		t.Errorf("off mode: fsyncs=%d flushes=%d", st.Fsyncs, st.Flushes)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	store2 := entity.NewUniformStore("e", 1, 0)
	s2, _ := mustOpen(t, dir, 1, store2, Options{})
	defer s2.Close()
	if v := store2.MustGet("e0"); v != 10 {
		t.Errorf("e0 = %d, want 10", v)
	}
}

// TestReadOnlyCommitWaitsForTail: an empty write-set still gets a
// ticket for the current tail, so reads never out-run durability.
func TestReadOnlyCommitWaitsForTail(t *testing.T) {
	gate := make(chan struct{})
	f := &gateFile{gate: gate}
	s := &Set{opts: Options{Mode: SyncAlways}}
	s.log = newLog(s, f, "", 0, 0)

	wAck := s.LogCommit(commit(w("e0", 1)))
	rAck := s.LogCommit(nil)
	done := make(chan error, 2)
	go func() { done <- wAck.Wait() }()
	go func() { done <- rAck.Wait() }()
	select {
	case err := <-done:
		t.Fatalf("ack returned before fsync: %v", err)
	case <-time.After(20 * time.Millisecond):
	}
	close(gate)
	for i := 0; i < 2; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	// A read-only commit against an idle (fully durable) log returns
	// immediately.
	if err := s.LogCommit(nil).Wait(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestInstallRidesNextFlush: LogInstall has no ticket, but a later
// commit's ticket covers it and recovery sees it.
func TestInstallRidesNextFlush(t *testing.T) {
	dir := t.TempDir()
	store := entity.NewUniformStore("e", 2, 0)
	s, _ := mustOpen(t, dir, 1, store, Options{Mode: SyncAlways})
	s.LogInstall(w("e0", 99))
	if err := s.LogCommit(commit(w("e1", 1))).Wait(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	store2 := entity.NewUniformStore("e", 2, 0)
	s2, _ := mustOpen(t, dir, 1, store2, Options{})
	defer s2.Close()
	if v := store2.MustGet("e0"); v != 99 {
		t.Errorf("unlock install lost: e0 = %d", v)
	}
}

// TestInstallNameTooLongFailsLog: an install whose name the record
// format cannot encode fails the log, so the next commit's ticket —
// which would otherwise cover the install — reports the loss.
func TestInstallNameTooLongFailsLog(t *testing.T) {
	s := &Set{opts: Options{Mode: SyncAlways}}
	s.log = newLog(s, &failFile{}, "", 0, 0)
	s.LogInstall(w(strings.Repeat("n", 0x10000), 1))
	err := s.LogCommit(commit(w("e0", 1))).Wait()
	if err == nil || !strings.Contains(err.Error(), "durable: entity name too long") {
		t.Fatalf("commit after dropped install = %v, want name-too-long error", err)
	}
	s.Close()
}

// TestWriteErrorFailsCommitAndSticks: a failed append fails that
// commit's ack and every later one; Close reports it.
func TestWriteErrorFailsCommitAndSticks(t *testing.T) {
	f := &failFile{writeErr: errors.New("injected: disk full")}
	s := &Set{opts: Options{Mode: SyncAlways}}
	s.log = newLog(s, f, "", 0, 0)

	err := s.LogCommit(commit(w("e0", 1))).Wait()
	if err == nil || !strings.Contains(err.Error(), "disk full") {
		t.Fatalf("ack err = %v", err)
	}
	if err := s.LogCommit(commit(w("e0", 2))).Wait(); err == nil {
		t.Fatal("commit after failure succeeded")
	}
	if err := s.LogCommit(nil).Wait(); err == nil {
		t.Fatal("read-only ack after failure succeeded")
	}
	if err := s.Close(); err == nil || !strings.Contains(err.Error(), "disk full") {
		t.Fatalf("Close = %v, want sticky error", err)
	}
}

// TestFsyncErrorFailsCommit: write succeeds, fsync fails — the commit
// must not be acknowledged.
func TestFsyncErrorFailsCommit(t *testing.T) {
	f := &failFile{syncErr: errors.New("injected: fsync lost")}
	s := &Set{opts: Options{Mode: SyncGroup}}
	s.log = newLog(s, f, "", 0, 0)
	err := s.LogCommit(commit(w("e0", 1))).Wait()
	if err == nil || !strings.Contains(err.Error(), "fsync lost") {
		t.Fatalf("ack err = %v", err)
	}
	if !strings.HasPrefix(err.Error(), "durable: ") {
		t.Fatalf("error not attributed to the log: %v", err)
	}
	s.Close()
}

// TestCommitAfterCloseFails: appends after Close are refused, and
// already-durable tickets keep succeeding.
func TestCommitAfterCloseFails(t *testing.T) {
	dir := t.TempDir()
	store := entity.NewUniformStore("e", 1, 0)
	s, _ := mustOpen(t, dir, 1, store, Options{Mode: SyncOff})
	ack := s.LogCommit(commit(w("e0", 1)))
	if err := ack.Wait(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.LogCommit(commit(w("e0", 2))).Wait(); !errors.Is(err, ErrClosed) {
		t.Fatalf("commit after close = %v, want ErrClosed", err)
	}
	if err := ack.Wait(); err != nil {
		t.Errorf("durable ticket failed after close: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Errorf("second Close: %v", err)
	}
}

// TestBarrier: Barrier returns only after everything already enqueued
// is durable.
func TestBarrier(t *testing.T) {
	dir := t.TempDir()
	store := entity.NewUniformStore("e", 4, 0)
	s, _ := mustOpen(t, dir, 1, store, Options{Mode: SyncGroup})
	for i := 0; i < 4; i++ {
		s.LogCommit(commit(w(fmt.Sprintf("e%d", i), int64(i))))
	}
	if err := s.Barrier(); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.Commits != 4 || st.Fsyncs == 0 {
		t.Fatalf("after barrier: %+v", st)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestRecoverTornTail: a file ending mid-record is truncated to its
// clean prefix, byte-exactly, and appending resumes past the gap.
func TestRecoverTornTail(t *testing.T) {
	dir := t.TempDir()
	var buf []byte
	for i := 1; i <= 5; i++ {
		buf = wal.AppendRecord(buf, "e0", int64(i), uint64(i))
	}
	cleanLen := len(buf) - (24 + len("e0")) // last record torn
	torn := append(append([]byte(nil), buf[:cleanLen]...), buf[cleanLen:len(buf)-7]...)
	if err := os.WriteFile(filepath.Join(dir, "wal-0.log"), torn, 0o644); err != nil {
		t.Fatal(err)
	}

	store := entity.NewUniformStore("e", 1, 0)
	s, info := mustOpen(t, dir, 1, store, Options{Mode: SyncAlways})
	if info.TornFiles != 1 || info.Records != 4 {
		t.Fatalf("recovery = %+v", info)
	}
	if info.TruncatedBytes != int64(len(torn)-cleanLen) {
		t.Errorf("truncated %d bytes, want %d", info.TruncatedBytes, len(torn)-cleanLen)
	}
	if v := store.MustGet("e0"); v != 4 {
		t.Errorf("e0 = %d, want 4 (value before the torn record)", v)
	}
	if st, err := os.Stat(filepath.Join(dir, "wal-0.log")); err != nil || st.Size() != int64(cleanLen) {
		t.Errorf("file not truncated to clean prefix: %v %d != %d", err, st.Size(), cleanLen)
	}
	if info.MaxSeq != 4 {
		t.Errorf("MaxSeq = %d", info.MaxSeq)
	}
	// Appending continues after the recovered sequence.
	if err := s.LogCommit(commit(w("e0", 50))).Wait(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	store2 := entity.NewUniformStore("e", 1, 0)
	s2, info2 := mustOpen(t, dir, 1, store2, Options{})
	defer s2.Close()
	if info2.TornFiles != 0 || store2.MustGet("e0") != 50 {
		t.Fatalf("second recovery: %+v e0=%d", info2, store2.MustGet("e0"))
	}
}

// TestRecoverTornCommitGroup: a multi-record commit missing its tail
// is dropped whole — no half-applied commits — and the file is
// truncated back to the last complete commit.
func TestRecoverTornCommitGroup(t *testing.T) {
	dir := t.TempDir()
	var buf []byte
	buf = wal.AppendRecord(buf, "a", 1, 1) // complete singleton commit
	cleanLen := len(buf)
	buf = wal.AppendRecord(buf, "", 2, 2)   // marker: 2 members follow...
	buf = wal.AppendRecord(buf, "a", 10, 3) // ...but only one survived
	if err := os.WriteFile(filepath.Join(dir, "wal-0.log"), buf, 0o644); err != nil {
		t.Fatal(err)
	}

	store := entity.NewStore(map[string]int64{"a": 0, "b": 0})
	s, info := mustOpen(t, dir, 1, store, Options{})
	defer s.Close()
	if info.TornCommits != 1 {
		t.Fatalf("recovery = %+v", info)
	}
	if v := store.MustGet("a"); v != 1 {
		t.Errorf("a = %d, want 1 (torn commit must not half-apply)", v)
	}
	if v := store.MustGet("b"); v != 0 {
		t.Errorf("b = %d, want 0", v)
	}
	if st, err := os.Stat(filepath.Join(dir, "wal-0.log")); err != nil || st.Size() != int64(cleanLen) {
		t.Errorf("file not truncated to last whole commit: %v", err)
	}
}

// TestRecoverCorruptMidFile: a bit flip before the tail is classified
// as corruption, not an ordinary torn tail.
func TestRecoverCorruptMidFile(t *testing.T) {
	dir := t.TempDir()
	var buf []byte
	buf = wal.AppendRecord(buf, "e0", 1, 1)
	cut := len(buf)
	buf = wal.AppendRecord(buf, "e0", 2, 2)
	buf = wal.AppendRecord(buf, "e0", 3, 3)
	buf[cut+10] ^= 0x40
	if err := os.WriteFile(filepath.Join(dir, "wal-0.log"), buf, 0o644); err != nil {
		t.Fatal(err)
	}
	store := entity.NewUniformStore("e", 1, 0)
	s, info := mustOpen(t, dir, 1, store, Options{})
	defer s.Close()
	if len(info.CorruptFiles) != 1 || info.CorruptFiles[0] != "wal-0.log" {
		t.Fatalf("corruption not classified: %+v", info)
	}
	if v := store.MustGet("e0"); v != 1 {
		t.Errorf("e0 = %d, want 1", v)
	}
}

// TestRecoverMergesLatestAcrossFiles: per-entity, the highest sequence
// number wins regardless of which file it sits in.
func TestRecoverMergesLatestAcrossFiles(t *testing.T) {
	dir := t.TempDir()
	writeLog(t, filepath.Join(dir, "wal-0.log"),
		wal.Record{Name: "x", Value: 1, Seq: 1},
		wal.Record{Name: "y", Value: 5, Seq: 4})
	writeLog(t, filepath.Join(dir, "wal-1.log"),
		wal.Record{Name: "x", Value: 9, Seq: 3})

	store := entity.NewStore(map[string]int64{"x": 0, "y": 0})
	s, info := mustOpen(t, dir, 1, store, Options{})
	defer s.Close()
	if info.Files != 2 || info.Records != 3 || info.MaxSeq != 4 {
		t.Fatalf("recovery = %+v", info)
	}
	if v := store.MustGet("x"); v != 9 {
		t.Errorf("x = %d, want 9 (seq 3 beats seq 1)", v)
	}
	if v := store.MustGet("y"); v != 5 {
		t.Errorf("y = %d", v)
	}
}

// TestRecoverShardCountChange: a node that kept one log per engine
// partition leaves wal-0.log and wal-1.log with interleaved sequence
// numbers. Open(dir, 1, ...) recovers every entity's highest-sequence
// value, adopts the leftover wal-1.log as a sealed segment ending at
// its last record, and the first checkpoint covering it deletes it. A
// set of any other size is refused.
//
// label historical: the node has one engine since sharding left it.
func TestRecoverShardCountChange(t *testing.T) {
	dir := t.TempDir()
	if _, _, err := Open(dir, 2, entity.NewUniformStore("e", 3, 0), Options{}); err == nil {
		t.Fatal("Open with 2 logs succeeded")
	}
	writeLog(t, filepath.Join(dir, "wal-0.log"),
		wal.Record{Name: "e0", Value: 100, Seq: 1},
		wal.Record{Name: "e1", Value: 101, Seq: 3},
		wal.Record{Name: "e0", Value: 102, Seq: 6})
	leftover := filepath.Join(dir, "wal-1.log")
	writeLog(t, leftover,
		wal.Record{Name: "e1", Value: 200, Seq: 2},
		wal.Record{Name: "e0", Value: 201, Seq: 4},
		wal.Record{Name: "e1", Value: 202, Seq: 5},
		wal.Record{Name: "e2", Value: 203, Seq: 7})

	store := entity.NewUniformStore("e", 3, 0)
	s, info := mustOpen(t, dir, 1, store, Options{Mode: SyncAlways})
	defer s.Close()
	if info.Files != 2 || info.Records != 7 || info.MaxSeq != 7 {
		t.Fatalf("recovery = %+v", info)
	}
	for name, want := range map[string]int64{"e0": 102, "e1": 202, "e2": 203} {
		if v := store.MustGet(name); v != want {
			t.Errorf("%s = %d, want %d (highest sequence)", name, v, want)
		}
	}
	if segs := s.SealedSegments(); len(segs) != 1 || segs[0].Path != leftover || segs[0].MaxSeq != 7 {
		t.Fatalf("sealed segments = %+v, want %s ending at seq 7", segs, leftover)
	}

	// Appending resumes on wal-0.log past the recovered frontier; the
	// checkpoint then covers the leftover and compacts it.
	if err := s.LogCommit(commit(w("e2", 300))).Wait(); err != nil {
		t.Fatal(err)
	}
	cp := checkpoint.New(s, core.New(core.Config{Store: store}), checkpoint.SnapshotFunc(func() []checkpoint.Entry {
		var out []checkpoint.Entry
		for _, name := range []string{"e0", "e1", "e2"} {
			out = append(out, checkpoint.Entry{Name: name, Val: store.MustGet(name)})
		}
		return out
	}), checkpoint.Options{Retain: 1})
	defer cp.Close()
	if err := cp.CheckpointNow(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(leftover); !os.IsNotExist(err) {
		t.Fatalf("leftover %s survived the checkpoint covering it: %v", leftover, err)
	}
	if segs := s.SealedSegments(); len(segs) != 0 {
		t.Fatalf("sealed segments after checkpoint = %+v", segs)
	}
}

// TestRecoveryDefinesUnknownEntities: replay of a log mentioning an
// entity the fresh store lacks defines it.
func TestRecoveryDefinesUnknownEntities(t *testing.T) {
	dir := t.TempDir()
	writeLog(t, filepath.Join(dir, "wal-0.log"),
		wal.Record{Name: "ghost", Value: 13, Seq: 1})
	store := entity.NewUniformStore("e", 1, 0)
	s, _ := mustOpen(t, dir, 1, store, Options{})
	defer s.Close()
	if v, ok := store.Get("ghost"); !ok || v != 13 {
		t.Fatalf("ghost = %d, %v", v, ok)
	}
}

// gateFile blocks every Sync until the gate closes.
type gateFile struct {
	mu   sync.Mutex
	buf  bytes.Buffer
	gate chan struct{}
}

func (f *gateFile) Write(p []byte) (int, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.buf.Write(p)
}
func (f *gateFile) Sync() error  { <-f.gate; return nil }
func (f *gateFile) Close() error { return nil }

// acked reports whether a's Wait would return without blocking.
func acked(a core.CommitAck) bool {
	tk := a.(*ticket)
	tk.log.mu.Lock()
	defer tk.log.mu.Unlock()
	return tk.log.durableSeq >= tk.seq || tk.log.err != nil
}

// tokenFile reports each Sync on entered, then blocks it until one
// token arrives on tokens.
type tokenFile struct {
	gateFile
	entered chan struct{}
	tokens  chan struct{}
}

func (f *tokenFile) Sync() error {
	f.entered <- struct{}{}
	<-f.tokens
	return nil
}

// slowFile is an in-memory file whose every Sync takes delay.
type slowFile struct {
	gateFile
	delay time.Duration
}

func (f *slowFile) Sync() error { time.Sleep(f.delay); return nil }

// failFile fails writes and/or syncs with injected errors.
type failFile struct {
	mu       sync.Mutex
	buf      bytes.Buffer
	writeErr error
	syncErr  error
}

func (f *failFile) Write(p []byte) (int, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.writeErr != nil {
		return 0, f.writeErr
	}
	return f.buf.Write(p)
}

func (f *failFile) Sync() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.syncErr
}
func (f *failFile) Close() error { return nil }
