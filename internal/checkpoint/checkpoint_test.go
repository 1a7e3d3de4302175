package checkpoint

import (
	"errors"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"
)

func TestCodecRoundTrip(t *testing.T) {
	st := State{Frontier: 42, Entries: []Entry{
		{Name: "acct0", Val: 100},
		{Name: "acct1", Val: -3},
		{Name: "e0", Val: 1 << 40},
	}}
	got, err := Decode(Append(nil, st))
	if err != nil {
		t.Fatal(err)
	}
	if got.Frontier != st.Frontier || len(got.Entries) != len(st.Entries) {
		t.Fatalf("round trip = %+v", got)
	}
	for i, e := range got.Entries {
		if e != st.Entries[i] {
			t.Errorf("entry %d = %+v, want %+v", i, e, st.Entries[i])
		}
	}
}

func TestCodecEmpty(t *testing.T) {
	got, err := Decode(Append(nil, State{Frontier: 7}))
	if err != nil || got.Frontier != 7 || len(got.Entries) != 0 {
		t.Fatalf("empty round trip = %+v, %v", got, err)
	}
}

func TestCodecDamageDetected(t *testing.T) {
	buf := Append(nil, State{Frontier: 9, Entries: []Entry{{Name: "x", Val: 1}}})
	cases := map[string][]byte{
		"truncated": buf[:len(buf)-3],
		"short":     buf[:5],
		"empty":     nil,
	}
	flipped := append([]byte(nil), buf...)
	flipped[len(flipped)/2] ^= 0x01
	cases["bitflip"] = flipped
	for name, data := range cases {
		if _, err := Decode(data); !errors.Is(err, ErrInvalid) {
			t.Errorf("%s: err = %v, want ErrInvalid", name, err)
		}
	}
}

func TestFileNameRoundTrip(t *testing.T) {
	for _, fr := range []uint64{0, 1, 42, 1 << 50} {
		fr2, ok := ParseFileName(FileName(fr))
		if !ok || fr2 != fr {
			t.Errorf("ParseFileName(FileName(%d)) = %d, %v", fr, fr2, ok)
		}
	}
	for _, bad := range []string{"ckpt-.ckpt", "ckpt-x.ckpt", "wal-0.log", "ckpt-5.ckpt.tmp"} {
		if _, ok := ParseFileName(bad); ok {
			t.Errorf("ParseFileName(%s) accepted", bad)
		}
	}
}

func TestWriteLoadLatest(t *testing.T) {
	dir := t.TempDir()
	if st, path, _, err := LoadLatest(dir); err != nil || st != nil || path != "" {
		t.Fatalf("empty dir LoadLatest = %v, %q, %v", st, path, err)
	}
	for _, fr := range []uint64{3, 10, 7} {
		if _, _, err := Write(dir, State{Frontier: fr, Entries: []Entry{{Name: "e", Val: int64(fr)}}}, WriteOptions{}); err != nil {
			t.Fatal(err)
		}
	}
	files, err := List(dir)
	if err != nil || len(files) != 3 {
		t.Fatalf("List = %v, %v", files, err)
	}
	if files[0].Frontier != 10 || files[2].Frontier != 3 {
		t.Fatalf("List order = %+v, want newest first", files)
	}
	st, path, invalid, err := LoadLatest(dir)
	if err != nil || len(invalid) != 0 {
		t.Fatal(err, invalid)
	}
	if st.Frontier != 10 || filepath.Base(path) != FileName(10) {
		t.Fatalf("LoadLatest = %+v, %s", st, path)
	}

	// Corrupt the newest: LoadLatest falls back to the next older one
	// and names the skipped file.
	data, _ := os.ReadFile(path)
	data[len(data)-1] ^= 0xff
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	st, path2, invalid, err := LoadLatest(dir)
	if err != nil {
		t.Fatal(err)
	}
	if st.Frontier != 7 || len(invalid) != 1 || invalid[0] != FileName(10) {
		t.Fatalf("fallback = frontier %d, invalid %v", st.Frontier, invalid)
	}
	if filepath.Base(path2) != FileName(7) {
		t.Fatalf("fallback path = %s", path2)
	}
}

func TestRemoveTemps(t *testing.T) {
	dir := t.TempDir()
	tmp := filepath.Join(dir, FileName(5)+".tmp")
	if err := os.WriteFile(tmp, []byte("partial"), 0o644); err != nil {
		t.Fatal(err)
	}
	n, err := RemoveTemps(dir)
	if err != nil || n != 1 {
		t.Fatalf("RemoveTemps = %d, %v", n, err)
	}
	if _, err := os.Stat(tmp); !os.IsNotExist(err) {
		t.Fatal("temp file survived")
	}
}

// fakeSource is a Source whose frontier and segments the test controls.
type fakeSource struct {
	mu       sync.Mutex
	dir      string
	frontier uint64
	bytes    int64
	segs     []Segment
	rotates  int
}

func (f *fakeSource) Dir() string { return f.dir }
func (f *fakeSource) Frontier() uint64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.frontier
}
func (f *fakeSource) AppendedBytes() int64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.bytes
}
func (f *fakeSource) Rotate() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.rotates++
	return nil
}
func (f *fakeSource) SealedSegments() []Segment {
	f.mu.Lock()
	defer f.mu.Unlock()
	return append([]Segment(nil), f.segs...)
}
func (f *fakeSource) RemoveSealed(seg Segment) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	for i := range f.segs {
		if f.segs[i].Path == seg.Path {
			f.segs = append(f.segs[:i], f.segs[i+1:]...)
			break
		}
	}
	return nil
}

type fakeQuiescer struct{ quiesces int }

func (q *fakeQuiescer) Quiesce(fn func()) { q.quiesces++; fn() }

// TestCheckpointerRetentionAndCompaction: segments are deleted only
// once the OLDEST retained checkpoint covers them, and checkpoints
// are pruned to Retain.
func TestCheckpointerRetentionAndCompaction(t *testing.T) {
	dir := t.TempDir()
	src := &fakeSource{dir: dir, frontier: 10, segs: []Segment{
		{Path: "seg-a", MaxSeq: 5, Bytes: 100},
		{Path: "seg-b", MaxSeq: 15, Bytes: 200},
	}}
	q := &fakeQuiescer{}
	entries := []Entry{{Name: "e0", Val: 1}}
	cp := New(src, q, SnapshotFunc(func() []Entry { return entries }), Options{Retain: 2})

	if err := cp.CheckpointNow(); err != nil {
		t.Fatal(err)
	}
	if q.quiesces != 1 || src.rotates != 1 {
		t.Fatalf("quiesces=%d rotates=%d", q.quiesces, src.rotates)
	}
	// One checkpoint at frontier 10: seg-a (MaxSeq 5) is covered,
	// seg-b (15) is not.
	if got := src.SealedSegments(); len(got) != 1 || got[0].Path != "seg-b" {
		t.Fatalf("segments after first checkpoint = %+v", got)
	}

	// Second checkpoint at frontier 20. Retained: {20, 10}; oldest
	// retained frontier is 10, so seg-b (15) must STILL survive —
	// recovery falling back to ckpt-10 needs it.
	src.mu.Lock()
	src.frontier = 20
	src.mu.Unlock()
	if err := cp.CheckpointNow(); err != nil {
		t.Fatal(err)
	}
	if got := src.SealedSegments(); len(got) != 1 || got[0].Path != "seg-b" {
		t.Fatalf("oldest-retained rule violated: segments = %+v", got)
	}

	// Third at frontier 30: retained {30, 20}, ckpt-10 pruned, oldest
	// retained is now 20 >= 15, so seg-b goes.
	src.mu.Lock()
	src.frontier = 30
	src.mu.Unlock()
	if err := cp.CheckpointNow(); err != nil {
		t.Fatal(err)
	}
	if got := src.SealedSegments(); len(got) != 0 {
		t.Fatalf("covered segment survived: %+v", got)
	}
	files, err := List(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != 2 || files[0].Frontier != 30 || files[1].Frontier != 20 {
		t.Fatalf("retained checkpoints = %+v, want frontiers 30, 20", files)
	}
	st := cp.Status()
	if st.Checkpoints != 3 || st.LastFrontier != 30 || st.Errors != 0 {
		t.Fatalf("status = %+v", st)
	}
	cp.Close()
	if err := cp.CheckpointNow(); !errors.Is(err, ErrClosed) {
		t.Fatalf("CheckpointNow after Close = %v", err)
	}
}

// TestCheckpointerIntervalTrigger: the background loop fires on its
// own.
func TestCheckpointerIntervalTrigger(t *testing.T) {
	dir := t.TempDir()
	src := &fakeSource{dir: dir, frontier: 1}
	cp := New(src, &fakeQuiescer{}, SnapshotFunc(func() []Entry { return nil }), Options{
		Interval: 2 * time.Millisecond,
	})
	cp.Start()
	deadline := time.Now().Add(2 * time.Second)
	for cp.Status().Checkpoints == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	cp.Close()
	if cp.Status().Checkpoints == 0 {
		t.Fatal("interval trigger never fired")
	}
}

// TestCheckpointerByteTrigger: appended bytes past the threshold
// trigger a checkpoint without any interval.
func TestCheckpointerByteTrigger(t *testing.T) {
	dir := t.TempDir()
	src := &fakeSource{dir: dir, frontier: 1}
	cp := New(src, &fakeQuiescer{}, SnapshotFunc(func() []Entry { return nil }), Options{
		Bytes: 1000,
	})
	cp.Start()
	defer cp.Close()
	time.Sleep(120 * time.Millisecond)
	if n := cp.Status().Checkpoints; n != 0 {
		t.Fatalf("checkpoint fired below the byte threshold (%d)", n)
	}
	src.mu.Lock()
	src.bytes = 5000
	src.mu.Unlock()
	deadline := time.Now().Add(2 * time.Second)
	for cp.Status().Checkpoints == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if cp.Status().Checkpoints == 0 {
		t.Fatal("byte trigger never fired")
	}
}
