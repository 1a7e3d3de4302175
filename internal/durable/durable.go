// Package durable turns the standalone internal/wal record format into
// the engine's durability layer: one redo log fed by the
// core.CommitLogger hook, a group-commit scheduler that batches
// concurrent commits into one append+fsync, and a recovery path that
// replays the log into the entity store at startup, truncating any
// torn tail.
//
// The paper's deferred-update discipline (§4) is what makes the layer
// this small: global values change only when an entity is unlocked or
// its transaction commits, so the log is redo-only — no undo records,
// no rollback logging, and partial rollback never touches the log at
// all (uncommitted work lives in per-transaction copies that die with
// the process).
//
// # Log set layout
//
// A Set owns one active log file, wal-0.log, plus the sealed segments
// rotation leaves behind (wal-0.sealed-<maxseq>.log). Recovery scans
// every wal-<k> file and applies the highest-sequence record per
// entity, so files from an older node that kept one log per engine
// partition (wal-1.log, ...) are still read; a leftover active file
// other than wal-0.log is adopted as a sealed segment and compacted by
// the first checkpoint that covers it.
//
// Commits spanning several entities are preceded by a group marker
// record (empty name, value = member count) so recovery never
// half-applies a commit: an incomplete trailing group is truncated
// away with the rest of the damaged tail. Single-record commits and
// shrinking-phase unlock installs are atomic on their own and carry no
// marker — the latter matches the paper's deferred-update discipline,
// where an unlocked value is globally visible (and hence individually
// durable) before its transaction commits.
//
// # Group commit
//
// Appends only enqueue encoded records (the engine mutex is never held
// across IO); the log's flusher goroutine writes and fsyncs batches.
// There is no timer: the flusher takes everything pending, makes it
// durable, and repeats, so commits that arrive while one fsync is in
// flight share the next one. Commit acknowledgements wait on a ticket
// for their batch — exactly the storage-axis twin of the server's
// coalesced frame writes: many logical completions, one syscall.
package durable

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"partialrollback/internal/checkpoint"
	"partialrollback/internal/core"
	"partialrollback/internal/entity"
	"partialrollback/internal/wal"
)

// SyncMode selects when log appends are fsynced.
type SyncMode int

const (
	// SyncGroup batches concurrent commits into one fsync: the flusher
	// makes everything pending durable with a single write+fsync, and
	// commits enqueued meanwhile form the next batch. Commits are
	// acknowledged only after their batch's fsync — durability is never
	// traded away.
	SyncGroup SyncMode = iota
	// SyncAlways gives every write-commit its own write+fsync — the
	// classical forced-log discipline, and the baseline group commit is
	// measured against.
	SyncAlways
	// SyncOff appends without ever fsyncing (the OS flushes the page
	// cache at leisure). Commits survive a process kill but not a host
	// crash. Close still syncs once for a clean shutdown.
	SyncOff
)

func (m SyncMode) String() string {
	switch m {
	case SyncGroup:
		return "group"
	case SyncAlways:
		return "always"
	case SyncOff:
		return "off"
	default:
		return fmt.Sprintf("SyncMode(%d)", int(m))
	}
}

// ParseSyncMode parses the -fsync flag values.
func ParseSyncMode(s string) (SyncMode, error) {
	switch s {
	case "group":
		return SyncGroup, nil
	case "always":
		return SyncAlways, nil
	case "off":
		return SyncOff, nil
	}
	return 0, fmt.Errorf("durable: unknown fsync mode %q (want always, group or off)", s)
}

// ErrClosed is returned by tickets whose log was closed before their
// batch became durable, and by appends after Close.
var ErrClosed = errors.New("durable: log closed")

// Options tunes a Set.
type Options struct {
	// Mode selects the fsync discipline. Default SyncGroup.
	Mode SyncMode
	// OnFlush, when non-nil, is called after every durable batch,
	// outside all locks (metrics export).
	OnFlush func(FlushInfo)
}

// FlushInfo describes one durable flush batch.
type FlushInfo struct {
	// Commits is the number of write-commits the batch carried (its
	// group-commit size; shrinking-phase unlock installs count zero).
	Commits int
	// Records and Bytes are the batch's record count and encoded size.
	Records int
	Bytes   int
	// SyncDuration is the fsync's wall time (zero under SyncOff).
	SyncDuration time.Duration
}

// Stats holds a log's counters.
type Stats struct {
	// Appends counts log records encoded and queued.
	Appends int64
	// Commits counts write-commits logged (LogCommit calls with a
	// non-empty write-set).
	Commits int64
	// Flushes counts write batches handed to the file; Fsyncs counts
	// the ones followed by an fsync (equal except under SyncOff).
	Flushes int64
	Fsyncs  int64
	// Bytes counts durably written log bytes.
	Bytes int64
	// MaxCommitsPerFlush is the largest group-commit batch observed.
	MaxCommitsPerFlush int64
}

// RecoveryInfo reports what Open found and replayed.
type RecoveryInfo struct {
	// Files and Records count log files scanned and records decoded.
	Files   int
	Records int
	// Applied counts entities whose recovered value was installed into
	// the store (one per distinct entity, not per record).
	Applied int
	// MaxSeq is the highest sequence number recovered; appending
	// resumes after it.
	MaxSeq uint64
	// TornFiles counts files whose tail ended mid-record — the expected
	// shape after a crash; each was truncated to its clean prefix.
	// TruncatedBytes is the total damage removed.
	TornFiles      int
	TruncatedBytes int64
	// TornCommits counts multi-record commits dropped because the crash
	// cut off part of their group — the records that did survive are
	// truncated away too rather than half-applying the commit.
	TornCommits int
	// CorruptFiles names files with checksum or framing damage before
	// the tail — NOT expected after a clean crash; they were truncated
	// to their clean prefix too, but callers should log this loudly.
	CorruptFiles []string
	// CheckpointSeq, CheckpointFile, and CheckpointEntities describe
	// the checkpoint recovery loaded as its base, if any: the snapshot
	// was applied first and only records with sequence numbers beyond
	// CheckpointSeq were replayed. CheckpointFile is empty when no
	// valid checkpoint existed (full replay).
	CheckpointSeq      uint64
	CheckpointFile     string
	CheckpointEntities int
	// SkippedCheckpoints names checkpoint files that failed validation
	// and were passed over for an older valid one (or full replay).
	// With the crash-safe checkpoint write discipline these indicate
	// storage damage, not an ordinary crash — log them loudly.
	SkippedCheckpoints []string
	// TailRecords counts the entity records actually replayed — those
	// past the checkpoint frontier. Without a checkpoint this is every
	// entity record in the log set.
	TailRecords int
	// Duration is recovery's wall time: checkpoint load + log scan +
	// replay into the store.
	Duration time.Duration
}

// Set is the node's redo log and its sealed segments. It implements
// core.CommitLogger: pass it as core.Config.CommitLog (or
// server.Config.Durable).
type Set struct {
	dir  string
	opts Options
	gseq atomic.Uint64
	log  *Log

	// smu guards sealed — the rotation-retired, immutable segments
	// still on disk awaiting checkpoint coverage (internal/checkpoint
	// deletes each once a retained checkpoint's frontier reaches its
	// MaxSeq).
	smu    sync.Mutex
	sealed []checkpoint.Segment
}

var _ core.CommitLogger = (*Set)(nil)
var _ checkpoint.Source = (*Set)(nil)

// Open creates (or reopens) the log set in dir, first recovering
// existing state into store. logs must be 1: a Set holds one log.
// Recovery is checkpoint-aware: the newest valid checkpoint (if any) is loaded as
// the base and only log records with sequence numbers beyond its
// frontier are replayed — for every such entity, the highest-sequence
// value is installed (defining the entity if the store does not know
// it). Damaged file tails are truncated so appending resumes from a
// clean prefix; a torn checkpoint is skipped for an older valid one,
// falling back to full replay when none exists. The returned
// RecoveryInfo describes what was found; inspect CorruptFiles and
// SkippedCheckpoints for damage beyond an ordinary torn tail.
func Open(dir string, logs int, store *entity.Store, opts Options) (*Set, *RecoveryInfo, error) {
	start := time.Now()
	if logs != 1 {
		return nil, nil, fmt.Errorf("durable: a log set has exactly 1 log, not %d", logs)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, fmt.Errorf("durable: %w", err)
	}
	// The directory entry itself must survive a crash on first run.
	if parent := filepath.Dir(filepath.Clean(dir)); parent != "" {
		if err := wal.SyncDir(parent); err != nil {
			return nil, nil, err
		}
	}

	info := &RecoveryInfo{}

	// A crash between a checkpoint temp write and its rename leaves a
	// stale .tmp behind; it was never part of the durable state.
	if _, err := checkpoint.RemoveTemps(dir); err != nil {
		return nil, nil, err
	}

	// Checkpoint base: apply the snapshot first, then replay only the
	// tail behind its frontier. Entries were sorted by name at write
	// time, so intern-ID assignment for new names stays deterministic.
	ck, ckPath, skipped, err := checkpoint.LoadLatest(dir)
	if err != nil {
		return nil, nil, err
	}
	info.SkippedCheckpoints = skipped
	var frontier uint64
	if ck != nil {
		frontier = ck.Frontier
		info.CheckpointSeq = ck.Frontier
		info.CheckpointFile = filepath.Base(ckPath)
		info.CheckpointEntities = len(ck.Entries)
		info.MaxSeq = frontier
		for _, e := range ck.Entries {
			if store.Exists(e.Name) {
				if err := store.Install(e.Name, e.Val); err != nil {
					return nil, nil, fmt.Errorf("durable: checkpoint %q: %w", e.Name, err)
				}
			} else {
				store.Define(e.Name, e.Val)
			}
		}
	}

	// The glob covers both active segments (wal-<k>.log) and sealed
	// ones (wal-<k>.sealed-<maxseq>.log).
	paths, err := filepath.Glob(filepath.Join(dir, "wal-*.log"))
	if err != nil {
		return nil, nil, fmt.Errorf("durable: %w", err)
	}
	sort.Strings(paths)
	type latestVal struct {
		val int64
		seq uint64
	}
	latest := map[string]latestVal{}
	var activeBytes int64
	var activeLastSeq uint64
	var sealedSegs []checkpoint.Segment
	for _, path := range paths {
		recs, err := recoverFile(path, info)
		if err != nil {
			return nil, nil, err
		}
		var fileMax uint64
		for _, r := range recs {
			if r.Seq > info.MaxSeq {
				info.MaxSeq = r.Seq
			}
			if r.Seq > fileMax {
				fileMax = r.Seq
			}
			if r.Name == "" {
				continue // commit-group marker, not an entity
			}
			if r.Seq <= frontier {
				continue // already reflected in the checkpoint base
			}
			info.TailRecords++
			if lv, ok := latest[r.Name]; !ok || r.Seq > lv.seq {
				latest[r.Name] = latestVal{val: r.Value, seq: r.Seq}
			}
		}
		var size int64
		if st, err := os.Stat(path); err == nil {
			size = st.Size() // recoverFile already truncated any damage
		}
		base := filepath.Base(path)
		if _, maxSeq, ok := parseSealedName(base); ok {
			sealedSegs = append(sealedSegs, checkpoint.Segment{Path: path, MaxSeq: maxSeq, Bytes: size})
		} else if k, ok := parseActiveName(base); ok && k == 0 {
			activeBytes, activeLastSeq = size, fileMax
		} else if ok {
			// Another log's active file, left by a node that kept several:
			// nothing appends to it again, so it is a sealed segment
			// ending at its last record.
			sealedSegs = append(sealedSegs, checkpoint.Segment{Path: path, MaxSeq: fileMax, Bytes: size})
		}
	}
	names := make([]string, 0, len(latest))
	for n := range latest {
		names = append(names, n)
	}
	sort.Strings(names) // deterministic intern-ID assignment for new names
	for _, n := range names {
		lv := latest[n]
		if store.Exists(n) {
			if err := store.Install(n, lv.val); err != nil {
				return nil, nil, fmt.Errorf("durable: replay %q: %w", n, err)
			}
		} else {
			store.Define(n, lv.val)
		}
		info.Applied++
	}

	s := &Set{dir: dir, opts: opts, sealed: sealedSegs}
	s.gseq.Store(info.MaxSeq)
	p := filepath.Join(dir, "wal-0.log")
	f, err := wal.Create(p)
	if err != nil {
		return nil, nil, err
	}
	s.log = newLog(s, f, p, activeBytes, activeLastSeq)
	info.Duration = time.Since(start)
	return s, info, nil
}

// parseActiveName recognises an active segment name, wal-<k>.log.
func parseActiveName(base string) (k int, ok bool) {
	mid := strings.TrimSuffix(strings.TrimPrefix(base, "wal-"), ".log")
	if len(mid)+8 != len(base) {
		return 0, false
	}
	k, err := strconv.Atoi(mid)
	if err != nil || k < 0 {
		return 0, false
	}
	return k, true
}

// parseSealedName recognises a sealed segment name,
// wal-<k>.sealed-<maxseq>.log (maxseq zero-padded at seal time so the
// directory listing sorts chronologically per log).
func parseSealedName(base string) (k int, maxSeq uint64, ok bool) {
	mid := strings.TrimSuffix(strings.TrimPrefix(base, "wal-"), ".log")
	if len(mid)+8 != len(base) {
		return 0, 0, false
	}
	kStr, seqStr, found := strings.Cut(mid, ".sealed-")
	if !found {
		return 0, 0, false
	}
	k, err := strconv.Atoi(kStr)
	if err != nil || k < 0 {
		return 0, 0, false
	}
	seq, err := strconv.ParseUint(seqStr, 10, 64)
	if err != nil {
		return 0, 0, false
	}
	return k, seq, true
}

// recoverFile scans one log, truncating any damaged tail in place so
// appending can resume, and folds what it found into info. Damage is
// either a torn/corrupt record (wal.Scan stops there) or a torn commit
// group: a marker promising n member records of which the crash
// persisted fewer. Both truncate to the longest prefix of whole
// commits, so a commit is recovered entirely or not at all.
func recoverFile(path string, info *RecoveryInfo) ([]wal.Record, error) {
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		return nil, fmt.Errorf("durable: recover: %w", err)
	}
	defer f.Close()
	recs, goodOff, serr := wal.Scan(f)
	info.Files++

	// Commit-group pass: walk the clean prefix, advancing over whole
	// groups; an incomplete trailing group shortens the prefix to the
	// marker's own byte offset (records are self-sizing: 24+len(name)).
	valid := len(recs)
	for i := 0; i < len(recs); {
		if recs[i].Name == "" {
			n := int(recs[i].Value)
			if n < 1 || i+1+n > len(recs) {
				valid = i
				break
			}
			i += 1 + n
		} else {
			i++
		}
	}
	tornCommit := valid < len(recs)
	if tornCommit {
		info.TornCommits++
		var off int64
		for _, r := range recs[:valid] {
			off += int64(24 + len(r.Name))
		}
		goodOff = off
		recs = recs[:valid]
	}
	info.Records += len(recs)

	if serr != nil || tornCommit {
		st, err := f.Stat()
		if err != nil {
			return nil, fmt.Errorf("durable: recover %s: %w", path, err)
		}
		info.TruncatedBytes += st.Size() - goodOff
		switch {
		case serr != nil && errors.Is(serr, wal.ErrCorrupt):
			info.CorruptFiles = append(info.CorruptFiles, filepath.Base(path))
		case serr != nil:
			info.TornFiles++
		}
		if err := f.Truncate(goodOff); err != nil {
			return nil, fmt.Errorf("durable: truncate %s: %w", path, err)
		}
		if err := f.Sync(); err != nil {
			return nil, fmt.Errorf("durable: truncate %s: %w", path, err)
		}
		if err := wal.SyncDir(filepath.Dir(path)); err != nil {
			return nil, err
		}
	}
	return recs, nil
}

// LogInstall implements core.CommitLogger.
func (s *Set) LogInstall(w core.CommitWrite) { s.log.LogInstall(w) }

// LogCommit implements core.CommitLogger.
func (s *Set) LogCommit(writes []core.CommitWrite) core.CommitAck {
	return s.log.LogCommit(writes)
}

// Barrier blocks until everything appended so far is durable — the big
// hammer for paths that learn of a commit without holding its ticket
// (e.g. an abort that raced a commit).
func (s *Set) Barrier() error { return s.log.barrier() }

// Close flushes the log's remaining batches, syncs once (so SyncOff
// shutdowns are still durable), and closes the file. Tickets that were
// already durable keep succeeding; anything else fails ErrClosed.
func (s *Set) Close() error { return s.log.close() }

// Stats snapshots the log's counters.
func (s *Set) Stats() Stats { return s.log.Stats() }

// Dir returns the log directory.
func (s *Set) Dir() string { return s.dir }

// Frontier returns the current sequence number: every record appended
// so far carries a sequence number <= the returned value. Read under
// the engine's Quiesce, the installed store state corresponds exactly
// to the log prefix up to the frontier — installs and sequence
// assignment both happen under the engine mutex — which is what makes
// a quiesced snapshot plus this number a valid checkpoint.
func (s *Set) Frontier() uint64 { return s.gseq.Load() }

// AppendedBytes returns the total log bytes durably written by this
// process — the checkpoint byte-trigger's input. Recovery-replayed
// bytes are not included; the trigger measures new growth.
func (s *Set) AppendedBytes() int64 { return s.Stats().Bytes }

// Rotate seals the active segment if it has records in it (sync +
// close + rename to wal-0.sealed-<maxseq>.log + fresh active file) and
// registers the sealed segment for later compaction. Appends continue
// concurrently — they queue while the log rotates.
func (s *Set) Rotate() error {
	seg, rotated, err := s.log.rotate()
	if rotated {
		s.smu.Lock()
		s.sealed = append(s.sealed, seg)
		s.smu.Unlock()
	}
	return err
}

// SealedSegments returns the sealed segments currently on disk, in
// the order they were discovered or rotated (oldest first).
func (s *Set) SealedSegments() []checkpoint.Segment {
	s.smu.Lock()
	defer s.smu.Unlock()
	return append([]checkpoint.Segment(nil), s.sealed...)
}

// RemoveSealed deletes one sealed segment from disk and from the
// set's bookkeeping. Only safe once a retained checkpoint's frontier
// has reached seg.MaxSeq — the checkpointer enforces that against the
// OLDEST retained checkpoint, so even recovery that falls back past
// the newest checkpoint finds every record it needs. The directory is
// fsynced so bounded disk usage survives a crash (a resurrected
// segment would merely be replayed and re-deleted, but the bound is
// part of the contract).
func (s *Set) RemoveSealed(seg checkpoint.Segment) error {
	if err := os.Remove(seg.Path); err != nil && !os.IsNotExist(err) {
		return fmt.Errorf("durable: remove segment: %w", err)
	}
	if err := wal.SyncDir(s.dir); err != nil {
		return err
	}
	s.smu.Lock()
	defer s.smu.Unlock()
	for i := range s.sealed {
		if s.sealed[i].Path == seg.Path {
			s.sealed = append(s.sealed[:i], s.sealed[i+1:]...)
			break
		}
	}
	return nil
}

// LogStatus is the log's accounting, as served by the /debug/wal admin
// endpoint.
type LogStatus struct {
	// ActiveBytes and ActiveLastSeq cover the active segment file:
	// durably written size and the highest sequence number flushed to
	// it (zero right after a rotation).
	ActiveBytes   int64  `json:"activeBytes"`
	ActiveLastSeq uint64 `json:"activeLastSeq"`
	// DurableSeq is the highest sequence number fsynced.
	DurableSeq uint64 `json:"durableSeq"`
	// PendingRecords counts records queued but not yet flushed.
	PendingRecords int `json:"pendingRecords"`
	// SealedSegments and SealedBytes cover the sealed, not-yet-compacted
	// segments.
	SealedSegments int   `json:"sealedSegments"`
	SealedBytes    int64 `json:"sealedBytes"`
}

// Status reports the log's accounting for the admin surface.
func (s *Set) Status() LogStatus {
	st := s.log.status()
	s.smu.Lock()
	defer s.smu.Unlock()
	st.SealedSegments = len(s.sealed)
	for _, seg := range s.sealed {
		st.SealedBytes += seg.Bytes
	}
	return st
}
