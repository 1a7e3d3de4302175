package checkpoint

import (
	"errors"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"

	"partialrollback/internal/wal"
)

// Source is the durability layer a Checkpointer drains — implemented
// by durable.Set. (checkpoint sits below durable in the import graph,
// so the dependency points this way.)
type Source interface {
	// Dir is the directory holding the logs; checkpoints live beside
	// them.
	Dir() string
	// Frontier returns the global sequence number; read inside the
	// Snapshot callback's quiesce it exactly covers the installed
	// state.
	Frontier() uint64
	// AppendedBytes is the monotonic count of log bytes written by
	// this process (the byte-trigger's input).
	AppendedBytes() int64
	// Rotate seals the active segment if it is non-empty.
	Rotate() error
	// SealedSegments lists sealed segments still on disk.
	SealedSegments() []Segment
	// RemoveSealed deletes one sealed segment (disk + bookkeeping).
	RemoveSealed(Segment) error
}

// Quiescer matches core.System.Quiesce without importing core: fn runs
// with the engine mutex held, excluding all installs and log appends.
type Quiescer interface {
	Quiesce(fn func())
}

// Snapshotter captures the committed entity state. Implemented by a
// small adapter over entity.Store in the caller (internal/node and the
// tests), keeping this package free of an entity dependency.
type Snapshotter interface {
	// Snapshot returns the current entries. Called inside Quiesce, so
	// it must be fast and must not block on the engine.
	Snapshot() []Entry
}

// SnapshotFunc adapts a function to Snapshotter.
type SnapshotFunc func() []Entry

// Snapshot implements Snapshotter.
func (f SnapshotFunc) Snapshot() []Entry { return f() }

// Options tunes a Checkpointer.
type Options struct {
	// Interval triggers a checkpoint this long after the previous one
	// (or after Start). Zero or negative disables the time trigger.
	Interval time.Duration
	// Bytes triggers a checkpoint once this many new log bytes have
	// been appended since the previous one. Zero or negative disables
	// the byte trigger.
	Bytes int64
	// Retain keeps this many newest checkpoints on disk (minimum 1;
	// default 2, so one freshly-written checkpoint being invalid — a
	// storage fault — still leaves a valid base). Sealed log segments
	// are deleted only once the OLDEST retained checkpoint covers
	// them, so every retained checkpoint remains a usable recovery
	// base.
	Retain int
	// PhaseDelay sleeps between checkpoint phases (after rotation,
	// between the temp file's fsync and its rename, after publication,
	// and between retention removals), widening each crash window so
	// the kill -9 test in internal/node can land a kill inside any of
	// them. Zero in production.
	PhaseDelay time.Duration
	// OnCheckpoint, when non-nil, is called after every completed
	// checkpoint, outside all locks (metrics export).
	OnCheckpoint func(Info)
	// Logf, when non-nil, receives one line per checkpoint and any
	// background errors (e.g. log.Printf).
	Logf func(format string, args ...any)
}

// Info describes one completed checkpoint.
type Info struct {
	// Frontier is the WAL sequence frontier the checkpoint covers.
	Frontier uint64
	// Entities and Bytes are the snapshot's entry count and encoded
	// file size.
	Entities int
	Bytes    int64
	// SegmentsRemoved and SegmentBytesRemoved count the sealed log
	// segments (and their bytes) compacted away by this checkpoint's
	// retention pass.
	SegmentsRemoved     int
	SegmentBytesRemoved int64
	// CheckpointsRemoved counts old checkpoint files pruned.
	CheckpointsRemoved int
	// Duration is the end-to-end wall time (rotation through
	// compaction); QuiesceDuration is the engine-stalling part — the
	// snapshot copy under Quiesce, microseconds for in-memory stores.
	Duration        time.Duration
	QuiesceDuration time.Duration
}

// Status is a Checkpointer's point-in-time accounting, served by the
// /debug/wal admin endpoint.
type Status struct {
	// Checkpoints counts completed checkpoints this process.
	Checkpoints int64 `json:"checkpoints"`
	// LastFrontier, LastEntities, LastBytes, and LastUnix describe the
	// most recent checkpoint this process wrote (zero before the
	// first).
	LastFrontier uint64 `json:"lastFrontier"`
	LastEntities int    `json:"lastEntities"`
	LastBytes    int64  `json:"lastBytes"`
	LastUnix     int64  `json:"lastUnix"`
	// Errors counts failed checkpoint attempts (the runner keeps
	// going; the next trigger retries).
	Errors int64 `json:"errors"`
}

// Checkpointer runs the fuzzy-checkpoint procedure: rotate the active
// segments, capture a commit-consistent snapshot plus frontier under
// engine quiesce, write it crash-safely, prune old checkpoints to
// Retain, and delete sealed segments wholly covered by the oldest
// retained checkpoint. A background goroutine triggers it by interval
// and/or appended-bytes; CheckpointNow triggers it synchronously.
type Checkpointer struct {
	src  Source
	eng  Quiescer
	snap Snapshotter
	opts Options

	mu         sync.Mutex
	status     Status
	lastBytes  int64 // Source.AppendedBytes at the previous checkpoint
	running    bool  // a checkpoint is in progress (CheckpointNow vs ticker)
	started    bool  // Start launched the trigger loop
	closed     bool
	wakeClosed chan struct{}
	done       chan struct{}
}

// New prepares a Checkpointer; Start launches its background trigger
// loop. src, eng, and snap must be non-nil.
func New(src Source, eng Quiescer, snap Snapshotter, opts Options) *Checkpointer {
	if opts.Retain < 1 {
		opts.Retain = 2
	}
	return &Checkpointer{
		src: src, eng: eng, snap: snap, opts: opts,
		wakeClosed: make(chan struct{}),
		done:       make(chan struct{}),
	}
}

// Start launches the background trigger loop. With both triggers
// disabled it still starts (CheckpointNow keeps working) but the loop
// only waits for Close. Start is idempotent and a no-op after Close.
func (c *Checkpointer) Start() {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.started || c.closed {
		return
	}
	c.started = true
	go c.loop()
}

func (c *Checkpointer) loop() {
	defer close(c.done)
	// The byte trigger is polled: cheap (two atomic loads) and avoids
	// threading a notification channel through the append hot path.
	poll := 50 * time.Millisecond
	var timer *time.Timer
	var timerC <-chan time.Time
	if c.opts.Interval > 0 {
		timer = time.NewTimer(c.opts.Interval)
		timerC = timer.C
		defer timer.Stop()
	}
	var pollT *time.Ticker
	var pollC <-chan time.Time
	if c.opts.Bytes > 0 {
		pollT = time.NewTicker(poll)
		pollC = pollT.C
		defer pollT.Stop()
	}
	for {
		select {
		case <-c.wakeClosed:
			return
		case <-timerC:
			if err := c.CheckpointNow(); err != nil && !errors.Is(err, ErrClosed) {
				c.logf("checkpoint: %v", err)
			}
			timer.Reset(c.opts.Interval)
		case <-pollC:
			c.mu.Lock()
			due := c.src.AppendedBytes()-c.lastBytes >= c.opts.Bytes
			c.mu.Unlock()
			if !due {
				continue
			}
			if err := c.CheckpointNow(); err != nil && !errors.Is(err, ErrClosed) {
				c.logf("checkpoint: %v", err)
			}
			if timer != nil { // a byte-triggered checkpoint resets the clock
				if !timer.Stop() {
					select {
					case <-timer.C:
					default:
					}
				}
				timer.Reset(c.opts.Interval)
			}
		}
	}
}

// ErrClosed is returned by CheckpointNow after Close.
var ErrClosed = errors.New("checkpoint: closed")

// errBusy is returned when another checkpoint is already in flight;
// callers treat it as success (the in-flight one covers them).
var errBusy = errors.New("checkpoint: already in progress")

// CheckpointNow runs one full checkpoint synchronously. Concurrent
// calls coalesce: if a checkpoint is already in flight the call
// returns nil without taking another.
func (c *Checkpointer) CheckpointNow() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return ErrClosed
	}
	if c.running {
		c.mu.Unlock()
		return nil
	}
	c.running = true
	c.mu.Unlock()

	info, err := c.checkpoint()

	c.mu.Lock()
	c.running = false
	if err != nil {
		c.status.Errors++
	} else {
		c.status.Checkpoints++
		c.status.LastFrontier = info.Frontier
		c.status.LastEntities = info.Entities
		c.status.LastBytes = info.Bytes
		c.status.LastUnix = time.Now().Unix()
		c.lastBytes = c.src.AppendedBytes()
	}
	c.mu.Unlock()
	if err != nil {
		return err
	}
	if c.opts.OnCheckpoint != nil {
		c.opts.OnCheckpoint(info)
	}
	c.logf("checkpoint: wrote %s (%d entities, %d bytes) in %s (quiesce %s), removed %d segment(s) (%d bytes), pruned %d checkpoint(s)",
		FileName(info.Frontier), info.Entities, info.Bytes, info.Duration.Round(time.Microsecond),
		info.QuiesceDuration.Round(time.Microsecond), info.SegmentsRemoved, info.SegmentBytesRemoved, info.CheckpointsRemoved)
	return nil
}

// checkpoint is the procedure body. Crash analysis, phase by phase:
//
//  1. Rotate: seals active segments. A crash after leaves extra sealed
//     files — recovery scans them like any log file.
//  2. Quiesce + snapshot: reads frontier G and copies the store while
//     every engine mutex is held. Installs happen before sequence
//     assignment, both under the engine mutex, so the snapshot
//     reflects exactly the records with seq <= G: commit-consistent,
//     no half-applied multi-entity commit. Rotation happened BEFORE
//     the snapshot, so every sealed segment's MaxSeq <= G.
//  3. Write: temp + fsync + rename + dir fsync. A crash before the
//     rename leaves only a temp file (removed at next open); after,
//     the checkpoint is durable and complete.
//  4. Prune checkpoints to Retain newest; then delete sealed segments
//     with MaxSeq <= the OLDEST retained checkpoint's frontier. A
//     crash anywhere here leaves extra files, never missing state:
//     recovery tolerates both surplus checkpoints and surplus
//     segments (replaying a covered segment re-installs values the
//     checkpoint already holds — records are absolute, so idempotent).
func (c *Checkpointer) checkpoint() (Info, error) {
	var info Info
	start := time.Now()

	if err := c.src.Rotate(); err != nil {
		return info, fmt.Errorf("rotate: %w", err)
	}
	c.phaseDelay()

	var st State
	qStart := time.Now()
	c.eng.Quiesce(func() {
		st.Frontier = c.src.Frontier()
		st.Entries = c.snap.Snapshot()
	})
	info.QuiesceDuration = time.Since(qStart)
	info.Frontier = st.Frontier
	info.Entities = len(st.Entries)
	// Sorting happens outside the quiesce (it stalls the engine) but
	// before the write: name order keeps recovery's intern-ID
	// assignment for new names deterministic, matching the log-replay
	// path.
	sort.Slice(st.Entries, func(i, j int) bool { return st.Entries[i].Name < st.Entries[j].Name })

	_, size, err := Write(c.src.Dir(), st, WriteOptions{TempDelay: c.opts.PhaseDelay})
	if err != nil {
		return info, err
	}
	info.Bytes = size
	c.phaseDelay()

	files, err := List(c.src.Dir())
	if err != nil {
		return info, err
	}
	for _, f := range files[min(len(files), c.opts.Retain):] {
		if err := os.Remove(f.Path); err != nil && !os.IsNotExist(err) {
			return info, fmt.Errorf("checkpoint: prune %s: %w", f.Path, err)
		}
		info.CheckpointsRemoved++
		c.phaseDelay()
	}
	if info.CheckpointsRemoved > 0 {
		if err := wal.SyncDir(c.src.Dir()); err != nil {
			return info, err
		}
	}

	// Compaction: a segment is garbage only when the OLDEST retained
	// checkpoint already covers it, so falling back to any retained
	// checkpoint still finds every record it needs.
	retained := files[:min(len(files), c.opts.Retain)]
	safeSeq := uint64(0)
	if len(retained) > 0 {
		safeSeq = retained[len(retained)-1].Frontier
	}
	for _, seg := range c.src.SealedSegments() {
		if seg.MaxSeq > safeSeq {
			continue
		}
		if err := c.src.RemoveSealed(seg); err != nil {
			return info, err
		}
		info.SegmentsRemoved++
		info.SegmentBytesRemoved += seg.Bytes
		c.phaseDelay()
	}

	info.Duration = time.Since(start)
	return info, nil
}

func (c *Checkpointer) phaseDelay() {
	if c.opts.PhaseDelay > 0 {
		time.Sleep(c.opts.PhaseDelay)
	}
}

func (c *Checkpointer) logf(format string, args ...any) {
	if c.opts.Logf != nil {
		c.opts.Logf(format, args...)
	}
}

// Status returns the runner's accounting.
func (c *Checkpointer) Status() Status {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.status
}

// Close stops the background loop and waits for any in-flight
// checkpoint to finish. Call after draining the engine and before
// closing the log set, so a final CheckpointNow (if desired) still has
// a live Source.
func (c *Checkpointer) Close() {
	c.mu.Lock()
	if !c.closed {
		c.closed = true
		close(c.wakeClosed)
	}
	started := c.started
	c.mu.Unlock()
	if started {
		<-c.done
	}
	// The loop is gone, but a CheckpointNow caller may still be in
	// checkpoint(); running flips false only under mu, so waiting for
	// it here makes Close a full barrier.
	for {
		c.mu.Lock()
		r := c.running
		c.mu.Unlock()
		if !r {
			return
		}
		time.Sleep(time.Millisecond)
	}
}
