package durable

import (
	"fmt"
	"io"
	"os"
	"strings"
	"sync"
	"time"

	"partialrollback/internal/checkpoint"
	"partialrollback/internal/core"
	"partialrollback/internal/wal"
)

// File is the slice of *os.File the log needs — injectable so tests
// can fail writes and fsyncs deterministically.
type File interface {
	io.Writer
	Sync() error
	Close() error
}

// pend is one enqueued append batch: a commit's whole write-set, or a
// single shrinking-phase unlock install (commits == 0). Keeping commit
// boundaries lets SyncAlways give each commit its own fsync while
// SyncGroup concatenates freely.
type pend struct {
	buf     []byte
	lastSeq uint64
	commits int
	records int
}

// Log is the redo log: appends enqueue under a mutex (called with the
// engine mutex held, so never any IO here), a flusher
// goroutine writes and fsyncs batches, and tickets park on a condition
// variable until their sequence number is durable.
type Log struct {
	set  *Set
	file File
	path string // active segment path; "" for injected test files (rotation disabled)

	mu          sync.Mutex
	work        sync.Cond // signals the flusher: pending or closing, or rotation done
	durable     sync.Cond // signals waiters: durableSeq, err, or flushing moved
	pending     []pend
	lastSeq     uint64 // highest seq enqueued to this log
	durableSeq  uint64 // highest seq durably flushed
	fileLastSeq uint64 // highest seq written to the active segment file
	fileBytes   int64  // bytes in the active segment file
	flushing    bool   // flusher is mid-IO outside the mutex
	rotating    bool   // rotate owns the file; flusher must not touch it
	err         error  // sticky first failure; everything after fails
	closing     bool
	done        chan struct{} // flusher exited
	pool        [][]byte      // recycled pend buffers
	wbuf        []byte        // flusher's batch concatenation buffer
	st          Stats
}

// newLog starts a log over an already-open active segment file.
// fileBytes/fileLastSeq seed the active-segment accounting with what
// recovery found already in the file (zero for a fresh segment).
func newLog(set *Set, f File, path string, fileBytes int64, fileLastSeq uint64) *Log {
	l := &Log{set: set, file: f, path: path,
		fileBytes: fileBytes, fileLastSeq: fileLastSeq, done: make(chan struct{})}
	l.work.L = &l.mu
	l.durable.L = &l.mu
	go l.flusher()
	return l
}

// LogInstall enqueues a shrinking-phase unlock install. It carries no
// ticket: any transaction able to observe the installed value must
// first take the entity's lock — which happens-after this append under
// the same engine mutex — so that transaction's own commit ticket
// (which waits for the log tail) covers this record. An install whose
// name cannot be encoded fails the log, so that covering ticket reports
// the loss instead of succeeding without the record.
func (l *Log) LogInstall(w core.CommitWrite) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.err != nil || l.closing || l.checkNameLocked(w.Name) != nil {
		return
	}
	seq := l.set.gseq.Add(1)
	p := pend{buf: l.takeBufLocked(), lastSeq: seq, records: 1}
	p.buf = wal.AppendRecord(p.buf, w.Name, w.Val, seq)
	l.pushLocked(p)
}

// checkNameLocked makes a name too long for the record format the
// log's sticky error, waking every waiter.
func (l *Log) checkNameLocked(name string) error {
	if len(name) <= 0xffff {
		return nil
	}
	l.err = fmt.Errorf("durable: entity name too long (%d bytes)", len(name))
	l.durable.Broadcast()
	return l.err
}

// LogCommit enqueues a committing transaction's write-set and returns
// its durability ticket. Read-only commits (empty writes) enqueue
// nothing but still wait for the current log tail, so a commit that
// observed other transactions' writes is never acknowledged before
// those writes are durable. Called under the engine mutex; must not
// block.
func (l *Log) LogCommit(writes []core.CommitWrite) core.CommitAck {
	l.mu.Lock()
	if l.closing {
		l.mu.Unlock()
		return errAck{ErrClosed}
	}
	if l.err != nil {
		err := l.err
		l.mu.Unlock()
		return errAck{err}
	}
	for _, w := range writes {
		if err := l.checkNameLocked(w.Name); err != nil {
			l.mu.Unlock()
			return errAck{err}
		}
	}
	switch {
	case len(writes) == 1:
		// A single-record commit is atomic by itself; no group marker.
		seq := l.set.gseq.Add(1)
		p := pend{buf: l.takeBufLocked(), lastSeq: seq, commits: 1, records: 1}
		p.buf = wal.AppendRecord(p.buf, writes[0].Name, writes[0].Val, seq)
		l.pushLocked(p)
	case len(writes) > 1:
		// Multi-record commits get a group marker (empty name, value =
		// member count) ahead of their records, so recovery can refuse
		// to half-apply a commit whose tail was torn off by a crash.
		n := uint64(len(writes))
		base := l.set.gseq.Add(n + 1)
		seq := base - n
		p := pend{buf: l.takeBufLocked(), lastSeq: base, commits: 1, records: len(writes) + 1}
		p.buf = wal.AppendRecord(p.buf, "", int64(len(writes)), seq)
		for _, w := range writes {
			seq++
			p.buf = wal.AppendRecord(p.buf, w.Name, w.Val, seq)
		}
		l.pushLocked(p)
	}
	t := &ticket{log: l, seq: l.lastSeq}
	l.mu.Unlock()
	return t
}

func (l *Log) pushLocked(p pend) {
	l.lastSeq = p.lastSeq
	l.pending = append(l.pending, p)
	l.st.Appends += int64(p.records)
	l.st.Commits += int64(p.commits)
	l.work.Signal()
}

func (l *Log) takeBufLocked() []byte {
	if n := len(l.pool); n > 0 {
		b := l.pool[n-1]
		l.pool = l.pool[:n-1]
		return b[:0]
	}
	return nil
}

func (l *Log) putBufLocked(b []byte) {
	if b != nil && len(l.pool) < 64 {
		l.pool = append(l.pool, b)
	}
}

// barrier waits for everything enqueued so far to be durable.
func (l *Log) barrier() error {
	l.mu.Lock()
	seq := l.lastSeq
	l.mu.Unlock()
	t := ticket{log: l, seq: seq}
	return t.Wait()
}

// Stats snapshots the log's counters.
func (l *Log) Stats() Stats {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.st
}

// sealedPath names a sealed segment: wal-0.sealed-<maxseq>.log beside
// the active wal-0.log, the sequence zero-padded so lexicographic order
// is sequence order.
func sealedPath(active string, maxSeq uint64) string {
	return fmt.Sprintf("%s.sealed-%020d.log", strings.TrimSuffix(active, ".log"), maxSeq)
}

// rotate seals the active segment — syncs and closes it, renames it to
// wal-0.sealed-<maxseq>.log, and opens a fresh active segment —
// returning the sealed segment's description. Appends keep enqueueing
// throughout (the flusher is parked while the rotation owns the file;
// pending records land in the new segment, which is correct because a
// sealed segment only promises MaxSeq as an upper bound on what it
// holds). A log whose active segment holds no records is left alone,
// as is one whose file was injected without a path (tests) or that has
// already failed or is closing.
func (l *Log) rotate() (seg checkpoint.Segment, rotated bool, err error) {
	l.mu.Lock()
	if l.path == "" || l.err != nil || l.closing || l.rotating {
		err = l.err
		l.mu.Unlock()
		return checkpoint.Segment{}, false, err
	}
	// Park the flusher first, then wait out any in-flight flush; no new
	// flush can start while rotating is set.
	l.rotating = true
	for l.flushing {
		l.durable.Wait()
	}
	if l.err != nil || l.closing || l.fileLastSeq == 0 {
		err = l.err
		l.rotating = false
		l.work.Broadcast()
		l.mu.Unlock()
		return checkpoint.Segment{}, false, err
	}
	old := l.file
	maxSeq := l.fileLastSeq
	bytes := l.fileBytes
	l.mu.Unlock()

	// IO outside the mutex: appends (called under the engine mutex)
	// keep enqueueing; only the flusher is parked. Sync before the
	// rename so a sealed segment's contents are always durable (under
	// SyncOff the tail may not have been fsynced yet).
	sealed := sealedPath(l.path, maxSeq)
	ioErr := old.Sync()
	if ioErr == nil {
		ioErr = old.Close()
	}
	if ioErr == nil {
		ioErr = os.Rename(l.path, sealed)
	}
	var nf *os.File
	if ioErr == nil {
		nf, ioErr = wal.Create(l.path) // fsyncs the directory, covering the rename too
	}

	l.mu.Lock()
	defer func() {
		l.rotating = false
		l.work.Broadcast()
		l.durable.Broadcast()
		l.mu.Unlock()
	}()
	if ioErr != nil {
		if l.err == nil {
			l.err = fmt.Errorf("durable: rotate: %w", ioErr)
		}
		return checkpoint.Segment{}, false, l.err
	}
	l.file = nf
	l.fileBytes, l.fileLastSeq = 0, 0
	return checkpoint.Segment{Path: sealed, MaxSeq: maxSeq, Bytes: bytes}, true, nil
}

// status snapshots the active-segment accounting for /debug/wal.
func (l *Log) status() LogStatus {
	l.mu.Lock()
	defer l.mu.Unlock()
	pendingRecs := 0
	for i := range l.pending {
		pendingRecs += l.pending[i].records
	}
	return LogStatus{
		ActiveBytes:    l.fileBytes,
		ActiveLastSeq:  l.fileLastSeq,
		DurableSeq:     l.durableSeq,
		PendingRecords: pendingRecs,
	}
}

// flusher is the log's single IO goroutine, a leader loop with no
// timer: it takes everything pending, concatenates it into one write,
// fsyncs per the sync mode, advances durableSeq, and repeats. Commits
// enqueued while a write+fsync is in flight form the next batch, so a
// commit is only ever acknowledged by an fsync that started after it
// was enqueued. It exits when closed with an empty queue, so Close
// never loses acknowledged-to-be-pending records.
func (l *Log) flusher() {
	defer close(l.done)
	for {
		l.mu.Lock()
		// While a rotation owns the file, only enqueue — never touch IO
		// state (rotate closes the old segment and installs a new one).
		for l.rotating || (len(l.pending) == 0 && !l.closing) {
			l.work.Wait()
		}
		if len(l.pending) == 0 {
			l.mu.Unlock()
			return
		}
		mode := l.set.opts.Mode
		// Take the batch: everything pending, except under SyncAlways,
		// where exactly one write-commit (plus any unlock installs queued
		// before it) gets its own fsync.
		n := len(l.pending)
		if mode == SyncAlways {
			n = 1
			for i := range l.pending {
				if l.pending[i].commits > 0 {
					n = i + 1
					break
				}
			}
		}
		l.wbuf = l.wbuf[:0]
		var commits, records int
		var last uint64
		for _, p := range l.pending[:n] {
			l.wbuf = append(l.wbuf, p.buf...)
			commits += p.commits
			records += p.records
			last = p.lastSeq
			l.putBufLocked(p.buf)
		}
		rest := copy(l.pending, l.pending[n:])
		for i := rest; i < len(l.pending); i++ {
			l.pending[i] = pend{}
		}
		l.pending = l.pending[:rest]
		failed := l.err != nil
		l.flushing = true
		l.mu.Unlock()

		var err error
		var syncDur time.Duration
		if !failed {
			_, err = l.file.Write(l.wbuf)
			if err == nil && mode != SyncOff {
				t0 := time.Now()
				err = l.file.Sync()
				syncDur = time.Since(t0)
			}
			if err == nil && l.set.opts.OnFlush != nil {
				l.set.opts.OnFlush(FlushInfo{
					Commits: commits, Records: records,
					Bytes: len(l.wbuf), SyncDuration: syncDur,
				})
			}
		}

		l.mu.Lock()
		if !failed {
			l.st.Flushes++
			if err != nil {
				if l.err == nil {
					l.err = fmt.Errorf("durable: %w", err)
				}
			} else {
				if mode != SyncOff {
					l.st.Fsyncs++
				}
				l.st.Bytes += int64(len(l.wbuf))
				l.fileBytes += int64(len(l.wbuf))
				l.fileLastSeq = last
				if int64(commits) > l.st.MaxCommitsPerFlush {
					l.st.MaxCommitsPerFlush = int64(commits)
				}
				l.durableSeq = last
			}
		}
		l.flushing = false
		l.durable.Broadcast() // durableSeq, err, or flushing moved
		l.mu.Unlock()
	}
}

// close drains the flusher, syncs once (covers SyncOff shutdowns), and
// closes the file. It returns the sticky flush error if the log had
// already failed. Safe to call twice.
func (l *Log) close() error {
	l.mu.Lock()
	wasClosing := l.closing
	l.closing = true
	l.work.Broadcast()
	l.mu.Unlock()
	<-l.done
	l.mu.Lock()
	sticky := l.err
	if l.err == nil {
		l.err = ErrClosed
	}
	l.durable.Broadcast()
	l.mu.Unlock()
	if wasClosing {
		return nil
	}
	var err error
	if sticky != nil {
		err = sticky
	}
	if serr := l.file.Sync(); serr != nil && err == nil {
		err = fmt.Errorf("durable: close sync: %w", serr)
	}
	if cerr := l.file.Close(); cerr != nil && err == nil {
		err = fmt.Errorf("durable: close: %w", cerr)
	}
	return err
}

// ticket is a CommitAck bound to a log sequence number.
type ticket struct {
	log *Log
	seq uint64
}

// Wait blocks until the ticket's sequence number is durable or the log
// fails. A batch that became durable before a later failure still
// reports success — its records are on disk.
func (t ticket) Wait() error {
	l := t.log
	l.mu.Lock()
	for l.durableSeq < t.seq && l.err == nil {
		l.durable.Wait()
	}
	ok := l.durableSeq >= t.seq
	err := l.err
	l.mu.Unlock()
	if ok {
		return nil
	}
	return err
}

// errAck is a pre-failed CommitAck.
type errAck struct{ err error }

func (e errAck) Wait() error { return e.err }
