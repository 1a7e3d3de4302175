// Package server exposes a core.System over TCP: the network
// transaction service of the partial-rollback engine.
//
// Each connection is served by a connection object with one reader
// goroutine, one writer goroutine and one goroutine per active stream.
// A client ships each transaction as one BeginProgram frame on a stream
// of its choosing (see internal/wire). The reader decodes the frame
// straight into the program's executable form (wire.Decoder.ReadRequest
// builds a txn.Exec: entity indexes, local slots and compiled
// expressions, with no txn.Program in between), admits the stream and
// starts its goroutine, so thousands of streams execute concurrently
// over one socket. The stream's goroutine registers the program
// (core.System.RegisterExec, which validates it: §2 checks stay off the
// reader) and drives it to commit with the shared re-execution loop
// from internal/exec. The engine runs with core.Config.OrderLocks, so
// registration orders each program in its one validation pass: lock
// requests first, in ascending entity-ID order, then the other
// operations as sent.
// Because every served transaction acquires its locks in that one
// order, none can deadlock, so the engine runs with no
// core.Config.Resolver: a wait only queues, and the node runs no cycle
// detection (it links no internal/deadlock). The engine's only
// rollback here is the restart (strategy Total) of a transaction
// aborted at its deadline or at shutdown, and the stream's one reply then is the retryable Error
// that ends it (CodeRolledBack or CodeShutdown); otherwise the reply is
// Committed, with the transaction's outcome counters, or a
// non-retryable Error. The writer coalesces frames across all
// streams into single writes, yielding once before each write so that
// replies made ready in the same scheduling round share it. Every
// accepted stream is guaranteed a terminal reply, shutdown included.
//
// Problems with the connection itself — refused at accept, or a frame
// that fails to decode — are reported as an Error on wire.ConnStream
// (stream 0), after which the connection is closed.
//
// The server bounds everything: concurrent sessions (with a bounded
// accept backlog beyond which connections are refused with CodeBusy),
// streams per connection (past MaxStreams new streams get the
// retryable CodeBusy), per-message read deadlines, and a
// per-transaction execution deadline after which the transaction is
// rolled back to its initial state and the client told to retry
// (CodeRolledBack). That deadline is a time handed to
// exec.StepToCommit, not a per-transaction context: the step loop
// checks it with one clock read every 256 steps and arms a timer only
// while the transaction is parked on a lock. The server's base context
// carries only shutdown cancellation. Shutdown drains in-flight
// transactions until the caller's context expires, then rolls back the
// rest, so the store is always left consistent and no goroutine
// outlives the server.
package server

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"partialrollback/internal/core"
	"partialrollback/internal/durable"
	"partialrollback/internal/entity"
	"partialrollback/internal/exec"
	"partialrollback/internal/obs"
	"partialrollback/internal/txn"
	"partialrollback/internal/wire"
)

// Config configures a Server.
type Config struct {
	// Store is the global database served. Required.
	Store *entity.Store
	// MaxSessions bounds concurrently served connections. Default 256.
	MaxSessions int
	// Backlog bounds connections allowed to wait for a session slot;
	// beyond it connections are refused with CodeBusy. Default 32.
	Backlog int
	// IdleTimeout is the per-message read deadline. Default 2m.
	IdleTimeout time.Duration
	// RequestTimeout bounds one transaction's execution, queueing
	// included; past it the transaction is rolled back to its initial
	// state and the client told to retry. Default 30s.
	RequestTimeout time.Duration
	// MaxStreams bounds concurrently active streams per connection;
	// past it new streams are refused with the retryable CodeBusy.
	// Each active stream runs in its own goroutine, so this also bounds
	// a connection's goroutines. Default 4096.
	MaxStreams int
	// LockWait forwards to core.Config.LockWait — wire it to
	// obs.Collector.ObserveLockWait to populate pr_engine_lock_wait_ns.
	LockWait func(ns int64)
	// Durable, when non-nil, is the write-ahead log set commits are
	// recorded to: the engine logs every install through it, and a
	// transaction is acknowledged as committed only after its write-set
	// is durable per the set's sync mode. The caller opens the set
	// (running recovery) and closes it after Shutdown. Nil serves
	// memory-only with an unchanged commit path.
	Durable *durable.Set
	// OnEvent, when non-nil, receives every engine event (a tap:
	// tracer, metrics, oracles). It runs inside the engine's critical
	// section, so it must not call back into the engine.
	OnEvent func(core.Event)
	// Logf, when non-nil, receives serving diagnostics.
	Logf func(format string, args ...any)
}

// Server is the network transaction service. Create with New, start
// with Listen (or serve individual connections with ServeConn), stop
// with Shutdown.
type Server struct {
	cfg Config
	sys *core.System

	baseCtx context.Context
	cancel  context.CancelFunc
	drainCh chan struct{}

	mu    sync.Mutex
	ln    net.Listener
	conns map[net.Conn]*conn
	// draining is set by Shutdown, under mu, and never cleared. The reader
	// and every stream read it without the lock; Listen and runSession
	// read it under mu, so no listener or session is registered after
	// Shutdown's pokeConns/closeConns.
	draining atomic.Bool

	sem     chan struct{}
	backlog chan struct{}
	wg      sync.WaitGroup

	sessionsTotal  atomic.Int64
	sessionsActive atomic.Int64
	streamsTotal   atomic.Int64
	streamsActive  atomic.Int64
	txnsServed     atomic.Int64
	bytesIn        atomic.Int64
	bytesOut       atomic.Int64
	framesIn       atomic.Int64
	framesOut      atomic.Int64
	writerFlushes  atomic.Int64
	busyRejected   atomic.Int64
	protoErrors    atomic.Int64
}

// New creates a Server around a fresh engine. It panics if cfg.Store is
// nil (matching core.New).
func New(cfg Config) *Server {
	if cfg.MaxSessions <= 0 {
		cfg.MaxSessions = 256
	}
	if cfg.Backlog <= 0 {
		cfg.Backlog = 32
	}
	if cfg.IdleTimeout <= 0 {
		cfg.IdleTimeout = 2 * time.Minute
	}
	if cfg.RequestTimeout <= 0 {
		cfg.RequestTimeout = 30 * time.Second
	}
	if cfg.MaxStreams <= 0 {
		cfg.MaxStreams = 4096
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	s := &Server{
		cfg:     cfg,
		drainCh: make(chan struct{}),
		conns:   map[net.Conn]*conn{},
		sem:     make(chan struct{}, cfg.MaxSessions),
		backlog: make(chan struct{}, cfg.Backlog),
	}
	s.baseCtx, s.cancel = context.WithCancel(context.Background())
	ecfg := core.Config{
		Store:      cfg.Store,
		OrderLocks: true,
		OnEvent:    cfg.OnEvent,
		LockWait:   cfg.LockWait,
	}
	if cfg.Durable != nil {
		ecfg.CommitLog = cfg.Durable
	}
	s.sys = core.New(ecfg)
	return s
}

// System exposes the underlying engine (inspection, checkpoint quiesce,
// shutdown checks, tests).
func (s *Server) System() *core.System { return s.sys }

// Listen binds addr and starts accepting connections.
func (s *Server) Listen(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	s.mu.Lock()
	if s.draining.Load() {
		s.mu.Unlock()
		ln.Close()
		return errors.New("server: already shut down")
	}
	s.ln = ln
	s.mu.Unlock()
	s.wg.Add(1)
	go s.acceptLoop(ln)
	return nil
}

// Addr returns the bound listener address, or nil before Listen.
func (s *Server) Addr() net.Addr {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ln == nil {
		return nil
	}
	return s.ln.Addr()
}

func (s *Server) acceptLoop(ln net.Listener) {
	defer s.wg.Done()
	for {
		conn, err := ln.Accept()
		if err != nil {
			if s.draining.Load() {
				return
			}
			var ne net.Error
			if errors.As(err, &ne) && ne.Timeout() {
				continue
			}
			s.cfg.Logf("server: accept: %v", err)
			return
		}
		if s.draining.Load() {
			conn.Close()
			continue
		}
		select {
		case s.sem <- struct{}{}:
			s.wg.Add(1)
			go func() {
				defer s.wg.Done()
				defer func() { <-s.sem }()
				s.runSession(conn)
			}()
		default:
			select {
			case s.backlog <- struct{}{}:
				s.wg.Add(1)
				go func() {
					defer s.wg.Done()
					select {
					case s.sem <- struct{}{}:
						<-s.backlog
						defer func() { <-s.sem }()
						s.runSession(conn)
					case <-s.drainCh:
						<-s.backlog
						conn.Close()
					}
				}()
			default:
				s.busyRejected.Add(1)
				_ = conn.SetWriteDeadline(time.Now().Add(2 * time.Second))
				frame, _ := wire.EncodeTagged(wire.ConnStream, wire.Error{Code: wire.CodeBusy, Msg: "session limit and backlog full"})
				_, _ = conn.Write(frame)
				conn.Close()
			}
		}
	}
}

// ServeConn serves a single connection in the calling goroutine,
// returning when the session ends. It blocks while the session limit is
// reached. Intended for tests (net.Pipe) and embedding.
func (s *Server) ServeConn(conn net.Conn) {
	s.wg.Add(1)
	defer s.wg.Done()
	select {
	case s.sem <- struct{}{}:
	case <-s.drainCh:
		conn.Close()
		return
	}
	defer func() { <-s.sem }()
	s.runSession(conn)
}

// Shutdown stops accepting, lets in-flight transactions finish until
// ctx expires, then rolls back the rest and closes every connection. It
// returns once every session goroutine has exited; the returned error
// is ctx.Err() when the drain deadline forced rollbacks, nil otherwise.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	already := s.draining.Swap(true)
	ln := s.ln
	s.mu.Unlock()
	if !already {
		close(s.drainCh)
	}
	if ln != nil {
		ln.Close()
	}

	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()

	// Drain: poke blocked readers so idle sessions notice; sessions
	// mid-transaction keep executing.
	ticker := time.NewTicker(20 * time.Millisecond)
	defer ticker.Stop()
	for {
		s.pokeConns()
		select {
		case <-done:
			return nil
		case <-ctx.Done():
			goto force
		case <-ticker.C:
		}
	}

force:
	// Force: cancel the base context so every in-flight transaction's
	// StepToCommit returns and the session rolls it back. Sessions get
	// a short grace period to deliver that verdict before their
	// connections are closed outright.
	s.cancel()
	graceUntil := time.Now().Add(500 * time.Millisecond)
	for {
		s.pokeConns()
		if time.Now().After(graceUntil) {
			s.closeConns()
		}
		select {
		case <-done:
			return ctx.Err()
		case <-ticker.C:
		}
	}
}

func (s *Server) pokeConns() {
	s.mu.Lock()
	defer s.mu.Unlock()
	now := time.Now()
	for c := range s.conns {
		_ = c.SetReadDeadline(now)
	}
}

func (s *Server) closeConns() {
	s.mu.Lock()
	defer s.mu.Unlock()
	for c := range s.conns {
		c.Close()
	}
}

// Counters returns the serving and engine counter snapshot reported to
// STATS requests, sorted by name.
func (s *Server) Counters() []wire.Counter {
	st := s.sys.Stats()
	out := []wire.Counter{
		{Name: "aborts", Val: st.Aborts},
		{Name: "bytes_in", Val: s.bytesIn.Load()},
		{Name: "bytes_out", Val: s.bytesOut.Load()},
		{Name: "busy_rejected", Val: s.busyRejected.Load()},
		{Name: "frames_in", Val: s.framesIn.Load()},
		{Name: "frames_out", Val: s.framesOut.Load()},
		{Name: "commits", Val: st.Commits},
		{Name: "deadlocks", Val: st.Deadlocks},
		{Name: "grants", Val: st.Grants},
		{Name: "ops_lost", Val: st.OpsLost},
		{Name: "proto_errors", Val: s.protoErrors.Load()},
		{Name: "rollbacks_partial", Val: st.Rollbacks - st.Restarts},
		{Name: "rollbacks_total", Val: st.Restarts},
		{Name: "sessions_active", Val: s.sessionsActive.Load()},
		{Name: "sessions_total", Val: s.sessionsTotal.Load()},
		{Name: "steps", Val: st.Steps},
		{Name: "streams_active", Val: s.streamsActive.Load()},
		{Name: "streams_total", Val: s.streamsTotal.Load()},
		{Name: "txns_served", Val: s.txnsServed.Load()},
		{Name: "waits", Val: st.Waits},
		{Name: "writer_flushes", Val: s.writerFlushes.Load()},
	}
	if s.cfg.Durable != nil {
		ws := s.cfg.Durable.Stats()
		out = append(out,
			wire.Counter{Name: "wal_appends", Val: ws.Appends},
			wire.Counter{Name: "wal_commits", Val: ws.Commits},
			wire.Counter{Name: "wal_flushes", Val: ws.Flushes},
			wire.Counter{Name: "wal_fsync_batches", Val: ws.Fsyncs},
			wire.Counter{Name: "wal_bytes", Val: ws.Bytes},
			wire.Counter{Name: "wal_max_group", Val: ws.MaxCommitsPerFlush},
		)
	}
	if s.cfg.Store.Paged() {
		ps := s.cfg.Store.PoolStats()
		out = append(out,
			wire.Counter{Name: "store_paged", Val: 1},
			wire.Counter{Name: "store_pool_pages", Val: ps.Frames},
			wire.Counter{Name: "store_hits", Val: ps.Hits},
			wire.Counter{Name: "store_misses", Val: ps.Misses},
			wire.Counter{Name: "store_evictions", Val: ps.Evictions},
			wire.Counter{Name: "store_flushes", Val: ps.Flushes},
			wire.Counter{Name: "store_pinned_pages", Val: ps.PinnedPages},
		)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Owners snapshots, for every transaction currently being driven by a
// connection, which connection and stream owns it — the admin
// /debug/txns annotation for finding stuck streams. It reads each
// connection's stream table; the lock order is s.mu, then c.streamMu.
func (s *Server) Owners() map[txn.ID]obs.TxnOwner {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := map[txn.ID]obs.TxnOwner{}
	for _, c := range s.conns {
		c.streamMu.Lock()
		for stream, id := range c.streams {
			if id != txn.None {
				out[id] = obs.TxnOwner{Conn: c.id, Addr: c.addr, Stream: stream}
			}
		}
		c.streamMu.Unlock()
	}
	return out
}

// conn serves one connection: one reader goroutine (the connection's
// main loop), one writer goroutine coalescing replies across every
// stream, and one goroutine per active stream driving its transaction.
type conn struct {
	srv *Server
	nc  net.Conn
	// id is the connection's serial number (1-based accept order).
	id int64
	// addr is the remote address, captured at accept time.
	addr string
	// br buffers the connection's read side, so frames that arrive
	// together cost one read syscall; all reads must go through br
	// (buffered bytes are invisible to nc).
	br *bufio.Reader
	// dec decodes every frame br delivers, a BeginProgram straight into
	// its executable form; only the reader uses it.
	dec wire.Decoder

	outMu     sync.Mutex
	out       chan outFrame
	outClosed bool

	// muxWG counts live stream goroutines; runSession waits for it
	// before closing the writer so every accepted stream can deliver
	// its terminal reply.
	muxWG sync.WaitGroup

	// streamMu guards the stream table: each active stream's
	// transaction, txn.None until its program is registered.
	streamMu sync.Mutex
	streams  map[uint32]txn.ID
}

// outFrame is one queued reply and the stream it is addressed to.
type outFrame struct {
	stream uint32
	m      wire.Msg
}

// sender addresses replies to one stream of a connection (wire.ConnStream
// for connection-level errors).
type sender struct {
	c      *conn
	stream uint32
}

// send enqueues a reply, blocking until the writer drains it. The
// writer never stops consuming before the channel closes, so this
// cannot deadlock.
func (sn sender) send(m wire.Msg) { sn.c.send(outFrame{sn.stream, m}) }

func (c *conn) send(f outFrame) {
	c.outMu.Lock()
	if c.outClosed {
		c.outMu.Unlock()
		return
	}
	c.outMu.Unlock()
	c.out <- f
}

func (c *conn) closeOut() {
	c.outMu.Lock()
	defer c.outMu.Unlock()
	if !c.outClosed {
		c.outClosed = true
		close(c.out)
	}
}

func (s *Server) runSession(nc net.Conn) {
	connID := s.sessionsTotal.Add(1)
	s.sessionsActive.Add(1)
	defer s.sessionsActive.Add(-1)

	c := &conn{
		srv:     s,
		nc:      nc,
		id:      connID,
		addr:    nc.RemoteAddr().String(),
		br:      bufio.NewReader(nc),
		out:     make(chan outFrame, 128),
		streams: map[uint32]txn.ID{},
	}
	s.mu.Lock()
	if s.draining.Load() {
		s.mu.Unlock()
		nc.Close()
		return
	}
	s.conns[nc] = c
	s.mu.Unlock()

	connErr := sender{c: c, stream: wire.ConnStream}

	// Writer: the single goroutine that touches the connection's write
	// side. It coalesces across streams: every frame already queued
	// behind the one just received — replies of any stream, in any
	// order — is encoded into the same buffer and the batch goes out in
	// one nc.Write, so a burst of replies costs one write syscall
	// instead of one each. A stream's send readies the parked writer
	// ahead of the other runnable stream goroutines (the scheduler's
	// runnext slot), so the queue it finds holds one frame;
	// when the queue runs dry the writer therefore yields once
	// (runtime.Gosched) and drains again before it writes, and the
	// replies that became ready in that scheduling round share the
	// write. It never sleeps or waits on a timer. On write failure it
	// keeps draining so senders never block.
	const writerSoftCap = 64 << 10 // flush once a batch passes 64 KiB
	writerDone := make(chan struct{})
	go func() {
		defer close(writerDone)
		failed := false
		var buf []byte
		encode := func(f outFrame) {
			if failed {
				return
			}
			nb, err := wire.AppendTagged(buf, f.stream, f.m)
			if err != nil {
				s.cfg.Logf("server: encode %s: %v", f.m.Type(), err)
				return
			}
			buf = nb
			s.framesOut.Add(1)
		}
		for f := range c.out {
			encode(f)
			yielded := false
		drain:
			for len(buf) < writerSoftCap {
				select {
				case queued, ok := <-c.out:
					if !ok {
						break drain
					}
					encode(queued)
				default:
					if yielded {
						break drain
					}
					yielded = true
					runtime.Gosched()
				}
			}
			if failed || len(buf) == 0 {
				buf = buf[:0]
				continue
			}
			// Count before the write: a pipe write unblocks the peer,
			// who may immediately request a counter snapshot.
			s.bytesOut.Add(int64(len(buf)))
			s.writerFlushes.Add(1)
			_ = nc.SetWriteDeadline(time.Now().Add(10 * time.Second))
			if _, err := nc.Write(buf); err != nil {
				failed = true
			}
			buf = buf[:0]
		}
	}()

	defer func() {
		// Reader is done: no new streams. Let every accepted stream
		// finish (each delivers a terminal reply) before the writer is
		// told no more frames are coming; only then close the socket.
		c.muxWG.Wait()
		c.closeOut()
		<-writerDone
		nc.Close()
		s.mu.Lock()
		delete(s.conns, nc)
		s.mu.Unlock()
	}()

	for {
		if s.draining.Load() {
			return
		}
		_ = nc.SetReadDeadline(time.Now().Add(s.cfg.IdleTimeout))
		req, n, err := c.dec.ReadRequest(c.br)
		s.bytesIn.Add(int64(n))
		if err != nil {
			// Only a malformed frame (including one in a retired
			// untagged framing) earns a notice. EOF or the shutdown
			// drain poking the read deadline ends the session silently:
			// a notice nobody reads would only stall the drain.
			if errors.Is(err, wire.ErrProtocol) {
				s.protoErrors.Add(1)
				connErr.send(wire.Error{Code: wire.CodeBadRequest, Msg: err.Error()})
			}
			return
		}
		s.framesIn.Add(1)
		if closeConn := s.handleFrame(c, req); closeConn {
			return
		}
	}
}

// handleFrame dispatches one frame: Stats is answered inline on its
// stream, a BeginProgram (no Msg) opens a stream served by its own
// goroutine. It reports whether the connection must be closed.
func (s *Server) handleFrame(c *conn, req wire.Request) (closeConn bool) {
	sn := sender{c: c, stream: req.Stream}
	if req.Stream == wire.ConnStream {
		s.protoErrors.Add(1)
		sn.send(wire.Error{Code: wire.CodeBadRequest, Msg: "stream 0 is reserved for connection errors"})
		return true
	}
	switch req.Msg.(type) {
	case nil:
		return s.dispatchStream(c, sn, req)
	case wire.Stats:
		sn.send(wire.StatsReply{Counters: s.Counters()})
		return false
	default:
		// A server-to-client message (Committed, Error, ...): the peer
		// is confused; desync.
		s.protoErrors.Add(1)
		sn.send(wire.Error{Code: wire.CodeBadRequest, Msg: fmt.Sprintf("unexpected %s on stream %d", req.Msg.Type(), req.Stream)})
		return true
	}
}

// dispatchStream admits one stream against the per-connection limits
// and starts a goroutine serving it, so goroutines follow in-flight
// transactions and a blocked transaction never queues behind the lock
// holder it waits for. A duplicate active stream ID means the two
// sides disagree about stream state — a desync, so the connection is
// closed. Hitting MaxStreams is load, not confusion: the stream is
// refused with the retryable CodeBusy and the connection lives on.
func (s *Server) dispatchStream(c *conn, sn sender, req wire.Request) (closeConn bool) {
	c.streamMu.Lock()
	if _, active := c.streams[sn.stream]; active {
		c.streamMu.Unlock()
		s.protoErrors.Add(1)
		sn.send(wire.Error{Code: wire.CodeBadRequest, Msg: fmt.Sprintf("stream %d already active", sn.stream)})
		return true
	}
	if len(c.streams) >= s.cfg.MaxStreams {
		c.streamMu.Unlock()
		sn.send(wire.Error{Code: wire.CodeBusy, Msg: "per-connection stream limit reached"})
		return false
	}
	c.streams[sn.stream] = txn.None
	c.streamMu.Unlock()
	s.streamsTotal.Add(1)
	s.streamsActive.Add(1)
	c.muxWG.Add(1)
	go func() {
		defer c.muxWG.Done()
		s.serveStream(sn, req)
	}()
	return false
}

// serveStream drives one stream's transaction to its terminal reply. A
// stream-level failure ends only the stream: thousands of healthy
// streams may share the connection, so the conn is never closed from
// here.
func (s *Server) serveStream(sn sender, req wire.Request) {
	defer func() {
		sn.c.streamMu.Lock()
		delete(sn.c.streams, sn.stream)
		sn.c.streamMu.Unlock()
		s.streamsActive.Add(-1)
	}()
	if s.draining.Load() {
		sn.send(wire.Error{Code: wire.CodeShutdown, Msg: "server shutting down"})
		return
	}
	if req.Refused != nil {
		sn.send(wire.Error{Code: wire.CodeBadRequest, Msg: req.Refused.Error()})
		return
	}
	s.execTxn(sn, req.Prog)
}

// execTxn registers prog, drives it to commit with the shared
// re-execution loop, and sends the verdict to sn. The engine validates
// prog as sent and orders its locks inside RegisterExec
// (core.Config.OrderLocks), so a refusal or a run-time error names
// prog's own operation.
func (s *Server) execTxn(sn sender, prog *txn.Exec) {
	id, err := s.sys.RegisterExec(prog)
	if err != nil {
		sn.send(wire.Error{Code: wire.CodeBadRequest, Msg: err.Error()})
		return
	}
	s.txnsServed.Add(1)
	sn.c.streamMu.Lock()
	sn.c.streams[sn.stream] = id
	sn.c.streamMu.Unlock()

	err = exec.StepToCommit(s.baseCtx, s.sys, id, time.Now().Add(s.cfg.RequestTimeout), 0)
	switch {
	case err == nil:
		sn.send(s.committedReply(id))
	case errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled):
		s.abortAndReply(sn, id)
	default:
		s.cfg.Logf("server: txn %v: %v", id, err)
		if aerr := s.sys.Abort(id); aerr != nil && !errors.Is(aerr, core.ErrCommitted) {
			if errors.Is(aerr, core.ErrShrinking) {
				_ = s.drainShrinking(id)
			} else {
				s.cfg.Logf("server: abort %v: %v", id, aerr)
			}
		}
		sn.send(wire.Error{Code: wire.CodeInternal, Msg: err.Error()})
	}
}

// abortAndReply rolls a deadline- or shutdown-interrupted transaction
// back. Races with completion are benign: a transaction that committed
// first is reported as committed; one already in its shrinking phase
// can never block again and is stepped to commit synchronously.
func (s *Server) abortAndReply(sn sender, id txn.ID) {
	err := s.sys.Abort(id)
	switch {
	case err == nil:
		code, msg := wire.CodeRolledBack, "request deadline exceeded; transaction rolled back"
		if s.draining.Load() {
			code, msg = wire.CodeShutdown, "server shutting down; transaction rolled back"
		}
		sn.send(wire.Error{Code: code, Msg: msg})
	case errors.Is(err, core.ErrCommitted):
		// The commit raced the deadline, so the interrupted exec loop
		// never waited on the commit's durability ticket. Don't
		// acknowledge until the log catches up.
		if s.cfg.Durable != nil {
			if derr := s.cfg.Durable.Barrier(); derr != nil {
				s.cfg.Logf("server: txn %v: commit not durable: %v", id, derr)
				sn.send(wire.Error{Code: wire.CodeInternal, Msg: derr.Error()})
				return
			}
		}
		sn.send(s.committedReply(id))
	case errors.Is(err, core.ErrShrinking):
		if derr := s.drainShrinking(id); derr != nil {
			s.cfg.Logf("server: drain %v: %v", id, derr)
			sn.send(wire.Error{Code: wire.CodeInternal, Msg: derr.Error()})
			return
		}
		sn.send(s.committedReply(id))
	default:
		sn.send(wire.Error{Code: wire.CodeInternal, Msg: err.Error()})
	}
}

// drainShrinking steps a transaction that has entered its shrinking
// phase to commit. No remaining operation can block (no lock requests
// follow an unlock), so this terminates within the program's length.
func (s *Server) drainShrinking(id txn.ID) error {
	for i := 0; i < wire.MaxOps+2; i++ {
		res, err := s.sys.Step(id)
		if err != nil {
			return err
		}
		if res.Outcome == core.Committed || res.Outcome == core.AlreadyCommitted {
			if res.Durable != nil {
				return res.Durable.Wait()
			}
			if res.Outcome == core.AlreadyCommitted && s.cfg.Durable != nil {
				// Someone else drove the commit step; its ticket is not
				// ours to wait on, so take the conservative barrier.
				return s.cfg.Durable.Barrier()
			}
			return nil
		}
	}
	return fmt.Errorf("server: %v did not commit while draining", id)
}

// committedReply snapshots a committed transaction's outcome and
// retires its engine state.
func (s *Server) committedReply(id txn.ID) wire.Committed {
	// Every caller has seen id commit and nothing else retires it, so
	// Retire cannot fail here.
	r, _ := s.sys.Retire(id)
	decls := make([]wire.LocalDecl, len(r.Locals))
	for i, v := range r.Locals {
		decls[i] = wire.LocalDecl{Name: r.LocalNames[i], Val: v}
	}
	return wire.Committed{
		Txn:    int64(id),
		Locals: decls,
		Stats: wire.TxnOutcome{
			OpsExecuted: r.Stats.OpsExecuted,
			OpsLost:     r.Stats.OpsLost,
			Rollbacks:   r.Stats.Rollbacks,
			Restarts:    r.Stats.Restarts,
			Waits:       r.Stats.Waits,
		},
	}
}
