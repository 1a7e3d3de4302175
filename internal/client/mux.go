// Package client is the network counterpart of internal/server: it
// ships whole transaction programs over the wire protocol and re-runs
// them with jittered exponential backoff when the server reports a
// retryable failure (the transaction was rolled back to its initial
// state by a request deadline, or refused during shutdown or overload).
// That retry loop is the client-side analogue of the engine's
// re-execution after rollback — the same §2 semantics applied one level
// up, using the shared internal/exec machinery.
//
// A Mux multiplexes any number of concurrent transactions over one
// socket, one stream each, and redials transparently after transport
// failures.
package client

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"partialrollback/internal/exec"
	"partialrollback/internal/txn"
	"partialrollback/internal/wire"
)

// ServerError is an Error frame returned by the server.
type ServerError struct {
	Code wire.ErrCode
	Msg  string
}

func (e *ServerError) Error() string {
	return fmt.Sprintf("server: %s: %s", e.Code, e.Msg)
}

// Retryable reports whether re-running the transaction can succeed.
func (e *ServerError) Retryable() bool { return e.Code.Retryable() }

// ErrRolledBack tags retryable server failures: errors.Is(err,
// ErrRolledBack) holds for any ServerError whose code is retryable.
var ErrRolledBack = errors.New("client: transaction rolled back by server")

// Is makes retryable server errors match ErrRolledBack.
func (e *ServerError) Is(target error) bool {
	return target == ErrRolledBack && e.Retryable()
}

// Retryable classifies an error from RunOnce: terminal server verdicts
// (bad request, internal error) and protocol violations are final;
// retryable server codes and transport failures (the connection is
// redialed) are worth another attempt.
func Retryable(err error) bool {
	var se *ServerError
	if errors.As(err, &se) {
		return se.Retryable()
	}
	if errors.Is(err, wire.ErrProtocol) {
		return false
	}
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return false
	}
	// Transport errors: dial failures, resets, timeouts.
	return true
}

// Result reports a transaction the server committed.
type Result struct {
	// Txn is the server-side transaction ID of the committing run.
	Txn int64
	// Locals holds the program's local variables at commit.
	Locals map[string]int64
	// Outcome carries the engine's per-transaction counters for the
	// committing run (partial rollbacks, lost operations, waits).
	Outcome wire.TxnOutcome
	// Attempts is how many runs Run needed (always 1 from RunOnce).
	Attempts int
}

// MuxConfig configures a Mux.
type MuxConfig struct {
	// Addr is the server address for the default dialer.
	Addr string
	// Dial, when non-nil, replaces the default TCP dialer.
	Dial func() (net.Conn, error)
	// RequestTimeout bounds one attempt end to end. Default 1m —
	// deliberately above the server's own request deadline so the
	// server, not the transport, decides.
	RequestTimeout time.Duration
	// MaxAttempts bounds Run's attempts per transaction. Default 16.
	MaxAttempts int
	// Backoff shapes the per-stream inter-attempt delay. Jitter is
	// drawn per attempt from the process-global source (goroutine-safe)
	// unless Backoff.Jitter is set.
	Backoff exec.Backoff
}

// Mux is a multiplexed client: one shared socket carrying many
// concurrent transactions, each on its own stream. It is safe for
// concurrent use — call Run from as many goroutines as you like; each
// call allocates a stream, ships the program as one BeginProgram frame,
// and waits for the verdict tagged back to it, while a single reader
// goroutine demultiplexes replies. Transport failures, and
// connection-level errors the server sends on wire.ConnStream, fail
// every in-flight stream and the next attempt redials transparently.
type Mux struct {
	cfg MuxConfig

	// wmu serializes writes to the shared socket; wbuf is the reused
	// encode buffer.
	wmu  sync.Mutex
	wbuf []byte

	mu      sync.Mutex
	conn    net.Conn
	epoch   int64 // increments per successful dial; guards stale readers
	next    uint32
	pending map[uint32]*muxStream
	closed  bool
}

// muxStream is the demux endpoint of one in-flight request.
type muxStream struct {
	// term receives the single terminal verdict (cap 1, never blocks
	// the reader: the server sends exactly one terminal per stream and
	// connection teardown only fires once).
	term chan muxVerdict
}

type muxVerdict struct {
	m   wire.Msg
	err error
}

// errMuxClosed is returned by calls on a closed Mux.
var errMuxClosed = errors.New("client: mux closed")

// NewMux creates a Mux. No connection is made until the first request.
func NewMux(cfg MuxConfig) *Mux {
	if cfg.RequestTimeout <= 0 {
		cfg.RequestTimeout = time.Minute
	}
	if cfg.MaxAttempts <= 0 {
		cfg.MaxAttempts = 16
	}
	return &Mux{cfg: cfg, pending: map[uint32]*muxStream{}}
}

// Close closes the socket and fails every in-flight stream.
func (m *Mux) Close() error {
	m.mu.Lock()
	m.closed = true
	nc := m.conn
	m.conn = nil
	failed := m.pending
	m.pending = map[uint32]*muxStream{}
	m.mu.Unlock()
	var err error
	if nc != nil {
		err = nc.Close()
	}
	deliverLost(failed, errMuxClosed)
	return err
}

// ensure returns the live connection, dialing (and starting that
// connection's reader) if needed.
func (m *Mux) ensure() (net.Conn, int64, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return nil, 0, errMuxClosed
	}
	if m.conn != nil {
		return m.conn, m.epoch, nil
	}
	dial := m.cfg.Dial
	if dial == nil {
		addr := m.cfg.Addr
		dial = func() (net.Conn, error) { return net.DialTimeout("tcp", addr, 5*time.Second) }
	}
	nc, err := dial()
	if err != nil {
		return nil, 0, fmt.Errorf("client: dial: %w", err)
	}
	m.conn = nc
	m.epoch++
	go m.readLoop(nc, m.epoch)
	return nc, m.epoch, nil
}

// readLoop is one connection epoch's demultiplexer: the only goroutine
// reading the socket. Replies are routed to their stream's endpoint; a
// read failure or a connection-level Error fails every stream of this
// epoch.
func (m *Mux) readLoop(nc net.Conn, ep int64) {
	br := bufio.NewReader(nc)
	var dec wire.Decoder
	for {
		f, _, err := dec.ReadFrame(br)
		if err != nil {
			m.teardown(nc, ep, err)
			return
		}
		if f.Stream == wire.ConnStream {
			// The server is about to close the connection (busy at
			// accept, or it could not decode our frame). The
			// ServerError's code decides whether the streams retry.
			if e, ok := f.Msg.(wire.Error); ok {
				m.teardown(nc, ep, &ServerError{Code: e.Code, Msg: e.Msg})
				return
			}
			continue
		}
		m.mu.Lock()
		st := m.pending[f.Stream]
		m.mu.Unlock()
		if st == nil {
			continue // stream gave up (timeout) before the verdict arrived
		}
		select {
		case st.term <- muxVerdict{m: f.Msg}:
		default:
		}
	}
}

// teardown retires a failed connection epoch: in-flight streams get a
// retryable transport error and the next attempt redials.
func (m *Mux) teardown(nc net.Conn, ep int64, cause error) {
	m.mu.Lock()
	if m.epoch != ep || m.conn != nc {
		m.mu.Unlock() // a newer epoch owns the state
		return
	}
	m.conn = nil
	failed := m.pending
	m.pending = map[uint32]*muxStream{}
	m.mu.Unlock()
	nc.Close()
	deliverLost(failed, cause)
}

func deliverLost(failed map[uint32]*muxStream, cause error) {
	for _, st := range failed {
		select {
		case st.term <- muxVerdict{err: fmt.Errorf("client: connection lost: %w", cause)}:
		default:
		}
	}
}

// openStream allocates a stream ID on epoch ep and registers its demux
// endpoint. It fails if the epoch died between ensure and here (the
// caller retries).
func (m *Mux) openStream(ep int64) (uint32, *muxStream, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return 0, nil, errMuxClosed
	}
	if m.epoch != ep || m.conn == nil {
		return 0, nil, errors.New("client: connection lost while opening stream")
	}
	for {
		m.next++
		if m.next == wire.ConnStream {
			continue // wrapped: stream 0 is the server's, not ours
		}
		if _, taken := m.pending[m.next]; !taken {
			break
		}
	}
	st := &muxStream{term: make(chan muxVerdict, 1)}
	m.pending[m.next] = st
	return m.next, st, nil
}

func (m *Mux) closeStream(stream uint32) {
	m.mu.Lock()
	delete(m.pending, stream)
	m.mu.Unlock()
}

// writeTagged encodes one frame and writes it; writes from concurrent
// streams are serialized on the shared socket.
func (m *Mux) writeTagged(nc net.Conn, stream uint32, msg wire.Msg) error {
	m.wmu.Lock()
	defer m.wmu.Unlock()
	buf, err := wire.AppendTagged(m.wbuf[:0], stream, msg)
	if err != nil {
		return err
	}
	m.wbuf = buf
	_ = nc.SetWriteDeadline(time.Now().Add(10 * time.Second))
	_, err = nc.Write(buf)
	return err
}

// RunOnce submits prog on a fresh stream and waits for its verdict: a
// Result when the server committed it, a *ServerError when the server
// refused or rolled it back (check Retryable), a transport or timeout
// error otherwise. Safe for concurrent use.
func (m *Mux) RunOnce(prog *txn.Program) (*Result, error) {
	frame, err := wire.ProgramFrame(prog)
	if err != nil {
		return nil, err
	}
	nc, ep, err := m.ensure()
	if err != nil {
		return nil, err
	}
	stream, st, err := m.openStream(ep)
	if err != nil {
		return nil, err
	}
	defer m.closeStream(stream)
	if err := m.writeTagged(nc, stream, frame); err != nil {
		m.teardown(nc, ep, err)
		return nil, fmt.Errorf("client: write: %w", err)
	}
	timeout := time.NewTimer(m.cfg.RequestTimeout)
	defer timeout.Stop()
	select {
	case v := <-st.term:
		if v.err != nil {
			return nil, v.err
		}
		switch x := v.m.(type) {
		case wire.Committed:
			res := &Result{Txn: x.Txn, Outcome: x.Stats, Attempts: 1}
			res.Locals = make(map[string]int64, len(x.Locals))
			for _, d := range x.Locals {
				res.Locals[d.Name] = d.Val
			}
			return res, nil
		case wire.Error:
			// Stream-level refusals never desync the shared socket;
			// the connection stays up for every other stream.
			return nil, &ServerError{Code: x.Code, Msg: x.Msg}
		default:
			return nil, fmt.Errorf("client: %w: unexpected %s reply", wire.ErrProtocol, v.m.Type())
		}
	case <-timeout.C:
		// The server may still deliver a verdict later; it is dropped
		// by the reader once the stream deregisters.
		return nil, fmt.Errorf("client: stream %d: no verdict within %v", stream, m.cfg.RequestTimeout)
	}
}

// Run submits prog and re-runs it on retryable failures with jittered
// exponential backoff — each concurrent stream backs off independently
// — until it commits, fails terminally, attempts run out, or ctx ends.
func (m *Mux) Run(ctx context.Context, prog *txn.Program) (*Result, error) {
	var last *Result
	attempts, err := exec.Retry(ctx, m.cfg.MaxAttempts, m.cfg.Backoff, nil,
		func(context.Context) error {
			r, err := m.RunOnce(prog)
			last = r
			return err
		}, Retryable)
	if err != nil {
		return nil, err
	}
	last.Attempts = attempts
	return last, nil
}

// Stats requests the server's counter snapshot over its own stream,
// without disturbing in-flight transactions.
func (m *Mux) Stats() ([]wire.Counter, error) {
	nc, ep, err := m.ensure()
	if err != nil {
		return nil, err
	}
	stream, st, err := m.openStream(ep)
	if err != nil {
		return nil, err
	}
	defer m.closeStream(stream)
	if err := m.writeTagged(nc, stream, wire.Stats{}); err != nil {
		m.teardown(nc, ep, err)
		return nil, fmt.Errorf("client: write: %w", err)
	}
	timeout := time.NewTimer(m.cfg.RequestTimeout)
	defer timeout.Stop()
	select {
	case v := <-st.term:
		if v.err != nil {
			return nil, v.err
		}
		switch x := v.m.(type) {
		case wire.StatsReply:
			return x.Counters, nil
		case wire.Error:
			return nil, &ServerError{Code: x.Code, Msg: x.Msg}
		default:
			return nil, fmt.Errorf("client: %w: unexpected %s reply", wire.ErrProtocol, v.m.Type())
		}
	case <-timeout.C:
		return nil, fmt.Errorf("client: stream %d: no stats reply within %v", stream, m.cfg.RequestTimeout)
	}
}
