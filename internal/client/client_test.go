package client

import (
	"bufio"
	"context"
	"errors"
	"io"
	"math"
	"net"
	"testing"
	"time"

	"partialrollback/internal/exec"
	"partialrollback/internal/sim"
	"partialrollback/internal/txn"
	"partialrollback/internal/wire"
)

// serveScript is a scripted server end: for each reply set it reads one
// BeginProgram frame from conn (checking it carries a valid program),
// answers with the set's messages on that frame's stream, then closes
// the connection.
func serveScript(t *testing.T, conn net.Conn, replySets ...[]wire.Msg) {
	t.Helper()
	defer conn.Close()
	br := bufio.NewReader(conn)
	for _, replies := range replySets {
		f, _, err := wire.ReadFrame(br)
		if err != nil {
			return
		}
		bp, ok := f.Msg.(wire.BeginProgram)
		if !ok {
			t.Errorf("got %T, want BeginProgram", f.Msg)
			return
		}
		p, err := bp.Program()
		if err == nil {
			err = txn.Validate(p)
		}
		if err != nil {
			t.Errorf("shipped program invalid: %v", err)
		}
		for _, r := range replies {
			frame, err := wire.EncodeTagged(f.Stream, r)
			if err != nil {
				t.Errorf("encode %T: %v", r, err)
				return
			}
			if _, err := conn.Write(frame); err != nil {
				return
			}
		}
	}
}

func committedReply() wire.Committed {
	return wire.Committed{
		Txn:    7,
		Locals: []wire.LocalDecl{{Name: "x", Val: 41}},
		Stats:  wire.TxnOutcome{OpsExecuted: 5},
	}
}

// pipeDialer returns a Dial hook whose nth call is wired to the nth
// script.
func pipeDialer(t *testing.T, scripts ...func(net.Conn)) func() (net.Conn, error) {
	n := 0
	return func() (net.Conn, error) {
		if n >= len(scripts) {
			t.Fatalf("unexpected dial #%d", n+1)
		}
		cc, sc := net.Pipe()
		go scripts[n](sc)
		n++
		return cc, nil
	}
}

func TestRunRetriesRolledBack(t *testing.T) {
	prog := sim.TransferProgram("t", "e0", "e1", 1, 0)
	// Retryable refusals end only the stream, so one dial serves all
	// three attempts — this also covers connection reuse.
	cfg := testMuxConfig(pipeDialer(t, func(conn net.Conn) {
		serveScript(t, conn,
			[]wire.Msg{wire.Error{Code: wire.CodeRolledBack, Msg: "deadline"}},
			[]wire.Msg{wire.Error{Code: wire.CodeRolledBack, Msg: "deadline"}},
			[]wire.Msg{committedReply()},
		)
	}))
	m := NewMux(cfg)
	defer m.Close()
	res, err := m.Run(context.Background(), prog)
	if err != nil {
		t.Fatal(err)
	}
	if res.Attempts != 3 {
		t.Errorf("attempts = %d, want 3", res.Attempts)
	}
	if res.Locals["x"] != 41 || res.Outcome.OpsExecuted != 5 {
		t.Errorf("result %+v", res)
	}
}

// TestRunRedialsAfterTransportFailure: the first connection is dead
// before the request is written, so the write itself fails; the retry
// redials and commits.
func TestRunRedialsAfterTransportFailure(t *testing.T) {
	prog := sim.TransferProgram("t", "e0", "e1", 1, 0)
	m := NewMux(testMuxConfig(pipeDialer(t,
		func(conn net.Conn) { conn.Close() }, // dies immediately
		func(conn net.Conn) { serveScript(t, conn, []wire.Msg{committedReply()}) },
	)))
	defer m.Close()
	res, err := m.Run(context.Background(), prog)
	if err != nil {
		t.Fatal(err)
	}
	if res.Attempts != 2 {
		t.Errorf("attempts = %d, want 2", res.Attempts)
	}
}

func TestRunStopsOnTerminalError(t *testing.T) {
	prog := sim.TransferProgram("t", "e0", "e1", 1, 0)
	dials := 0
	m := NewMux(testMuxConfig(func() (net.Conn, error) {
		dials++
		cc, sc := net.Pipe()
		go serveScript(t, sc, []wire.Msg{wire.Error{Code: wire.CodeBadRequest, Msg: "no such entity"}})
		return cc, nil
	}))
	defer m.Close()
	_, err := m.Run(context.Background(), prog)
	var se *ServerError
	if !errors.As(err, &se) || se.Code != wire.CodeBadRequest {
		t.Fatalf("err = %v, want BadRequest ServerError", err)
	}
	if errors.Is(err, ErrRolledBack) {
		t.Error("terminal error must not match ErrRolledBack")
	}
	if dials != 1 {
		t.Errorf("dials = %d, want 1 (no retry)", dials)
	}
}

func TestErrRolledBackMatching(t *testing.T) {
	for _, tc := range []struct {
		code wire.ErrCode
		want bool
	}{
		{wire.CodeRolledBack, true},
		{wire.CodeShutdown, true},
		{wire.CodeBusy, true},
		{wire.CodeBadRequest, false},
		{wire.CodeInternal, false},
	} {
		err := error(&ServerError{Code: tc.code})
		if got := errors.Is(err, ErrRolledBack); got != tc.want {
			t.Errorf("errors.Is(%s, ErrRolledBack) = %v, want %v", tc.code, got, tc.want)
		}
		if got := Retryable(err); got != tc.want {
			t.Errorf("Retryable(%s) = %v, want %v", tc.code, got, tc.want)
		}
	}
	if !Retryable(errors.New("some transport failure")) {
		t.Error("transport errors must be retryable")
	}
	if Retryable(wire.ErrProtocol) {
		t.Error("protocol violations must not be retryable")
	}
}

// TestRunCancelDuringBackoff cancels the context while Run sleeps
// between attempts and checks it returns promptly with the context
// error instead of finishing the (enormous) backoff delay.
func TestRunCancelDuringBackoff(t *testing.T) {
	prog := sim.TransferProgram("t", "e0", "e1", 1, 0)
	dialed := make(chan struct{}, 1)
	m := NewMux(MuxConfig{
		Dial: func() (net.Conn, error) {
			select {
			case dialed <- struct{}{}:
			default:
			}
			return nil, errors.New("refused") // retryable transport failure
		},
		MaxAttempts: 8,
		// A delay far beyond the test's patience: only ctx can end it.
		Backoff: exec.Backoff{Base: time.Hour, Cap: time.Hour},
	})
	defer m.Close()

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := m.Run(ctx, prog)
		done <- err
	}()
	<-dialed // first attempt failed; Run is now inside the backoff sleep
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Run did not return after cancel; backoff sleep ignores ctx")
	}
}

// TestRunMetrics: Run reports its attempts on the Result.
func TestRunMetrics(t *testing.T) {
	prog := sim.TransferProgram("t", "e0", "e1", 1, 0)
	cfg := testMuxConfig(pipeDialer(t, func(conn net.Conn) {
		serveScript(t, conn,
			[]wire.Msg{wire.Error{Code: wire.CodeRolledBack, Msg: "deadline"}},
			[]wire.Msg{committedReply()},
		)
	}))
	m := NewMux(cfg)
	defer m.Close()
	res, err := m.Run(context.Background(), prog)
	if err != nil {
		t.Fatal(err)
	}
	if res.Attempts != 2 {
		t.Errorf("attempts = %d, want 2", res.Attempts)
	}

	// A terminal failure returns no result.
	cfg2 := testMuxConfig(pipeDialer(t, func(conn net.Conn) {
		serveScript(t, conn, []wire.Msg{wire.Error{Code: wire.CodeBadRequest, Msg: "bad"}})
	}))
	m2 := NewMux(cfg2)
	defer m2.Close()
	if res, err := m2.Run(context.Background(), prog); err == nil || res != nil {
		t.Fatalf("want terminal error and no result, got %v, %v", res, err)
	}
}

func TestStats(t *testing.T) {
	m := NewMux(testMuxConfig(func() (net.Conn, error) {
		cc, sc := net.Pipe()
		go func() {
			defer sc.Close()
			f, _, err := wire.ReadFrame(sc)
			if err != nil {
				return
			}
			if _, ok := f.Msg.(wire.Stats); !ok {
				t.Errorf("got %T, want Stats", f.Msg)
				return
			}
			frame, _ := wire.EncodeTagged(f.Stream, wire.StatsReply{Counters: []wire.Counter{{Name: "commits", Val: 3}}})
			sc.Write(frame)
		}()
		return cc, nil
	}))
	defer m.Close()
	counters, err := m.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if len(counters) != 1 || counters[0].Name != "commits" || counters[0].Val != 3 {
		t.Errorf("counters = %+v", counters)
	}
}

// TestMuxConnStreamError: an Error on stream 0 is about the whole
// connection. A retryable one (busy at accept) fails the stream so Run
// redials; a terminal one (the server could not decode our frame) ends
// Run with that ServerError.
func TestMuxConnStreamError(t *testing.T) {
	prog := sim.TransferProgram("t", "e0", "e1", 1, 0)
	connError := func(conn net.Conn, code wire.ErrCode) {
		frame, _ := wire.EncodeTagged(wire.ConnStream, wire.Error{Code: code, Msg: "refused"})
		conn.Write(frame)
		conn.Close()
	}
	// Busy is sent at accept, before the server reads anything; a decode
	// failure answers the request frame.
	busy := func(conn net.Conn) {
		go io.Copy(io.Discard, conn) // the request write must not block
		connError(conn, wire.CodeBusy)
	}
	badFrame := func(conn net.Conn) {
		if _, _, err := wire.ReadFrame(conn); err != nil {
			t.Errorf("read request: %v", err)
		}
		connError(conn, wire.CodeBadRequest)
	}

	m := NewMux(testMuxConfig(pipeDialer(t,
		busy,
		func(conn net.Conn) { serveScript(t, conn, []wire.Msg{committedReply()}) },
	)))
	defer m.Close()
	res, err := m.Run(context.Background(), prog)
	if err != nil {
		t.Fatal(err)
	}
	if res.Attempts != 2 {
		t.Errorf("attempts = %d, want 2 (busy, then commit)", res.Attempts)
	}

	m2 := NewMux(testMuxConfig(pipeDialer(t, badFrame)))
	defer m2.Close()
	_, err = m2.Run(context.Background(), prog)
	var se *ServerError
	if !errors.As(err, &se) || se.Code != wire.CodeBadRequest || Retryable(err) {
		t.Fatalf("err = %v, want terminal BadRequest ServerError", err)
	}
}

// TestMuxStreamIDSkipsZero wraps the stream counter: after
// math.MaxUint32 the next stream is 1, never the reserved stream 0, and
// IDs still in flight are skipped too.
func TestMuxStreamIDSkipsZero(t *testing.T) {
	cc, sc := net.Pipe()
	defer cc.Close()
	defer sc.Close()
	m := NewMux(MuxConfig{})
	m.conn, m.epoch = cc, 1

	m.next = math.MaxUint32 - 1
	for _, want := range []uint32{math.MaxUint32, 1} {
		stream, _, err := m.openStream(1)
		if err != nil {
			t.Fatal(err)
		}
		if stream != want {
			t.Fatalf("stream = %d, want %d", stream, want)
		}
	}

	m.next = math.MaxUint32 // stream 1 is still pending
	stream, _, err := m.openStream(1)
	if err != nil {
		t.Fatal(err)
	}
	if stream != 2 {
		t.Fatalf("stream = %d, want 2 (0 reserved, 1 in flight)", stream)
	}
}
