package server

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"partialrollback/internal/client"
	"partialrollback/internal/core"
	"partialrollback/internal/entity"
	"partialrollback/internal/exec"
	"partialrollback/internal/obs"
	"partialrollback/internal/sim"
	"partialrollback/internal/txn"
	"partialrollback/internal/value"
	"partialrollback/internal/wire"
)

// mustRegister registers prog on the server's engine, failing the test
// on error.
func mustRegister(t *testing.T, srv *Server, prog *txn.Program) txn.ID {
	t.Helper()
	id, err := srv.System().Register(prog)
	if err != nil {
		t.Fatalf("register %s: %v", prog.Name, err)
	}
	return id
}

func counter(t testing.TB, srv *Server, name string) int64 {
	t.Helper()
	for _, c := range srv.Counters() {
		if c.Name == name {
			return c.Val
		}
	}
	t.Fatalf("no counter %q", name)
	return 0
}

// waitGoroutines polls until the goroutine count returns to at most
// base (new runs of the GC or test framework may add their own, so a
// small slack is allowed before failing).
func waitGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(3 * time.Second)
	for {
		n := runtime.NumGoroutine()
		if n <= base+2 {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("goroutines leaked: %d > base %d\n%s", n, base, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestPipeE2EBanking runs 8 concurrent clients of banking transfers
// through the full wire/server/client path (run with -race). Every
// transfer must commit, with zero protocol errors and a consistent
// store.
func TestPipeE2EBanking(t *testing.T) {
	const clients, perClient, accounts = 8, 12, 6
	w := sim.BankingWorkload(accounts, clients*perClient, 100, 42)
	store := w.NewStore()
	srv := New(Config{
		Store:          store,
		RequestTimeout: 15 * time.Second,
	})
	base := runtime.NumGoroutine()

	var wg sync.WaitGroup
	errCh := make(chan error, clients)
	for i := 0; i < clients; i++ {
		progs := w.Programs[i*perClient : (i+1)*perClient]
		c := muxClient(srv, client.MuxConfig{MaxAttempts: 8})
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer c.Close()
			for _, p := range progs {
				if _, err := c.Run(context.Background(), p); err != nil {
					errCh <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}

	if got := counter(t, srv, "proto_errors"); got != 0 {
		t.Errorf("proto_errors = %d, want 0", got)
	}
	if got := counter(t, srv, "commits"); got != clients*perClient {
		t.Errorf("commits = %d, want %d", got, clients*perClient)
	}
	if err := store.CheckConsistent(); err != nil {
		t.Error(err)
	}
	if err := srv.System().CheckInvariants(); err != nil {
		t.Error(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	waitGoroutines(t, base)
}

// legacyFrames holds one frame of each retired untagged framing: a v1
// per-operation Lock and a v2 BeginProgram.
var legacyFrames = map[string][]byte{
	"v1 lock":    {0, 0, 0, 6, 1, 2, 1, 2, 'e', '0'},
	"v2 program": {0, 0, 0, 6, 2, byte(wire.TBeginProgram), 1, 'P', 0, 0},
}

// sendLegacy sends frame on a fresh connection to srv and checks the
// rejection: CodeBadRequest on the reserved stream 0, then the server
// closes the connection.
func sendLegacy(srv *Server, frame []byte) error {
	cc, sc := net.Pipe()
	defer cc.Close()
	go srv.ServeConn(sc)
	cc.SetDeadline(time.Now().Add(5 * time.Second))
	if _, err := cc.Write(frame); err != nil {
		return err
	}
	f, _, err := wire.ReadFrame(cc)
	if err != nil {
		return fmt.Errorf("read reply: %w", err)
	}
	if e, ok := f.Msg.(wire.Error); !ok || e.Code != wire.CodeBadRequest || f.Stream != wire.ConnStream {
		return fmt.Errorf("reply %#v, want CodeBadRequest on stream 0", f)
	}
	if _, _, err := wire.ReadFrame(cc); err == nil {
		return errors.New("connection still open after protocol error")
	}
	return nil
}

// TestMixedProtocolClients (named for the v1/v2 clients it once ran)
// sends a frame of each retired untagged framing on its own connection:
// each must be answered with CodeBadRequest on the reserved stream 0,
// counted in proto_errors, and the connection closed, without touching
// the engine.
func TestMixedProtocolClients(t *testing.T) {
	store := entity.NewUniformStore("e", 4, 100)
	srv := New(Config{Store: store})
	for name, frame := range legacyFrames {
		if err := sendLegacy(srv, frame); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
	waitFor(t, func() bool { return counter(t, srv, "sessions_active") == 0 })
	if got := counter(t, srv, "proto_errors"); got != 2 {
		t.Errorf("proto_errors = %d, want 2", got)
	}
	if got := counter(t, srv, "txns_served"); got != 0 {
		t.Errorf("txns_served = %d, want 0", got)
	}
	shutdownNow(t, srv)
}

// TestGracefulShutdownDrainsInFlight blocks a client transaction on a
// lock held directly through the engine, starts Shutdown, then releases
// the lock: the in-flight transaction must commit, Shutdown must return
// nil, and no goroutine may outlive the server.
func TestGracefulShutdownDrainsInFlight(t *testing.T) {
	store := entity.NewUniformStore("e", 4, 100)
	srv := New(Config{Store: store})
	base := runtime.NumGoroutine()

	holder := mustRegister(t, srv, sim.TransferProgram("holder", "e0", "e1", 1, 0))
	if _, err := srv.System().Step(holder); err != nil { // holder takes e0
		t.Fatal(err)
	}

	c := muxClient(srv, client.MuxConfig{})
	defer c.Close()
	resCh := make(chan error, 1)
	go func() {
		_, err := c.RunOnce(sim.TransferProgram("inflight", "e0", "e2", 5, 0))
		resCh <- err
	}()

	// Wait until the client transaction is registered and parked.
	waitFor(t, func() bool { return srv.System().Stats().Waits > 0 })

	shutCh := make(chan error, 1)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	go func() { shutCh <- srv.Shutdown(ctx) }()

	// The drain must not finish while the transaction is blocked.
	select {
	case err := <-shutCh:
		t.Fatalf("shutdown returned %v with a transaction in flight", err)
	case <-time.After(100 * time.Millisecond):
	}

	// Release the lock: the in-flight transaction commits, the drain
	// completes.
	driveToCommit(t, srv, holder)
	if err := <-resCh; err != nil {
		t.Fatalf("in-flight transaction: %v", err)
	}
	if err := <-shutCh; err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if err := store.CheckConsistent(); err != nil {
		t.Error(err)
	}
	if v := store.MustGet("e2"); v != 105 {
		t.Errorf("e2 = %d, want 105 (in-flight transfer applied)", v)
	}
	c.Close()
	waitGoroutines(t, base)
}

// TestForcedShutdownRollsBackInFlight keeps the blocking lock held so
// the drain deadline expires: the in-flight transaction must be rolled
// back to its initial state, the client told CodeShutdown, and the
// store left untouched by it.
func TestForcedShutdownRollsBackInFlight(t *testing.T) {
	store := entity.NewUniformStore("e", 4, 100)
	srv := New(Config{Store: store})
	base := runtime.NumGoroutine()

	holder := mustRegister(t, srv, sim.TransferProgram("holder", "e0", "e1", 1, 0))
	if _, err := srv.System().Step(holder); err != nil {
		t.Fatal(err)
	}

	c := muxClient(srv, client.MuxConfig{})
	defer c.Close()
	resCh := make(chan error, 1)
	go func() {
		_, err := c.RunOnce(sim.TransferProgram("inflight", "e0", "e2", 5, 0))
		resCh <- err
	}()
	waitFor(t, func() bool { return srv.System().Stats().Waits > 0 })

	ctx, cancel := context.WithTimeout(context.Background(), 150*time.Millisecond)
	defer cancel()
	err := srv.Shutdown(ctx)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("shutdown = %v, want DeadlineExceeded (forced)", err)
	}

	err = <-resCh
	var se *client.ServerError
	if !errors.As(err, &se) {
		t.Fatalf("in-flight err = %v, want ServerError", err)
	}
	if se.Code != wire.CodeShutdown || !errors.Is(err, client.ErrRolledBack) {
		t.Errorf("code = %s, want shutdown (retryable)", se.Code)
	}
	if got := srv.System().Stats().Aborts; got != 1 {
		t.Errorf("aborts = %d, want 1", got)
	}
	// Only the untouched holder remains; the store shows no trace of
	// the aborted transfer.
	if v := store.MustGet("e2"); v != 100 {
		t.Errorf("e2 = %d, want 100", v)
	}
	if err := srv.System().CheckInvariants(); err != nil {
		t.Error(err)
	}
	c.Close()
	waitGoroutines(t, base)
}

// TestRequestDeadlineExpiry submits a transaction that blocks past the
// server's RequestTimeout: the server rolls it back and tells the
// client to retry; after the lock is released the retry commits.
func TestRequestDeadlineExpiry(t *testing.T) {
	store := entity.NewUniformStore("e", 4, 100)
	srv := New(Config{Store: store, RequestTimeout: 100 * time.Millisecond})
	holder := mustRegister(t, srv, sim.TransferProgram("holder", "e0", "e1", 1, 0))
	if _, err := srv.System().Step(holder); err != nil {
		t.Fatal(err)
	}

	c := muxClient(srv, client.MuxConfig{})
	defer c.Close()
	prog := sim.TransferProgram("deadline", "e0", "e2", 5, 0)
	_, err := c.RunOnce(prog)
	var se *client.ServerError
	if !errors.As(err, &se) || se.Code != wire.CodeRolledBack {
		t.Fatalf("err = %v, want CodeRolledBack", err)
	}
	if !errors.Is(err, client.ErrRolledBack) {
		t.Error("deadline refusal must match ErrRolledBack")
	}

	// Release the lock; the same connection retries and commits.
	driveToCommit(t, srv, holder)
	res, err := c.RunOnce(prog)
	if err != nil {
		t.Fatalf("retry: %v", err)
	}
	if res.Outcome.OpsExecuted == 0 {
		t.Error("committed transaction reports no executed operations")
	}
	if v := store.MustGet("e2"); v != 105 {
		t.Errorf("e2 = %d, want 105", v)
	}
	shutdownNow(t, srv)
}

// TestMalformedFrames sends garbage and truncated frames: the session
// must answer CodeBadRequest on stream 0 (when a reply is possible),
// close the connection, and count a protocol error — without
// disturbing the engine.
func TestMalformedFrames(t *testing.T) {
	store := entity.NewUniformStore("e", 4, 100)
	srv := New(Config{Store: store})

	// expectConnError reads the connection-level CodeBadRequest and then
	// the server's close.
	expectConnError := func(t *testing.T, cc net.Conn) {
		t.Helper()
		f, _, err := wire.ReadFrame(cc)
		if err != nil {
			t.Fatalf("read reply: %v", err)
		}
		if e, ok := f.Msg.(wire.Error); !ok || e.Code != wire.CodeBadRequest || f.Stream != wire.ConnStream {
			t.Fatalf("reply %#v, want CodeBadRequest on stream 0", f)
		}
		if _, _, err := wire.ReadFrame(cc); err == nil {
			t.Error("connection still open after protocol error")
		}
	}

	t.Run("garbage", func(t *testing.T) {
		cc, sc := net.Pipe()
		go srv.ServeConn(sc)
		// Valid length prefix, bad version.
		cc.SetDeadline(time.Now().Add(5 * time.Second))
		if _, err := cc.Write([]byte{0, 0, 0, 2, 99, 99}); err != nil {
			t.Fatal(err)
		}
		expectConnError(t, cc)
		cc.Close()
	})

	t.Run("truncated mid-transaction", func(t *testing.T) {
		cc, sc := net.Pipe()
		go srv.ServeConn(sc)
		cc.SetDeadline(time.Now().Add(5 * time.Second))
		bp, err := wire.ProgramFrame(sim.TransferProgram("t", "e0", "e1", 1, 0))
		if err != nil {
			t.Fatal(err)
		}
		frame, err := wire.EncodeTagged(1, bp)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := cc.Write(frame[:len(frame)/2]); err != nil {
			t.Fatal(err)
		}
		cc.Close() // connection dies mid-upload
	})

	t.Run("op outside transaction", func(t *testing.T) {
		// A retired per-operation message type (2 = lock) in a v3 frame.
		cc, sc := net.Pipe()
		go srv.ServeConn(sc)
		cc.SetDeadline(time.Now().Add(5 * time.Second))
		if _, err := cc.Write([]byte{0, 0, 0, 7, wire.Version3, 1, 2, 1, 2, 'e', '0'}); err != nil {
			t.Fatal(err)
		}
		expectConnError(t, cc)
		cc.Close()
	})

	t.Run("stream 0", func(t *testing.T) {
		cc, sc := net.Pipe()
		go srv.ServeConn(sc)
		cc.SetDeadline(time.Now().Add(5 * time.Second))
		frame, err := wire.EncodeTagged(wire.ConnStream, wire.Stats{})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := cc.Write(frame); err != nil {
			t.Fatal(err)
		}
		expectConnError(t, cc)
		cc.Close()
	})

	waitFor(t, func() bool { return counter(t, srv, "sessions_active") == 0 })
	if got := counter(t, srv, "proto_errors"); got < 3 {
		t.Errorf("proto_errors = %d, want >= 3", got)
	}
	if err := srv.System().CheckInvariants(); err != nil {
		t.Error(err)
	}
	shutdownNow(t, srv)
}

// TestBadProgramKeepsSession verifies that well-framed but invalid
// programs — an unknown entity, and §2 violations the wire layer no
// longer checks (a write without a lock, a mid-program Commit) — each
// yield CodeBadRequest with the engine's exact message while the
// session stays usable.
func TestBadProgramKeepsSession(t *testing.T) {
	store := entity.NewUniformStore("e", 2, 0)
	srv := New(Config{Store: store})
	c := muxClient(srv, client.MuxConfig{})
	defer c.Close()

	bad := []struct {
		prog *txn.Program
		msg  string
	}{
		{sim.TransferProgram("ghost", "nosuch", "e0", 1, 0),
			`core: program ghost locks undefined entity "nosuch"`},
		{&txn.Program{Name: "bad", Locals: map[string]int64{"x": 0},
			Ops: []txn.Op{{Kind: txn.OpWrite, Entity: "e0", Expr: value.C(1)}, {Kind: txn.OpCommit}}},
			`txn bad: op 0 (Write(e0 <- 1)): write before first lock request`},
		{&txn.Program{Name: "mid",
			Ops: []txn.Op{{Kind: txn.OpCommit}, {Kind: txn.OpLockS, Entity: "e0"}}},
			`txn mid: op 0 (Commit): Commit before end of program`},
	}
	for _, b := range bad {
		_, err := c.RunOnce(b.prog)
		var se *client.ServerError
		if !errors.As(err, &se) || se.Code != wire.CodeBadRequest || se.Msg != b.msg {
			t.Fatalf("%s: err = %v, want CodeBadRequest %q", b.prog.Name, err, b.msg)
		}
		// Same connection, valid program: must commit.
		if _, err := c.RunOnce(sim.TransferProgram("good", "e0", "e1", 1, 0)); err != nil {
			t.Fatalf("after %s: %v", b.prog.Name, err)
		}
	}
	if got := counter(t, srv, "commits"); got != int64(len(bad)) {
		t.Errorf("commits = %d, want %d", got, len(bad))
	}
	shutdownNow(t, srv)
}

// TestShrinkingFailureReleasesLocks sends a valid program whose
// compute divides by zero after its first unlock. It can neither roll
// back nor commit: the client gets CodeInternal, and the lock it still
// holds (e1) must be released, so a transfer over e0 and e1 commits at
// once instead of waiting out its deadline, and the engine keeps no
// transaction.
func TestShrinkingFailureReleasesLocks(t *testing.T) {
	const timeout = 10 * time.Second
	store := entity.NewUniformStore("e", 2, 5)
	var aborts atomic.Int64
	srv := New(Config{Store: store, RequestTimeout: timeout, OnEvent: func(e core.Event) {
		if e.Kind == core.EventAbort {
			aborts.Add(1)
		}
	}})
	c := muxClient(srv, client.MuxConfig{RequestTimeout: 2 * timeout})
	defer c.Close()

	bad := txn.NewProgram("div").Local("x", 0).
		LockX("e0").LockX("e1").
		Write("e0", value.C(7)).
		Unlock("e0").
		Compute("x", value.Div(value.C(1), value.L("x"))).
		MustBuild()
	_, err := c.RunOnce(bad)
	var se *client.ServerError
	if !errors.As(err, &se) || se.Code != wire.CodeInternal || !strings.Contains(se.Msg, "op 4") {
		t.Fatalf("err = %v, want CodeInternal naming op 4", err)
	}
	start := time.Now()
	if _, err := c.RunOnce(sim.TransferProgram("xfer", "e0", "e1", 1, 0)); err != nil {
		t.Fatalf("transfer after the failed program: %v", err)
	}
	if d := time.Since(start); d > timeout/5 {
		t.Errorf("transfer took %v, want well inside the %v deadline", d, timeout)
	}
	if ids := srv.System().IDs(); len(ids) != 0 {
		t.Errorf("engine still holds %v", ids)
	}
	if n := aborts.Load(); n != 1 {
		t.Errorf("%d abort events, want 1", n)
	}
	// The unlock installed e0 = 7 before the failure; that install
	// stays. e1 keeps its initial 5: the failed program's copy is
	// discarded. The transfer then moved 1 from e0 to e1.
	if v, _ := store.Get("e0"); v != 6 {
		t.Errorf("e0 = %d, want 6", v)
	}
	if v, _ := store.Get("e1"); v != 6 {
		t.Errorf("e1 = %d, want 6", v)
	}
	shutdownNow(t, srv)
}

// TestCommittedReplyBytes checks the Committed frame built from one
// Retire call byte for byte against the one built the former way: the
// transaction's counters, its locals as a map sorted by name, then
// Forget.
func TestCommittedReplyBytes(t *testing.T) {
	w := sim.Generate(sim.GenConfig{Txns: 8, DBSize: 64, HotSet: 6, HotProb: 0.9, LocksPerTxn: 5,
		SharedProb: 0.5, PadOps: 3, Shape: sim.Scattered, Seed: 3})
	srv := New(Config{Store: w.NewStore()})
	defer shutdownNow(t, srv)
	for _, p := range append(w.Programs, sim.CounterProgram("inc", "e7")) {
		id := mustRegister(t, srv, p)
		driveToCommit(t, srv, id)
		st := srv.System().TxnStatsOf(id)
		locals, err := srv.System().Locals(id)
		if err != nil {
			t.Fatal(err)
		}
		want := wire.Committed{Txn: int64(id), Stats: wire.TxnOutcome{OpsExecuted: st.OpsExecuted,
			OpsLost: st.OpsLost, Rollbacks: st.Rollbacks, Restarts: st.Restarts, Waits: st.Waits}}
		for name, v := range locals {
			want.Locals = append(want.Locals, wire.LocalDecl{Name: name, Val: v})
		}
		sort.Slice(want.Locals, func(i, j int) bool { return want.Locals[i].Name < want.Locals[j].Name })
		wantBytes, err := wire.AppendTagged(nil, 1, want)
		if err != nil {
			t.Fatal(err)
		}
		gotBytes, err := wire.AppendTagged(nil, 1, srv.committedReply(id))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(gotBytes, wantBytes) {
			t.Fatalf("%s: reply %x, want %x", p.Name, gotBytes, wantBytes)
		}
		if ids := srv.System().IDs(); len(ids) != 0 {
			t.Fatalf("%s: engine still holds %v", p.Name, ids)
		}
	}
}

// TestStatsOverWire asks for the counter snapshot after a commit.
func TestStatsOverWire(t *testing.T) {
	store := entity.NewUniformStore("e", 2, 0)
	srv := New(Config{Store: store})
	c := muxClient(srv, client.MuxConfig{})
	defer c.Close()
	if _, err := c.RunOnce(sim.TransferProgram("t", "e0", "e1", 1, 0)); err != nil {
		t.Fatal(err)
	}
	counters, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]int64{}
	for _, cn := range counters {
		byName[cn.Name] = cn.Val
	}
	if byName["commits"] != 1 || byName["txns_served"] != 1 || byName["sessions_total"] != 1 {
		t.Errorf("counters = %v", byName)
	}
	if byName["bytes_in"] == 0 || byName["bytes_out"] == 0 {
		t.Errorf("byte counters not advancing: %v", byName)
	}
	shutdownNow(t, srv)
}

// TestOwners checks the /debug/txns annotation at its source: a waiter
// parked behind a holder registered on the engine appears in Owners
// with its connection's serial number, remote address and stream, the
// holder (driven by no connection) does not, and once the waiter's
// terminal reply is sent its entry is gone; so are the entries of many
// concurrent streams once they all reply.
func TestOwners(t *testing.T) {
	srv := New(Config{Store: entity.NewUniformStore("e", 4, 100)})
	if err := srv.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer shutdownNow(t, srv)
	// The engine orders the holder's locks: its first two steps take e2
	// and then e3.
	holder := mustRegister(t, srv, sim.TransferProgram("holder", "e3", "e2", 1, 0))
	for i := 0; i < 2; i++ {
		if _, err := srv.System().Step(holder); err != nil {
			t.Fatal(err)
		}
	}

	var local atomic.Value
	m := client.NewMux(client.MuxConfig{Dial: func() (net.Conn, error) {
		nc, err := net.Dial("tcp", srv.Addr().String())
		if err == nil {
			local.Store(nc.LocalAddr().String())
		}
		return nc, err
	}})
	defer m.Close()
	done := make(chan error, 1)
	go func() {
		_, err := m.RunOnce(sim.TransferProgram("waiter", "e3", "e1", 1, 0))
		done <- err
	}()

	// The waiter takes e1, then parks on the holder's e3.
	var waiter txn.ID
	waitFor(t, func() bool {
		for _, ts := range srv.System().DebugSnapshot().Txns {
			if ts.WaitingOn == "e3" {
				waiter = ts.ID
				return true
			}
		}
		return false
	})
	owners := srv.Owners()
	want := obs.TxnOwner{Conn: 1, Addr: local.Load().(string), Stream: 1}
	if len(owners) != 1 || owners[waiter] != want {
		t.Fatalf("Owners() = %+v, want only waiter %v owned by %+v", owners, waiter, want)
	}

	driveToCommit(t, srv, holder)
	if err := <-done; err != nil {
		t.Fatalf("waiter: %v", err)
	}
	waitFor(t, func() bool { return len(srv.Owners()) == 0 })

	// Owners reads the stream tables while streams record and retire
	// their transactions (run with -race).
	stop := make(chan struct{})
	polled := make(chan struct{})
	go func() {
		defer close(polled)
		for {
			select {
			case <-stop:
				return
			default:
				srv.Owners()
			}
		}
	}()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for n := 0; n < 8; n++ {
				if _, err := m.Run(context.Background(), sim.TransferProgram("xfer", entName(i%4), entName((i+1)%4), 1, 0)); err != nil {
					t.Error(err)
					return
				}
			}
		}(i)
	}
	wg.Wait()
	close(stop)
	<-polled
	waitFor(t, func() bool { return len(srv.Owners()) == 0 })
}

// TestListenBusyReject fills the session limit and backlog over real
// TCP and verifies the next connection is refused with CodeBusy.
func TestListenBusyReject(t *testing.T) {
	store := entity.NewUniformStore("e", 2, 0)
	srv := New(Config{Store: store, MaxSessions: 1, Backlog: 1})
	if err := srv.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	addr := srv.Addr().String()

	dial := func() net.Conn {
		t.Helper()
		conn, err := net.DialTimeout("tcp", addr, 2*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		conn.SetDeadline(time.Now().Add(5 * time.Second))
		return conn
	}

	// Occupy the one session slot (round-trip proves it is serving).
	c1 := dial()
	defer c1.Close()
	stats, err := wire.EncodeTagged(1, wire.Stats{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c1.Write(stats); err != nil {
		t.Fatal(err)
	}
	if _, _, err := wire.ReadFrame(c1); err != nil {
		t.Fatal(err)
	}
	// Fill the backlog.
	c2 := dial()
	defer c2.Close()
	waitFor(t, func() bool { return len(srv.backlog) == 1 })

	// The next connection must be refused.
	c3 := dial()
	defer c3.Close()
	f, _, err := wire.ReadFrame(c3)
	if err != nil {
		t.Fatalf("read busy reply: %v", err)
	}
	if e, ok := f.Msg.(wire.Error); !ok || e.Code != wire.CodeBusy || f.Stream != wire.ConnStream {
		t.Fatalf("reply %#v, want CodeBusy on stream 0", f)
	}
	if got := counter(t, srv, "busy_rejected"); got != 1 {
		t.Errorf("busy_rejected = %d, want 1", got)
	}
	shutdownNow(t, srv)
}

// TestSessionLimitOverTCP drives several clients through a real
// listener with a small session limit; backlogged connections are
// served as slots free.
func TestSessionLimitOverTCP(t *testing.T) {
	store := entity.NewUniformStore("e", 8, 100)
	srv := New(Config{Store: store, MaxSessions: 2, Backlog: 8})
	if err := srv.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	addr := srv.Addr().String()

	var wg sync.WaitGroup
	errCh := make(chan error, 6)
	for i := 0; i < 6; i++ {
		c := client.NewMux(client.MuxConfig{Addr: addr, RequestTimeout: 10 * time.Second,
			Backoff: exec.Backoff{Base: time.Millisecond, Cap: 10 * time.Millisecond}})
		from, to := i%8, (i+3)%8
		prog := sim.TransferProgram("t", entName(from), entName(to), 1, 1)
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer c.Close()
			if _, err := c.Run(context.Background(), prog); err != nil {
				errCh <- err
			}
		}()
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
	if got := counter(t, srv, "commits"); got != 6 {
		t.Errorf("commits = %d, want 6", got)
	}
	shutdownNow(t, srv)
}

func entName(i int) string { return "e" + string(rune('0'+i)) }

// driveToCommit steps a directly-registered transaction to commit.
func driveToCommit(t *testing.T, srv *Server, id txn.ID) {
	t.Helper()
	for i := 0; i < 1000; i++ {
		res, err := srv.System().Step(id)
		if err != nil {
			t.Fatalf("step %v: %v", id, err)
		}
		if res.Outcome == core.Committed || res.Outcome == core.AlreadyCommitted {
			return
		}
	}
	t.Fatalf("%v did not commit in 1000 steps", id)
}

func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached in 5s")
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func shutdownNow(t *testing.T, srv *Server) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
}

// TestPipeE2EBankingSharded is TestPipeE2EBanking under SDG with more
// clients: every transfer commits with zero protocol errors and a
// consistent store, and the counter snapshot carries no per-shard
// counters.
//
// label historical: the node has one engine since sharding left it.
func TestPipeE2EBankingSharded(t *testing.T) {
	const clients, perClient, accounts = 8, 12, 6
	w := sim.BankingWorkload(accounts, clients*perClient, 100, 42)
	store := w.NewStore()
	srv := New(Config{
		Store:          store,
		RequestTimeout: 15 * time.Second,
	})
	base := runtime.NumGoroutine()

	var wg sync.WaitGroup
	errCh := make(chan error, clients)
	for i := 0; i < clients; i++ {
		progs := w.Programs[i*perClient : (i+1)*perClient]
		c := muxClient(srv, client.MuxConfig{MaxAttempts: 8})
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer c.Close()
			for _, p := range progs {
				if _, err := c.Run(context.Background(), p); err != nil {
					errCh <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}

	if got := counter(t, srv, "proto_errors"); got != 0 {
		t.Errorf("proto_errors = %d, want 0", got)
	}
	if got := counter(t, srv, "commits"); got != clients*perClient {
		t.Errorf("commits = %d, want %d", got, clients*perClient)
	}
	for _, c := range srv.Counters() {
		if strings.HasPrefix(c.Name, "shard") {
			t.Errorf("counter snapshot carries %s", c.Name)
		}
	}
	if err := store.CheckConsistent(); err != nil {
		t.Error(err)
	}
	if err := srv.System().CheckInvariants(); err != nil {
		t.Error(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	waitGoroutines(t, base)
}

// TestCountersConcurrentWithSessions hammers Counters() and wire Stats
// requests while transaction sessions run, so -race can see any unsynced
// access to the serving-layer counters or the engine stats they fold in.
//
// label historical: the node has one engine since sharding left it.
func TestCountersConcurrentWithSessions(t *testing.T) {
	const clients, perClient = 4, 8
	w := sim.BankingWorkload(4, clients*perClient, 100, 7)
	store := w.NewStore()
	srv := New(Config{
		Store:          store,
		RequestTimeout: 15 * time.Second,
	})

	stop := make(chan struct{})
	var scrapers sync.WaitGroup
	// In-process scraper: Server.Counters directly.
	scrapers.Add(1)
	go func() {
		defer scrapers.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			for _, c := range srv.Counters() {
				if c.Name == "" {
					t.Error("counter with empty name")
					return
				}
			}
		}
	}()
	// Wire scraper: Stats requests over their own session.
	scrapers.Add(1)
	go func() {
		defer scrapers.Done()
		c := muxClient(srv, client.MuxConfig{})
		defer c.Close()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := c.Stats(); err != nil {
				t.Errorf("stats: %v", err)
				return
			}
		}
	}()

	var wg sync.WaitGroup
	errCh := make(chan error, clients)
	for i := 0; i < clients; i++ {
		progs := w.Programs[i*perClient : (i+1)*perClient]
		c := muxClient(srv, client.MuxConfig{MaxAttempts: 8})
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer c.Close()
			for _, p := range progs {
				if _, err := c.Run(context.Background(), p); err != nil {
					errCh <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(stop)
	scrapers.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}

	if got := counter(t, srv, "commits"); got != clients*perClient {
		t.Errorf("commits = %d, want %d", got, clients*perClient)
	}
	if err := store.CheckConsistent(); err != nil {
		t.Error(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
}
