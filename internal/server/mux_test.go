package server

import (
	"context"
	"errors"
	"fmt"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"partialrollback/internal/client"
	"partialrollback/internal/entity"
	"partialrollback/internal/exec"
	"partialrollback/internal/sim"
	"partialrollback/internal/txn"
	"partialrollback/internal/wire"
)

// muxClient returns a multiplexed client whose dials are served by srv
// over net.Pipe.
func muxClient(srv *Server, cfg client.MuxConfig) *client.Mux {
	cfg.Dial = func() (net.Conn, error) {
		cc, sc := net.Pipe()
		go srv.ServeConn(sc)
		return cc, nil
	}
	if cfg.RequestTimeout == 0 {
		cfg.RequestTimeout = 10 * time.Second
	}
	if cfg.Backoff.Base == 0 && cfg.Backoff.Cap == 0 && cfg.Backoff.Jitter == nil {
		cfg.Backoff = exec.Backoff{Base: 100 * time.Microsecond, Cap: 2 * time.Millisecond}
	}
	return client.NewMux(cfg)
}

// TestMuxE2EBanking runs many concurrent streams over a handful of
// shared sockets (run with -race): every transfer must commit, with
// zero protocol errors, every accepted stream accounted for, and a
// consistent store.
func TestMuxE2EBanking(t *testing.T) {
	const muxCount, streamsPer, perStream, accounts = 2, 16, 4, 6
	const total = muxCount * streamsPer * perStream
	w := sim.BankingWorkload(accounts, total, 100, 7)
	store := w.NewStore()
	srv := New(Config{
		Store:          store,
		RequestTimeout: 15 * time.Second,
	})
	base := runtime.NumGoroutine()

	muxes := make([]*client.Mux, muxCount)
	for i := range muxes {
		muxes[i] = muxClient(srv, client.MuxConfig{MaxAttempts: 8})
	}

	var wg sync.WaitGroup
	errCh := make(chan error, muxCount*streamsPer)
	for i := 0; i < muxCount*streamsPer; i++ {
		progs := w.Programs[i*perStream : (i+1)*perStream]
		m := muxes[i%muxCount]
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, p := range progs {
				if _, err := m.Run(context.Background(), p); err != nil {
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
	if got := counter(t, srv, "commits"); got != total {
		t.Errorf("commits = %d, want %d", got, total)
	}
	// Every transaction traveled as a stream; retries open fresh ones.
	if got := counter(t, srv, "streams_total"); got < total {
		t.Errorf("streams_total = %d, want >= %d", got, total)
	}
	// A stream retires just after queueing its terminal reply,
	// so the last stream may still be counted when its caller returns.
	waitFor(t, func() bool { return counter(t, srv, "streams_active") == 0 })
	// The whole load rode muxCount sockets (plus nothing else).
	if got := counter(t, srv, "sessions_total"); got != muxCount {
		t.Errorf("sessions_total = %d, want %d", got, muxCount)
	}
	if err := store.CheckConsistent(); err != nil {
		t.Error(err)
	}
	if err := srv.System().CheckInvariants(); err != nil {
		t.Error(err)
	}
	for _, m := range muxes {
		m.Close()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	waitGoroutines(t, base)
}

// TestMixedProtocolAllVersions runs retired v1 and v2 peers
// concurrently with v3 streams against one server (run with -race):
// every legacy frame is refused on its own connection, and the v3
// population, sharing one mux, must commit everything regardless.
func TestMixedProtocolAllVersions(t *testing.T) {
	const workers, perWorker, accounts = 9, 8, 6
	w := sim.BankingWorkload(accounts, workers*perWorker, 100, 99)
	store := w.NewStore()
	srv := New(Config{
		Store:          store,
		RequestTimeout: 15 * time.Second,
	})
	base := runtime.NumGoroutine()

	mux := muxClient(srv, client.MuxConfig{MaxAttempts: 8})

	var wg sync.WaitGroup
	errCh := make(chan error, workers)
	for i := 0; i < workers; i++ {
		progs := w.Programs[i*perWorker : (i+1)*perWorker]
		wg.Add(1)
		switch i % 3 {
		case 2: // v3: all these workers share the one mux
			go func() {
				defer wg.Done()
				for _, p := range progs {
					if _, err := mux.Run(context.Background(), p); err != nil {
						errCh <- err
						return
					}
				}
			}()
		default: // v1 and v2: a connection per frame, each refused
			frame := legacyFrames[[]string{"v1 lock", "v2 program"}[i%3]]
			go func() {
				defer wg.Done()
				for range progs {
					if err := sendLegacy(srv, frame); err != nil {
						errCh <- err
						return
					}
				}
			}()
		}
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}

	const v3Txns, refused = workers / 3 * perWorker, workers * 2 / 3 * perWorker
	if got := counter(t, srv, "proto_errors"); got != refused {
		t.Errorf("proto_errors = %d, want %d", got, refused)
	}
	if got := counter(t, srv, "commits"); got != v3Txns {
		t.Errorf("commits = %d, want %d", got, v3Txns)
	}
	if got := counter(t, srv, "streams_total"); got < v3Txns {
		t.Errorf("streams_total = %d, want >= %d", got, v3Txns)
	}
	if err := store.CheckConsistent(); err != nil {
		t.Error(err)
	}
	if err := srv.System().CheckInvariants(); err != nil {
		t.Error(err)
	}
	mux.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	waitGoroutines(t, base)
}

// TestMuxGracefulShutdownDrainsStreams parks several streams of one
// connection on an engine-held lock, starts a graceful Shutdown, then
// releases the lock: every stream must commit (not be cut off), and
// Shutdown must return nil.
func TestMuxGracefulShutdownDrainsStreams(t *testing.T) {
	const blocked = 4
	store := entity.NewUniformStore("e", 8, 100)
	srv := New(Config{Store: store})
	base := runtime.NumGoroutine()

	holder := mustRegister(t, srv, sim.TransferProgram("holder", "e0", "e1", 1, 0))
	if _, err := srv.System().Step(holder); err != nil { // holder takes e0
		t.Fatal(err)
	}

	m := muxClient(srv, client.MuxConfig{})
	resCh := make(chan error, blocked)
	for i := 0; i < blocked; i++ {
		go func() {
			_, err := m.RunOnce(sim.TransferProgram("inflight", "e0", "e2", 5, 0))
			resCh <- err
		}()
	}
	waitFor(t, func() bool { return counter(t, srv, "streams_active") == blocked })
	waitFor(t, func() bool { return srv.System().Stats().Waits >= blocked })

	shutCh := make(chan error, 1)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	go func() { shutCh <- srv.Shutdown(ctx) }()

	// The drain must not finish while streams are blocked.
	select {
	case err := <-shutCh:
		t.Fatalf("shutdown returned %v with %d streams in flight", err, blocked)
	case <-time.After(100 * time.Millisecond):
	}

	driveToCommit(t, srv, holder)
	for i := 0; i < blocked; i++ {
		if err := <-resCh; err != nil {
			t.Errorf("in-flight stream: %v", err)
		}
	}
	if err := <-shutCh; err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if err := store.CheckConsistent(); err != nil {
		t.Error(err)
	}
	if v := store.MustGet("e2"); v != 100+5*blocked {
		t.Errorf("e2 = %d, want %d (all in-flight transfers applied)", v, 100+5*blocked)
	}
	m.Close()
	waitGoroutines(t, base)
}

// TestMuxForcedShutdownTerminalReplies keeps the blocking lock held so
// the drain deadline expires: every accepted stream must still receive
// a terminal reply — the retryable CodeShutdown — never silence.
func TestMuxForcedShutdownTerminalReplies(t *testing.T) {
	const blocked = 4
	store := entity.NewUniformStore("e", 8, 100)
	srv := New(Config{Store: store})
	base := runtime.NumGoroutine()

	holder := mustRegister(t, srv, sim.TransferProgram("holder", "e0", "e1", 1, 0))
	if _, err := srv.System().Step(holder); err != nil {
		t.Fatal(err)
	}

	m := muxClient(srv, client.MuxConfig{})
	resCh := make(chan error, blocked)
	for i := 0; i < blocked; i++ {
		go func() {
			_, err := m.RunOnce(sim.TransferProgram("inflight", "e0", "e2", 5, 0))
			resCh <- err
		}()
	}
	waitFor(t, func() bool { return counter(t, srv, "streams_active") == blocked })
	waitFor(t, func() bool { return srv.System().Stats().Waits >= blocked })

	ctx, cancel := context.WithTimeout(context.Background(), 150*time.Millisecond)
	defer cancel()
	if err := srv.Shutdown(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("shutdown = %v, want DeadlineExceeded (forced)", err)
	}

	for i := 0; i < blocked; i++ {
		err := <-resCh
		var se *client.ServerError
		if !errors.As(err, &se) {
			t.Fatalf("in-flight stream err = %v, want ServerError", err)
		}
		if se.Code != wire.CodeShutdown || !errors.Is(err, client.ErrRolledBack) {
			t.Errorf("code = %s, want shutdown (retryable)", se.Code)
		}
	}
	// The store shows no trace of the rolled-back transfers.
	if v := store.MustGet("e2"); v != 100 {
		t.Errorf("e2 = %d, want 100", v)
	}
	if err := srv.System().CheckInvariants(); err != nil {
		t.Error(err)
	}
	m.Close()
	waitGoroutines(t, base)
}

// TestMuxStreamLimitBusy caps MaxStreams and overflows it: the excess
// stream is refused with the retryable CodeBusy while the connection —
// and the streams already admitted — live on.
func TestMuxStreamLimitBusy(t *testing.T) {
	store := entity.NewUniformStore("e", 8, 100)
	srv := New(Config{Store: store, MaxStreams: 2})

	holder := mustRegister(t, srv, sim.TransferProgram("holder", "e0", "e1", 1, 0))
	if _, err := srv.System().Step(holder); err != nil {
		t.Fatal(err)
	}

	m := muxClient(srv, client.MuxConfig{})
	defer m.Close()
	resCh := make(chan error, 2)
	for i := 0; i < 2; i++ {
		go func() {
			_, err := m.RunOnce(sim.TransferProgram("inflight", "e0", "e2", 5, 0))
			resCh <- err
		}()
	}
	waitFor(t, func() bool { return counter(t, srv, "streams_active") == 2 })

	// The connection is at its stream limit: the third stream is busy.
	_, err := m.RunOnce(sim.TransferProgram("extra", "e0", "e2", 5, 0))
	var se *client.ServerError
	if !errors.As(err, &se) || se.Code != wire.CodeBusy {
		t.Fatalf("overflow stream err = %v, want CodeBusy", err)
	}
	if !client.Retryable(err) {
		t.Error("stream-limit refusal must be retryable")
	}

	// Release the lock: the admitted streams commit, freeing capacity,
	// and the refused stream succeeds on retry.
	driveToCommit(t, srv, holder)
	for i := 0; i < 2; i++ {
		if err := <-resCh; err != nil {
			t.Fatalf("admitted stream: %v", err)
		}
	}
	if _, err := m.Run(context.Background(), sim.TransferProgram("retry", "e3", "e4", 5, 0)); err != nil {
		t.Fatalf("retry after busy: %v", err)
	}
	if got := counter(t, srv, "proto_errors"); got != 0 {
		t.Errorf("proto_errors = %d, want 0 (busy is load, not confusion)", got)
	}
	shutdownNow(t, srv)
}

// TestMuxDuplicateStreamDesync replays an already-active stream ID: the
// server must answer CodeBadRequest and close the connection (the two
// sides disagree about stream state), while the stream already in
// flight still receives its terminal reply before the socket dies.
func TestMuxDuplicateStreamDesync(t *testing.T) {
	store := entity.NewUniformStore("e", 8, 100)
	srv := New(Config{Store: store, RequestTimeout: 200 * time.Millisecond})

	holder := mustRegister(t, srv, sim.TransferProgram("holder", "e0", "e1", 1, 0))
	if _, err := srv.System().Step(holder); err != nil {
		t.Fatal(err)
	}

	cc, sc := net.Pipe()
	go srv.ServeConn(sc)
	cc.SetDeadline(time.Now().Add(10 * time.Second))

	bp, err := wire.ProgramFrame(sim.TransferProgram("inflight", "e0", "e2", 5, 0))
	if err != nil {
		t.Fatal(err)
	}
	frame, err := wire.EncodeTagged(7, bp)
	if err != nil {
		t.Fatal(err)
	}
	// Open stream 7 (it parks on e0), then open it again.
	if _, err := cc.Write(frame); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return counter(t, srv, "streams_active") == 1 })
	if _, err := cc.Write(frame); err != nil {
		t.Fatal(err)
	}

	// Until EOF the connection must deliver: the duplicate's
	// CodeBadRequest, and the original stream's own terminal reply
	// (rolled back at the request deadline) — both tagged stream 7.
	var badRequests, terminals int
	for {
		f, _, err := wire.ReadFrame(cc)
		if err != nil {
			break // connection closed by the server
		}
		if f.Stream != 7 {
			t.Fatalf("reply %#v, want a frame on stream 7", f)
		}
		switch x := f.Msg.(type) {
		case wire.Error:
			if x.Code == wire.CodeBadRequest {
				badRequests++
			} else {
				terminals++
			}
		case wire.Committed:
			terminals++
		default:
			t.Fatalf("unexpected reply %#v", f.Msg)
		}
	}
	if badRequests != 1 {
		t.Errorf("CodeBadRequest replies = %d, want 1 (the duplicate)", badRequests)
	}
	if terminals != 1 {
		t.Errorf("terminal replies = %d, want 1 (the original stream)", terminals)
	}
	if got := counter(t, srv, "proto_errors"); got != 1 {
		t.Errorf("proto_errors = %d, want 1", got)
	}
	cc.Close()
	waitFor(t, func() bool { return counter(t, srv, "sessions_active") == 0 })
	driveToCommit(t, srv, holder)
	shutdownNow(t, srv)
}

// TestMuxRollbackNotifications (the name is historical: the server
// once sent each rollback to its stream as a notification frame) runs
// transfers in opposite directions over the same pair from two streams
// of one connection: because the server orders every program's locks,
// they never deadlock and nothing is rolled back. The server's one
// remaining rollback is the abort of a transaction that waits past its
// deadline; the stream that owns it gets the retryable CodeRolledBack
// verdict as its one reply.
func TestMuxRollbackNotifications(t *testing.T) {
	store := entity.NewUniformStore("e", 4, 100)
	srv := New(Config{Store: store})

	m := muxClient(srv, client.MuxConfig{MaxAttempts: 8})
	defer m.Close()

	var wg sync.WaitGroup
	errCh := make(chan error, 2)
	for i := 0; i < 2; i++ {
		from, to := "e0", "e1"
		if i == 1 {
			from, to = "e1", "e0"
		}
		// Padded past exec's 64-op burst so that the two interleave
		// between their locks; run as sent they would deadlock.
		prog := sim.TransferProgram("xfer", from, to, 1, 100)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for n := 0; n < 20; n++ {
				if _, err := m.Run(context.Background(), prog); err != nil {
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
	if got := counter(t, srv, "commits"); got != 40 {
		t.Errorf("commits = %d, want 40", got)
	}
	if err := store.CheckConsistent(); err != nil {
		t.Error(err)
	}
	if dl, rb := counter(t, srv, "deadlocks"), counter(t, srv, "rollbacks_total"); dl != 0 || rb != 0 {
		t.Errorf("deadlocks = %d, rollbacks_total = %d, want 0 and 0", dl, rb)
	}
	shutdownNow(t, srv)

	// The deadline abort: the waiter takes e1, then waits on the
	// holder's e3 until its 100 ms deadline rolls it back from lock
	// state 1 to 0. The server's engine orders the holder's locks too,
	// so its first two steps take e2 and then e3.
	srv = New(Config{Store: entity.NewUniformStore("e", 4, 100), RequestTimeout: 100 * time.Millisecond})
	holder := mustRegister(t, srv, sim.TransferProgram("holder", "e3", "e2", 1, 0))
	for i := 0; i < 2; i++ {
		if _, err := srv.System().Step(holder); err != nil {
			t.Fatal(err)
		}
	}
	m = muxClient(srv, client.MuxConfig{})
	defer m.Close()
	_, err := m.RunOnce(sim.TransferProgram("waiter", "e3", "e1", 1, 0))
	var se *client.ServerError
	if !errors.As(err, &se) || se.Code != wire.CodeRolledBack {
		t.Fatalf("err = %v, want CodeRolledBack", err)
	}
	if got := counter(t, srv, "aborts"); got != 1 {
		t.Errorf("aborts = %d, want 1 (the waiter)", got)
	}
	driveToCommit(t, srv, holder)
	shutdownNow(t, srv)
}

// TestMuxStreamGoroutinesRetire runs 2 000 one-transaction streams
// through one mux, first one at a time and then 16 at a time. Once every
// stream has replied the connection is back to its fixed goroutines —
// the server's reader and writer and the mux's reader — because a
// stream's goroutine lives only as long as its transaction.
func TestMuxStreamGoroutinesRetire(t *testing.T) {
	const sequential, concurrent, width, counters = 1000, 1000, 16, 64
	const connGoroutines = 3
	srv := New(Config{Store: entity.NewUniformStore("e", counters, 0)})
	base := runtime.NumGoroutine()
	m := muxClient(srv, client.MuxConfig{})
	progs := sim.CounterWorkload(counters, sequential+concurrent, 5).Programs

	for _, p := range progs[:sequential] {
		if _, err := m.Run(context.Background(), p); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	errCh := make(chan error, width)
	rest := progs[sequential:]
	for i := 0; i < width; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := i; j < len(rest); j += width {
				if _, err := m.Run(context.Background(), rest[j]); err != nil {
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
	if got := counter(t, srv, "commits"); got != sequential+concurrent {
		t.Fatalf("commits = %d, want %d", got, sequential+concurrent)
	}
	waitGoroutines(t, base+connGoroutines)

	m.Close()
	shutdownNow(t, srv)
	waitGoroutines(t, base)
}

// TestMuxRepliesCoalesce runs 8 streams of one mux for 100 rounds on
// one P, where every reply that becomes ready while the writer runs is
// queued behind it: the writer's yield before it flushes must let those
// replies share its write, so the connection makes at most one write
// per two reply frames (one per frame without the yield).
func TestMuxRepliesCoalesce(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const streams, rounds, counters = 8, 100, 64
	srv := New(Config{Store: entity.NewUniformStore("e", counters, 0)})
	m := muxClient(srv, client.MuxConfig{})
	progs := sim.CounterWorkload(counters, streams*rounds, 5).Programs
	var wg sync.WaitGroup
	errCh := make(chan error, streams)
	for i := 0; i < streams; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				if _, err := m.Run(context.Background(), progs[r*streams+i]); err != nil {
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
	flushes, frames := counter(t, srv, "writer_flushes"), counter(t, srv, "frames_out")
	if frames != streams*rounds || flushes > frames/2 {
		t.Errorf("writer_flushes = %d for frames_out = %d, want %d frames in at most half as many writes",
			flushes, frames, streams*rounds)
	}
	m.Close()
	shutdownNow(t, srv)
}

// BenchmarkStreamRoundTrip runs 22-operation transactions of the
// benchmark's uniform shape through a mux against an in-process server:
// request encoding, stream admission and the stream's goroutine,
// execution, and the Committed reply. At width 1 one stream is in
// flight, so the writer has nothing to coalesce; at width 16 sixteen
// streams share the connection and flushes/txn shows how many replies
// share each write.
func BenchmarkStreamRoundTrip(b *testing.B) {
	const entities = 4096
	var prog *txn.Program
	for _, p := range sim.Generate(sim.GenConfig{Txns: 64, DBSize: entities, LocksPerTxn: 4,
		SharedProb: 0.8, PadOps: 2, Shape: sim.Scattered, Seed: 1}).Programs {
		if len(p.Ops) == 22 {
			prog = p
			break
		}
	}
	if prog == nil {
		b.Fatal("no 22-operation program generated")
	}
	for _, width := range []int{1, 16} {
		b.Run(fmt.Sprintf("width=%d", width), func(b *testing.B) {
			srv := New(Config{Store: entity.NewUniformStore("e", entities, 0)})
			m := muxClient(srv, client.MuxConfig{})
			var next atomic.Int64
			var wg sync.WaitGroup
			errCh := make(chan error, width)
			b.ReportAllocs()
			b.ResetTimer()
			for w := 0; w < width; w++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for next.Add(1) <= int64(b.N) {
						if _, err := m.Run(context.Background(), prog); err != nil {
							errCh <- err
							return
						}
					}
				}()
			}
			wg.Wait()
			b.StopTimer()
			close(errCh)
			for err := range errCh {
				b.Fatal(err)
			}
			b.ReportMetric(float64(counter(b, srv, "writer_flushes"))/float64(b.N), "flushes/txn")
			m.Close()
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			if err := srv.Shutdown(ctx); err != nil {
				b.Fatal(err)
			}
		})
	}
}
