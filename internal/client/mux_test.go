package client

import (
	"bufio"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"strconv"
	"sync"
	"testing"
	"time"

	"partialrollback/internal/exec"
	"partialrollback/internal/sim"
	"partialrollback/internal/txn"
	"partialrollback/internal/wire"
)

func testMuxConfig(dial func() (net.Conn, error)) MuxConfig {
	return MuxConfig{
		Dial:           dial,
		RequestTimeout: 5 * time.Second,
		MaxAttempts:    8,
		Backoff:        exec.Backoff{Base: time.Microsecond, Cap: time.Microsecond},
	}
}

// muxPeer is a scripted server end: tests read frames off incoming and
// reply with reply (concurrency-safe, each frame on its stream).
type muxPeer struct {
	conn net.Conn
	wmu  sync.Mutex
}

// incoming yields each BeginProgram as (stream, program index), until
// the connection dies.
func (p *muxPeer) incoming(t *testing.T, out chan<- [2]uint64) {
	t.Helper()
	br := bufio.NewReader(p.conn)
	for {
		f, _, err := wire.ReadFrame(br)
		if err != nil {
			close(out)
			return
		}
		bp, ok := f.Msg.(wire.BeginProgram)
		if !ok || f.Stream == wire.ConnStream {
			t.Errorf("peer got %#v, want a BeginProgram on a client stream", f)
			close(out)
			return
		}
		// Program names are "p<i>"; carry i next to the stream tag.
		idx, err := strconv.Atoi(bp.Name[1:])
		if err != nil {
			t.Errorf("program name %q, want p<i>", bp.Name)
		}
		out <- [2]uint64{uint64(f.Stream), uint64(idx)}
	}
}

func (p *muxPeer) reply(t *testing.T, stream uint32, m wire.Msg) {
	t.Helper()
	frame, err := wire.EncodeTagged(stream, m)
	if err != nil {
		t.Errorf("peer encode: %v", err)
		return
	}
	p.wmu.Lock()
	defer p.wmu.Unlock()
	if _, err := p.conn.Write(frame); err != nil {
		t.Logf("peer write: %v", err)
	}
}

// numberedProgram builds the trivial program "p<i>" whose commit the
// scripted peer can attribute.
func numberedProgram(t *testing.T, i int) *txn.Program {
	t.Helper()
	return sim.TransferProgram(fmt.Sprintf("p%d", i), "e0", "e1", 1, 0)
}

// TestMuxDemuxOutOfOrder runs several concurrent RunOnce calls over ONE
// connection and has the peer answer them in reverse arrival order:
// each caller must receive exactly its own verdict, proving the stream
// tags — not arrival order — route replies.
func TestMuxDemuxOutOfOrder(t *testing.T) {
	const streams = 3
	dials := 0
	var peer *muxPeer
	arrivals := make(chan [2]uint64, streams)
	m := NewMux(testMuxConfig(func() (net.Conn, error) {
		dials++
		if dials > 1 {
			t.Fatalf("unexpected dial #%d", dials)
		}
		cc, sc := net.Pipe()
		peer = &muxPeer{conn: sc}
		go peer.incoming(t, arrivals)
		return cc, nil
	}))
	defer m.Close()

	// The peer waits for all three submissions, then verdicts them
	// newest-first, tagging each Committed with the program index it
	// belongs to.
	go func() {
		var got [][2]uint64
		for a := range arrivals {
			got = append(got, a)
			if len(got) == streams {
				for i := len(got) - 1; i >= 0; i-- {
					peer.reply(t, uint32(got[i][0]), wire.Committed{
						Txn:    int64(got[i][1]),
						Locals: []wire.LocalDecl{{Name: "n", Val: int64(got[i][1])}},
					})
				}
			}
		}
	}()

	var wg sync.WaitGroup
	errs := make([]error, streams)
	for i := 0; i < streams; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			res, err := m.RunOnce(numberedProgram(t, i))
			if err != nil {
				errs[i] = err
				return
			}
			if res.Locals["n"] != int64(i) {
				errs[i] = fmt.Errorf("stream %d got verdict for program %d", i, res.Locals["n"])
			}
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Errorf("stream %d: %v", i, err)
		}
	}
}

// TestMuxRollbackNotificationPerStream (the name is historical: type
// byte 17 once carried a per-stream rollback notification) has the peer
// send a type-17 frame on one of two in-flight streams. The type is
// retired, so the frame fails to decode: the connection fails with a
// non-retryable protocol error, and both streams' RunOnce return it.
func TestMuxRollbackNotificationPerStream(t *testing.T) {
	arrivals := make(chan [2]uint64, 2)
	var peer *muxPeer
	m := NewMux(testMuxConfig(func() (net.Conn, error) {
		cc, sc := net.Pipe()
		peer = &muxPeer{conn: sc}
		go peer.incoming(t, arrivals)
		return cc, nil
	}))
	defer m.Close()

	go func() {
		var got [][2]uint64
		for a := range arrivals {
			got = append(got, a)
			if len(got) == 2 {
				// [len][version][stream][17][txn lock-state from to lost]
				payload := []byte{wire.Version3, byte(got[0][0]), 17, 2, 0, 0, 0, 8}
				frame := append(binary.BigEndian.AppendUint32(nil, uint32(len(payload))), payload...)
				peer.wmu.Lock()
				_, _ = peer.conn.Write(frame)
				peer.wmu.Unlock()
			}
		}
	}()

	var wg sync.WaitGroup
	errs := make([]error, 2)
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			res, err := m.RunOnce(numberedProgram(t, i))
			if res != nil {
				t.Errorf("stream %d: result %+v, want none", i, res)
			}
			errs[i] = err
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if !errors.Is(err, wire.ErrProtocol) || Retryable(err) {
			t.Errorf("stream %d: err = %v, want a non-retryable protocol error", i, err)
		}
	}
}

// TestMuxRunRedialsAfterTransportFailure kills the first connection
// mid-request: Run must fail every pending stream with a retryable
// error, redial, and commit on the second attempt.
func TestMuxRunRedialsAfterTransportFailure(t *testing.T) {
	dials := 0
	arrivals := make(chan [2]uint64, 1)
	m := NewMux(testMuxConfig(func() (net.Conn, error) {
		dials++
		cc, sc := net.Pipe()
		switch dials {
		case 1:
			go func() {
				// Swallow the submission, then die without a verdict.
				br := bufio.NewReader(sc)
				_, _, _ = wire.ReadFrame(br)
				sc.Close()
			}()
		default:
			peer := &muxPeer{conn: sc}
			go peer.incoming(t, arrivals)
			go func() {
				for a := range arrivals {
					peer.reply(t, uint32(a[0]), wire.Committed{Txn: int64(a[1])})
				}
			}()
		}
		return cc, nil
	}))
	defer m.Close()

	res, err := m.Run(context.Background(), numberedProgram(t, 0))
	if err != nil {
		t.Fatal(err)
	}
	if res.Attempts != 2 {
		t.Errorf("attempts = %d, want 2", res.Attempts)
	}
	if dials != 2 {
		t.Errorf("dials = %d, want 2", dials)
	}
}

// TestMuxCloseFailsPending closes the Mux with a request in flight: the
// blocked RunOnce must fail promptly instead of hanging on its verdict.
func TestMuxCloseFailsPending(t *testing.T) {
	started := make(chan struct{})
	m := NewMux(testMuxConfig(func() (net.Conn, error) {
		cc, sc := net.Pipe()
		go func() {
			br := bufio.NewReader(sc)
			_, _, _ = wire.ReadFrame(br) // swallow the submission, never reply
			close(started)
			for { // keep the conn open until the client closes it
				if _, _, err := wire.ReadFrame(br); err != nil {
					return
				}
			}
		}()
		return cc, nil
	}))

	errCh := make(chan error, 1)
	go func() {
		_, err := m.RunOnce(numberedProgram(t, 0))
		errCh <- err
	}()
	<-started
	if err := m.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	select {
	case err := <-errCh:
		if err == nil {
			t.Fatal("pending RunOnce returned nil after Close")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("pending RunOnce still blocked after Close")
	}
	if _, err := m.RunOnce(numberedProgram(t, 1)); !errors.Is(err, errMuxClosed) {
		t.Errorf("RunOnce after Close = %v, want errMuxClosed", err)
	}
}
