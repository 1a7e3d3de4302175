package wire

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"io"
	"reflect"
	"testing"

	"partialrollback/internal/sim"
	"partialrollback/internal/txn"
	"partialrollback/internal/value"
)

// Frames in the retired untagged framings, built by hand: a v1
// exclusive Lock on "e0" and a v2 BeginProgram "P" with no locals or
// ops. Nothing may decode them any more.
var (
	v1LockFrame    = []byte{0, 0, 0, 6, 1, 2, 1, 2, 'e', '0'}
	v2ProgramFrame = []byte{0, 0, 0, 6, 2, byte(TBeginProgram), 1, 'P', 0, 0}
)

// roundTrip encodes m on stream 1, reads it back through ReadFrame, and
// checks the byte accounting and the stream tag.
func roundTrip(t *testing.T, m Msg) Msg {
	t.Helper()
	frame, err := EncodeTagged(1, m)
	if err != nil {
		t.Fatalf("encode %T: %v", m, err)
	}
	f, n, err := ReadFrame(bytes.NewReader(frame))
	if err != nil {
		t.Fatalf("read %T: %v", m, err)
	}
	if n != len(frame) {
		t.Fatalf("read %T consumed %d bytes, wrote %d", m, n, len(frame))
	}
	if f.Stream != 1 {
		t.Fatalf("read %T on stream %d, want 1", m, f.Stream)
	}
	return f.Msg
}

func TestRoundTripAllMessages(t *testing.T) {
	for _, m := range taggableMsgs() {
		got := roundTrip(t, m)
		if !reflect.DeepEqual(got, m) {
			t.Errorf("round trip %T: got %#v, want %#v", m, got, m)
		}
	}
}

// mixProgram uses every op kind: shared and exclusive locks, reads, a
// compute, the §5 last-lock declaration, a write, an unlock and commit.
func mixProgram() *txn.Program {
	return txn.NewProgram("mix").
		Local("x", 2).Local("y", 0).
		LockS("e0").Read("e0", "x").
		LockX("e1").Read("e1", "y").
		Compute("y", value.Max(value.L("x"), value.L("y"))).
		DeclareLastLock().
		Write("e1", value.Add(value.L("y"), value.C(1))).
		Unlock("e1").
		MustBuild()
}

// TestProgramRoundTrip pins a program using every op kind to its exact
// frame bytes on stream 5 — the op tags and field layout of the retired
// v2 body, after the stream tag — and decodes those bytes back to the
// same program.
func TestProgramRoundTrip(t *testing.T) {
	const golden = "00000041" + "03" + "05" + "0a036d697802017804017900090200026530" +
		"040265300178020102653104026531017906017902060101780101790705026531" +
		"020001017900020302653108"
	p := mixProgram()
	bp, err := ProgramFrame(p)
	if err != nil {
		t.Fatal(err)
	}
	frame, err := EncodeTagged(5, bp)
	if err != nil {
		t.Fatal(err)
	}
	if got := hex.EncodeToString(frame); got != golden {
		t.Fatalf("program frame bytes changed:\n got %s\nwant %s", got, golden)
	}
	f, err := DecodeFrame(frame[4:])
	if err != nil {
		t.Fatal(err)
	}
	got, err := f.Msg.(BeginProgram).Program()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, p) {
		t.Errorf("program round trip mismatch:\n got %v\nwant %v", got, p)
	}
}

// TestProgramFrameRoundTrip pins the submission path end to end:
// ProgramFrame → encode → decode → Program must reproduce every program.
func TestProgramFrameRoundTrip(t *testing.T) {
	progs := []*txn.Program{sim.TransferProgram("xfer", "e0", "e1", 5, 3), mixProgram()}
	progs = append(progs, sim.Generate(sim.GenConfig{Txns: 6, Seed: 11, Shape: sim.Mixed, SharedProb: 0.3}).Programs...)
	for _, p := range progs {
		frame, err := ProgramFrame(p)
		if err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
		got := roundTrip(t, frame)
		bp, ok := got.(BeginProgram)
		if !ok {
			t.Fatalf("%s: round trip returned %T", p.Name, got)
		}
		if !reflect.DeepEqual(bp, frame) {
			t.Errorf("%s: frame round trip mismatch:\n got %#v\nwant %#v", p.Name, bp, frame)
		}
		rebuilt, err := bp.Program()
		if err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
		if !reflect.DeepEqual(rebuilt, p) {
			t.Errorf("%s: program mismatch:\n got %v\nwant %v", p.Name, rebuilt, p)
		}
	}
}

// TestVersionNegotiation pins the one rule left: only Version3 frames
// decode. The retired v1 and v2 framings, and unknown versions, are
// protocol errors.
func TestVersionNegotiation(t *testing.T) {
	for name, payload := range map[string][]byte{
		"v1 lock":       v1LockFrame[4:],
		"v2 program":    v2ProgramFrame[4:],
		"version 9":     append([]byte{9}, mustTagged(t, 1, Stats{})[1:]...),
		"version 0":     {0, 1, byte(TStats)},
		"bare version1": {1},
	} {
		if _, err := DecodeFrame(payload); !errors.Is(err, ErrProtocol) {
			t.Errorf("%s: got %v, want ErrProtocol", name, err)
		}
	}
	if _, err := DecodeFrame(mustTagged(t, 1, Stats{})); err != nil {
		t.Fatalf("v3 frame rejected: %v", err)
	}
}

// TestBeginProgramRejectsInvalid: Program() enforces the wire-level
// rules — no duplicate local, at most MaxOps operations — on frames
// that decode cleanly. The §2 static rules are the engine's: a program
// that breaks one passes Program() and is rejected at Register (see
// internal/server's TestBadProgramKeepsSession).
func TestBeginProgramRejectsInvalid(t *testing.T) {
	dup := BeginProgram{Name: "dup", Locals: []LocalDecl{{"x", 0}, {"x", 1}}}
	got := roundTrip(t, dup) // stays protocol-valid on the wire
	_, err := got.(BeginProgram).Program()
	if want := `txn dup: local "x" declared twice`; err == nil || err.Error() != want {
		t.Errorf("dup: err = %v, want %q", err, want)
	}

	// Over MaxOps cannot be decoded (the decoder bounds the op count), so
	// the message is built directly.
	big := BeginProgram{Name: "big", Ops: make([]txn.Op, MaxOps+1)}
	if _, err := big.Program(); !errors.Is(err, ErrProtocol) {
		t.Errorf("over MaxOps: err = %v, want ErrProtocol", err)
	}

	// A §2 violation is not a wire error.
	mid := BeginProgram{Name: "mid", Ops: []txn.Op{{Kind: txn.OpCommit}, {Kind: txn.OpLockS, Entity: "e0"}}}
	if _, err := roundTrip(t, mid).(BeginProgram).Program(); err != nil {
		t.Errorf("mid: Program() = %v, want the engine to judge it", err)
	}
}

// TestAppendMsgBatches pins the batching encoder as the server uses it
// for replies: frames of different types and streams, including a
// connection-level Error on ConnStream, appended to one buffer must
// byte-match their individual encodings and decode as a stream.
func TestAppendMsgBatches(t *testing.T) {
	frames := []Frame{
		{Stream: 4, Msg: Committed{Txn: 1, Locals: []LocalDecl{{"a", 9}}}},
		{Stream: 2, Msg: StatsReply{Counters: []Counter{{"grants", 2}}}},
		{Stream: ConnStream, Msg: Error{Code: CodeBusy, Msg: "full"}},
	}
	var batch, concat []byte
	for _, f := range frames {
		var err error
		if batch, err = AppendTagged(batch, f.Stream, f.Msg); err != nil {
			t.Fatal(err)
		}
		frame, err := EncodeTagged(f.Stream, f.Msg)
		if err != nil {
			t.Fatal(err)
		}
		concat = append(concat, frame...)
	}
	if !bytes.Equal(batch, concat) {
		t.Fatalf("batched encoding diverges from per-frame encoding")
	}
	r := bytes.NewReader(batch)
	for i, want := range frames {
		got, _, err := ReadFrame(r)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("frame %d: got %#v, want %#v", i, got, want)
		}
	}
	if r.Len() != 0 {
		t.Fatalf("%d trailing bytes after batch", r.Len())
	}
}

// TestReadMsgErrors (named for the retired stream reader) drives ReadFrame
// and DecodeFrame through every framing and decode failure.
func TestReadMsgErrors(t *testing.T) {
	valid, err := EncodeTagged(1, Error{Code: CodeBusy, Msg: "full"})
	if err != nil {
		t.Fatal(err)
	}

	t.Run("truncated header", func(t *testing.T) {
		_, _, err := ReadFrame(bytes.NewReader(valid[:3]))
		if err == nil {
			t.Error("want error")
		}
	})
	t.Run("truncated payload", func(t *testing.T) {
		_, _, err := ReadFrame(bytes.NewReader(valid[:len(valid)-2]))
		if !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Errorf("got %v, want unexpected EOF", err)
		}
	})
	t.Run("oversize frame", func(t *testing.T) {
		var hdr [4]byte
		binary.BigEndian.PutUint32(hdr[:], MaxFrame+1)
		_, _, err := ReadFrame(bytes.NewReader(hdr[:]))
		if !errors.Is(err, ErrProtocol) {
			t.Errorf("got %v, want ErrProtocol", err)
		}
	})
	t.Run("bad version", func(t *testing.T) {
		frame := append([]byte(nil), valid...)
		frame[4] = Version3 + 1
		_, _, err := ReadFrame(bytes.NewReader(frame))
		if !errors.Is(err, ErrProtocol) {
			t.Errorf("got %v, want ErrProtocol", err)
		}
	})
	t.Run("unknown type", func(t *testing.T) {
		frame := append([]byte(nil), valid...)
		frame[6] = 0xEE
		_, _, err := ReadFrame(bytes.NewReader(frame))
		if !errors.Is(err, ErrProtocol) {
			t.Errorf("got %v, want ErrProtocol", err)
		}
	})
	t.Run("trailing bytes", func(t *testing.T) {
		frame := append([]byte(nil), valid...)
		frame = append(frame, 0x01)
		binary.BigEndian.PutUint32(frame[:4], uint32(len(frame)-4))
		_, _, err := ReadFrame(bytes.NewReader(frame))
		if !errors.Is(err, ErrProtocol) {
			t.Errorf("got %v, want ErrProtocol", err)
		}
	})
	t.Run("truncated body", func(t *testing.T) {
		// Claimed string longer than the remaining payload.
		payload := []byte{Version3, 1, byte(TError), byte(CodeBusy), 0x20, 'a'}
		if _, err := DecodeFrame(payload); !errors.Is(err, ErrProtocol) {
			t.Errorf("got %v, want ErrProtocol", err)
		}
	})
}

func TestExprLimits(t *testing.T) {
	deep := value.Expr(value.C(1))
	for i := 0; i < MaxExprDepth+2; i++ {
		deep = value.Add(deep, value.C(1))
	}
	bp := BeginProgram{Name: "deep", Locals: []LocalDecl{{"x", 0}},
		Ops: []txn.Op{{Kind: txn.OpCompute, Local: "x", Expr: deep}}}
	if _, err := DecodeFrame(mustTagged(t, 1, bp)); !errors.Is(err, ErrProtocol) {
		t.Errorf("deep expression: got %v, want ErrProtocol", err)
	}
}

func TestRetryable(t *testing.T) {
	for code, want := range map[ErrCode]bool{
		CodeBadRequest: false, CodeRolledBack: true, CodeShutdown: true,
		CodeBusy: true, CodeInternal: false,
	} {
		if got := code.Retryable(); got != want {
			t.Errorf("%v retryable = %v, want %v", code, got, want)
		}
	}
}
