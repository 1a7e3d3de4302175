package wire

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"reflect"
	"testing"

	"partialrollback/internal/txn"
	"partialrollback/internal/value"
)

// taggableMsgs is one instance of every message type.
func taggableMsgs() []Msg {
	return []Msg{
		BeginProgram{Name: "P"},
		BeginProgram{
			Name:   "xfer",
			Locals: []LocalDecl{{"t", 0}},
			Ops: []txn.Op{
				{Kind: txn.OpLockX, Entity: "e0"},
				{Kind: txn.OpRead, Entity: "e0", Local: "t"},
				{Kind: txn.OpCompute, Local: "t", Expr: value.Add(value.L("t"), value.C(1))},
				{Kind: txn.OpWrite, Entity: "e0", Expr: value.L("t")},
				{Kind: txn.OpCommit},
			},
		},
		Stats{},
		Committed{Txn: 42, Locals: []LocalDecl{{"a", 9}}, Stats: TxnOutcome{
			OpsExecuted: 10, OpsLost: 3, Rollbacks: 2, Restarts: 1, Waits: 4}},
		Error{Code: CodeBusy, Msg: "full"},
		StatsReply{Counters: []Counter{{"grants", 12}, {"waits", -1}}},
	}
}

func TestTaggedRoundTrip(t *testing.T) {
	streams := []uint32{0, 1, 5, 1 << 20, MaxStream}
	for _, m := range taggableMsgs() {
		for _, stream := range streams {
			frame, err := EncodeTagged(stream, m)
			if err != nil {
				t.Fatalf("encode %T stream %d: %v", m, stream, err)
			}
			f, err := DecodeFrame(frame[4:])
			if err != nil {
				t.Fatalf("decode %T stream %d: %v", m, stream, err)
			}
			if f.Stream != stream {
				t.Fatalf("%T: got stream %d, want %d", m, f.Stream, stream)
			}
			if !reflect.DeepEqual(f.Msg, m) {
				t.Fatalf("%T round trip: got %#v, want %#v", m, f.Msg, m)
			}
		}
	}
}

// TestTaggedBodyMatchesUntagged pins the v3 layout: after the version
// byte and stream tag, every message body is byte-identical to the one
// the retired untagged v1/v2 encoder produced (the golden bodies below
// were captured from it).
func TestTaggedBodyMatchesUntagged(t *testing.T) {
	golden := []string{
		"0a01500000",
		"0a047866657201017400050201026530040265300174060174020001017400020502653001017408",
		"09",
		"1054010161121406040208",
		"12040466756c6c",
		"1302066772616e74731805776169747301",
	}
	for i, m := range taggableMsgs() {
		tagged, err := EncodeTagged(5, m)
		if err != nil {
			t.Fatalf("encode %T: %v", m, err)
		}
		// tagged: [len][3][0x05][body...].
		if got := hex.EncodeToString(tagged[6:]); got != golden[i] {
			t.Fatalf("%T: body %s, want %s", m, got, golden[i])
		}
		if tagged[4] != Version3 || tagged[5] != 5 {
			t.Fatalf("%T: prefix %x, want version 3 stream 5", m, tagged[4:6])
		}
	}
}

// TestTaggedRejectsUntaggable: the retired per-operation messages
// (type bytes 1-8) could never be stream-tagged and no longer exist,
// and the retired rollback notification (type byte 17) is never sent,
// so a frame carrying one of their type bytes is a protocol error on
// both decode paths.
func TestTaggedRejectsUntaggable(t *testing.T) {
	var payloads [][]byte
	for typ := byte(1); typ <= 8; typ++ {
		payloads = append(payloads, []byte{Version3, 1, typ, 0, 1, 'e'})
	}
	// A complete body of the retired notification: Txn 1, Lost 4.
	payloads = append(payloads, []byte{Version3, 1, 17, 2, 0, 0, 0, 8})
	for _, payload := range payloads {
		typ := payload[2]
		if _, err := DecodeFrame(payload); !errors.Is(err, ErrProtocol) {
			t.Errorf("type byte %d: DecodeFrame got %v, want ErrProtocol", typ, err)
		}
		frame := append(binary.BigEndian.AppendUint32(nil, uint32(len(payload))), payload...)
		var d Decoder
		if _, _, err := d.ReadRequest(bytes.NewReader(frame)); !errors.Is(err, ErrProtocol) {
			t.Errorf("type byte %d: ReadRequest got %v, want ErrProtocol", typ, err)
		}
	}
}

func TestDecodeFrameErrors(t *testing.T) {
	cases := []struct {
		name    string
		payload []byte
	}{
		{"empty", nil},
		{"truncated stream tag", []byte{Version3, 0xFF}},
		{"missing type", []byte{Version3, 0x01}},
		{"stream overflow", append([]byte{Version3, 0x80, 0x80, 0x80, 0x80, 0x10}, byte(TStats))},
		{"retired op type", []byte{Version3, 0x01, 2, 0, 1, 'e'}},
		{"trailing garbage", append(mustTagged(t, 1, Stats{}), 0xAA)},
	}
	for _, tc := range cases {
		if _, err := DecodeFrame(tc.payload); !errors.Is(err, ErrProtocol) {
			t.Errorf("%s: got %v, want ErrProtocol", tc.name, err)
		}
	}
}

// mustTagged returns the payload (no length prefix) of a tagged frame.
func mustTagged(t *testing.T, stream uint32, m Msg) []byte {
	t.Helper()
	frame, err := EncodeTagged(stream, m)
	if err != nil {
		t.Fatal(err)
	}
	return frame[4:]
}

// TestReadFrameMixedVersions drives ReadFrame over a stream that puts a
// v1 and a v2 frame ahead of two v3 frames — what a server sees from a
// pre-v3 peer. The retired frames are rejected, but each rejection
// consumes exactly that frame, so the framing stays aligned for the
// frames behind it.
func TestReadFrameMixedVersions(t *testing.T) {
	stream := append(append([]byte{}, v1LockFrame...), v2ProgramFrame...)
	var err error
	if stream, err = AppendTagged(stream, 7, Stats{}); err != nil {
		t.Fatal(err)
	}
	if stream, err = AppendTagged(stream, 3, Committed{Txn: 1}); err != nil {
		t.Fatal(err)
	}
	r := bytes.NewReader(stream)
	read := 0
	for i, legacy := range [][]byte{v1LockFrame, v2ProgramFrame} {
		_, n, err := ReadFrame(r)
		if !errors.Is(err, ErrProtocol) {
			t.Fatalf("legacy frame %d: got %v, want ErrProtocol", i, err)
		}
		if n != len(legacy) {
			t.Fatalf("legacy frame %d: consumed %d bytes, want %d", i, n, len(legacy))
		}
		read += n
	}
	for i, w := range []Frame{{Stream: 7, Msg: Stats{}}, {Stream: 3, Msg: Committed{Txn: 1}}} {
		f, n, err := ReadFrame(r)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		read += n
		if !reflect.DeepEqual(f, w) {
			t.Fatalf("frame %d: got %#v, want %#v", i, f, w)
		}
	}
	if read != len(stream) {
		t.Fatalf("consumed %d bytes of %d", read, len(stream))
	}
	if _, _, err := ReadFrame(r); err == nil {
		t.Fatal("expected EOF after last frame")
	}
}

// TestAppendTaggedBatches pins the batching encoder: many frames
// coalesced into one buffer decode back frame by frame.
func TestAppendTaggedBatches(t *testing.T) {
	var buf []byte
	var err error
	for stream := uint32(1); stream <= 40; stream++ {
		buf, err = AppendTagged(buf, stream, Committed{Txn: int64(stream)})
		if err != nil {
			t.Fatal(err)
		}
	}
	r := bytes.NewReader(buf)
	for stream := uint32(1); stream <= 40; stream++ {
		f, _, err := ReadFrame(r)
		if err != nil {
			t.Fatalf("stream %d: %v", stream, err)
		}
		if f.Stream != stream {
			t.Fatalf("got stream %d, want %d", f.Stream, stream)
		}
		if c, ok := f.Msg.(Committed); !ok || c.Txn != int64(stream) {
			t.Fatalf("stream %d: got %#v", stream, f.Msg)
		}
	}
	if r.Len() != 0 {
		t.Fatalf("%d bytes left over", r.Len())
	}
}
