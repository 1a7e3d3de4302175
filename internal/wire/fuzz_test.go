package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"reflect"
	"testing"

	"partialrollback/internal/txn"
	"partialrollback/internal/value"
)

// legacyPayload encodes m in a retired untagged framing: version byte,
// then the message body with no stream tag.
func legacyPayload(f *testing.F, ver byte, m Msg) []byte {
	b, err := appendMsgBody([]byte{ver}, m)
	if err != nil {
		f.Fatal(err)
	}
	return b
}

// legacyFrame is legacyPayload behind its 4-byte length prefix.
func legacyFrame(f *testing.F, ver byte, m Msg) []byte {
	p := legacyPayload(f, ver, m)
	return append(binary.BigEndian.AppendUint32(nil, uint32(len(p))), p...)
}

// checkDecodeFrame is the decoder property: DecodeFrame must never
// panic or over-allocate; anything it accepts must be a version-3 frame
// that re-encodes and re-decodes to the same frame (the stream tag
// round-trips alongside the message).
func checkDecodeFrame(t *testing.T, payload []byte) {
	fr, err := DecodeFrame(payload)
	if err != nil {
		return
	}
	if payload[0] != Version3 {
		t.Fatalf("accepted a version-%d payload: %#v", payload[0], fr)
	}
	frame, err := EncodeTagged(fr.Stream, fr.Msg)
	if err != nil {
		t.Fatalf("decoded frame failed to encode: %#v: %v", fr, err)
	}
	fr2, err := DecodeFrame(frame[4:])
	if err != nil {
		t.Fatalf("re-decode failed: %#v: %v", fr, err)
	}
	if !reflect.DeepEqual(fr, fr2) {
		t.Fatalf("re-decode mismatch: %#v != %#v", fr, fr2)
	}
}

// FuzzDecode (named for the retired v1/v2 decoder) starts DecodeFrame
// from payloads of the untagged framings: one of each per-operation
// message, the replies under v1, and v2 programs including a truncated
// op list, a v1 type under the v2 byte and a cut-off tag. Every seed
// must be rejected; whatever the fuzzer mutates them into must satisfy
// checkDecodeFrame.
func FuzzDecode(f *testing.F) {
	f.Add([]byte{1, 1, 2, 'T', '1', 1, 1, 'a', 2}) // Begin T1 {a=1}
	f.Add([]byte{1, 2, 1, 2, 'e', '0'})            // Lock e0 exclusive
	f.Add([]byte{1, 3, 2, 'e', '0'})               // Unlock e0
	f.Add([]byte{1, 4, 2, 'e', '1', 1, 'a'})       // Read e1 -> a
	f.Add([]byte{1, 8})                            // Commit
	f.Add(legacyPayload(f, 1, Committed{Txn: 3, Stats: TxnOutcome{OpsExecuted: 5}}))
	f.Add([]byte{1, 17, 2, 0, 0, 0, 8}) // the retired rollback notification
	f.Add(legacyPayload(f, 1, Error{Code: CodeBusy, Msg: "full"}))
	f.Add(legacyPayload(f, 1, StatsReply{Counters: []Counter{{"grants", 2}}}))
	f.Add(legacyPayload(f, 2, BeginProgram{Name: "P"}))
	f.Add(legacyPayload(f, 2, BeginProgram{
		Name:   "xfer",
		Locals: []LocalDecl{{"t", 0}},
		Ops: []txn.Op{
			{Kind: txn.OpLockX, Entity: "e0"},
			{Kind: txn.OpRead, Entity: "e0", Local: "t"},
			{Kind: txn.OpCompute, Local: "t", Expr: value.Add(value.L("t"), value.C(1))},
			{Kind: txn.OpDeclareLastLock},
			{Kind: txn.OpWrite, Entity: "e0", Expr: value.L("t")},
			{Kind: txn.OpUnlock, Entity: "e0"},
			{Kind: txn.OpCommit},
		},
	}))
	f.Add([]byte{1, 5, 1, 'e', 2, 0, 1, 0, 1})             // Write e = 1+1
	f.Add([]byte{2, byte(TBeginProgram), 1, 'P', 0, 5, 8}) // claims 5 ops
	f.Add([]byte{2, 2, 0, 'e'})                            // Lock under v2
	f.Add([]byte{2, byte(TBeginProgram), 1, 'P', 0, 1})    // op tag missing
	f.Fuzz(checkDecodeFrame)
}

// FuzzDecodeFrame throws arbitrary payloads at the frame decoder,
// seeded with v3 frames, a few retired untagged payloads, and hand-built
// v3 edges; see checkDecodeFrame for the property.
func FuzzDecodeFrame(f *testing.F) {
	tagged := []struct {
		stream uint32
		m      Msg
	}{
		{5, BeginProgram{Name: "P"}},
		{1, BeginProgram{
			Name:   "xfer",
			Locals: []LocalDecl{{"t", 0}},
			Ops: []txn.Op{
				{Kind: txn.OpLockX, Entity: "e0"},
				{Kind: txn.OpRead, Entity: "e0", Local: "t"},
				{Kind: txn.OpCompute, Local: "t", Expr: value.Add(value.L("t"), value.C(1))},
				{Kind: txn.OpWrite, Entity: "e0", Expr: value.L("t")},
				{Kind: txn.OpCommit},
			},
		}},
		{9, Stats{}},
		{7, Committed{Txn: 3, Stats: TxnOutcome{OpsExecuted: 5}}},
		{3, Error{Code: CodeBusy, Msg: "full"}},
		{MaxStream, StatsReply{Counters: []Counter{{"grants", 2}}}},
	}
	for _, s := range tagged {
		frame, err := EncodeTagged(s.stream, s.m)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(frame[4:])
	}
	// Untagged v1 Lock, v1 Committed and v2 BeginProgram payloads.
	f.Add([]byte{1, 2, 0, 2, 'e', '0'})
	f.Add(legacyPayload(f, 1, Committed{Txn: 3}))
	f.Add(legacyPayload(f, 2, BeginProgram{Name: "P"}))
	// Hand-built v3 edges: a truncated stream varint, a stream tag past
	// MaxStream, a retired per-operation type and the retired rollback
	// notification (type 17) under a v3 version byte.
	f.Add([]byte{Version3, 0xFF})
	f.Add([]byte{Version3, 0x80, 0x80, 0x80, 0x80, 0x10, byte(TStats)})
	f.Add([]byte{Version3, 0x01, 2, 0, 1, 'e'})
	f.Add([]byte{Version3, 0x02, 17, 2, 0, 0, 0, 8})
	f.Fuzz(checkDecodeFrame)
}

// FuzzReadMsg (named for the retired stream reader) exercises ReadFrame
// with arbitrary streams, including short reads, garbage lengths and
// retired v1/v2 frames. A protocol error consumes only its own frame,
// so reading carries on past it until the stream runs out; the bytes
// accounted for may never exceed the stream.
func FuzzReadMsg(f *testing.F) {
	lock := []byte{0, 0, 0, 6, 1, 2, 0, 2, 'e', '0'}
	f.Add(lock)
	f.Add(append(append([]byte{}, lock...), lock...))
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF})
	v2 := legacyFrame(f, 2, BeginProgram{Name: "P", Ops: []txn.Op{
		{Kind: txn.OpLockS, Entity: "e0"}, {Kind: txn.OpCommit}}})
	f.Add(v2)
	f.Add(append(append([]byte{}, lock...), v2...)) // mixed v1+v2 stream
	f.Fuzz(func(t *testing.T, stream []byte) {
		r := bytes.NewReader(stream)
		read := 0
		for {
			_, n, err := ReadFrame(r)
			read += n
			if read > len(stream) {
				t.Fatalf("accounted %d bytes of a %d-byte stream", read, len(stream))
			}
			if err != nil && !errors.Is(err, ErrProtocol) {
				return
			}
		}
	})
}
