// Package wire defines the binary protocol spoken between the network
// transaction service (internal/server) and its clients
// (internal/client).
//
// There is one framing. Every frame is a 4-byte big-endian payload
// length followed by the payload: the version byte (Version3), a stream
// ID as a uvarint, then the message — a type byte and a body encoded
// with varints and length-prefixed strings. Streams let one connection
// interleave many concurrent transactions: the server tags each reply
// with the stream that submitted the program.
//
// A transaction travels whole, as one BeginProgram frame carrying its
// name, local declarations and complete operation list — the engine
// analyses the full program at registration anyway (§2's lock states,
// §5's declared last lock). The server answers on the same stream with
// exactly one Committed or Error frame. Rollback is internal to the
// engine, which re-executes the transaction; the only rollback a client
// sees is an abort at the request deadline or at shutdown, reported as
// a retryable Error that ends the stream. Stats is answered with a
// StatsReply counter snapshot on its stream.
//
// Stream 0 (ConnStream) is reserved for connection-level errors: a
// connection refused at accept (CodeBusy) or a frame that fails to
// decode is answered with an Error on stream 0, and the server then
// closes the connection. Clients number their streams from 1. Frames
// with any other version byte — including the retired untagged v1
// (one frame per operation) and v2 (untagged BeginProgram) framings —
// fail to decode.
//
// Everything decoded from the network is bounds-checked: frame size,
// string length, op and local counts, and expression size/depth all
// have hard limits, so a malicious or corrupted peer cannot force large
// allocations or deep recursion (see the fuzz tests).
//
// Each connection decodes through one Decoder, which reuses its payload
// buffer. A program that locks five entities and pads every lock
// interval with forty identical computes carries a handful of distinct
// names and ops in hundreds of ops, and both decode paths exploit it
// within one frame. The node's path (ReadRequest) decodes a
// BeginProgram straight into the engine's executable form, a txn.Exec:
// each name is looked up once per occurrence in a per-frame table and
// becomes an entity index or a local slot, expressions are compiled to
// slot code from the frame bytes, and an op whose bytes repeat its
// predecessor's is copied, not decoded again. The reference path
// (DecodeFrame/ReadFrame, then BeginProgram.Program) builds strings and
// expression trees, sharing each repeated name and each repeated op
// expression within the frame; sharing is safe because every string is
// copied out of the payload and the engine only reads expressions. The
// two paths apply the same checks through the same functions (header,
// count, rawOp, exprBytes), in the same order, so every error is the
// one a fresh DecodeFrame reports.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sort"

	"partialrollback/internal/txn"
	"partialrollback/internal/value"
)

// Version3 is the version byte every frame carries. Versions 1 and 2
// were the retired untagged framings; their bodies live on unchanged
// after the stream tag.
const Version3 byte = 3

// ConnStream is the stream reserved for connection-level errors. No
// transaction or Stats request travels on it.
const ConnStream uint32 = 0

// Limits enforced during decoding.
const (
	// MaxFrame is the largest accepted payload, in bytes.
	MaxFrame = 1 << 20
	// MaxStream bounds stream IDs (fits uint32 with room to spare; a
	// malicious peer cannot force sparse-map blowups past it).
	MaxStream = 1<<32 - 1
	// MaxString bounds every decoded string (names, error messages).
	MaxString = 1 << 10
	// MaxLocals bounds local declarations per BeginProgram/Committed.
	MaxLocals = 1 << 10
	// MaxOps bounds operations per transaction program.
	MaxOps = 1 << 13
	// MaxExprNodes bounds nodes per expression.
	MaxExprNodes = 1 << 9
	// MaxExprDepth bounds expression nesting.
	MaxExprDepth = 64
	// MaxCounters bounds counters per StatsReply.
	MaxCounters = 1 << 10
)

// Type identifies a message.
type Type byte

// Message types. 9-15 are client->server, 16+ are server->client; 1-8
// were the retired per-operation messages and survive only as the op
// tags inside a BeginProgram body. 17 was the retired rollback
// notification; it is never reused, so a peer that sends it fails to
// decode.
const (
	TStats        Type = 9
	TBeginProgram Type = 10
	TCommitted    Type = 16
	TError        Type = 18
	TStatsReply   Type = 19
)

// Operation tags inside a BeginProgram body: the type bytes of the
// retired per-operation messages, kept so the body encoding is
// unchanged.
const (
	opLock     byte = 2
	opUnlock   byte = 3
	opRead     byte = 4
	opWrite    byte = 5
	opCompute  byte = 6
	opLastLock byte = 7
	opCommit   byte = 8
)

func (t Type) String() string {
	switch t {
	case TStats:
		return "stats"
	case TBeginProgram:
		return "begin-program"
	case TCommitted:
		return "committed"
	case TError:
		return "error"
	case TStatsReply:
		return "stats-reply"
	default:
		return fmt.Sprintf("Type(%d)", int(t))
	}
}

// ErrCode classifies an Error frame.
type ErrCode byte

// Error codes. Retryable reports which ones a client may retry.
const (
	// CodeBadRequest: malformed frame, invalid program, or a message the
	// receiver does not accept. Not retryable.
	CodeBadRequest ErrCode = 1
	// CodeRolledBack: the server rolled the transaction back to its
	// initial state and discarded it (request deadline expired, or the
	// engine could not run it to commit). Retryable: re-running the
	// program is exactly the §2 re-execution, performed by the client.
	CodeRolledBack ErrCode = 2
	// CodeShutdown: the server is draining; the transaction was rolled
	// back or refused. Retryable (possibly against a restarted server).
	CodeShutdown ErrCode = 3
	// CodeBusy: the session limit and accept backlog are full. Retryable.
	CodeBusy ErrCode = 4
	// CodeInternal: unexpected engine failure. Not retryable.
	CodeInternal ErrCode = 5
)

func (c ErrCode) String() string {
	switch c {
	case CodeBadRequest:
		return "bad-request"
	case CodeRolledBack:
		return "rolled-back"
	case CodeShutdown:
		return "shutdown"
	case CodeBusy:
		return "busy"
	case CodeInternal:
		return "internal"
	default:
		return fmt.Sprintf("ErrCode(%d)", int(c))
	}
}

// Retryable reports whether a client may usefully retry after this code.
func (c ErrCode) Retryable() bool {
	return c == CodeRolledBack || c == CodeShutdown || c == CodeBusy
}

// Msg is one protocol message.
type Msg interface {
	Type() Type
}

// LocalDecl declares one local variable and its value.
type LocalDecl struct {
	Name string
	Val  int64
}

// Counter is one named counter in a StatsReply.
type Counter struct {
	Name string
	Val  int64
}

// BeginProgram submits a whole transaction: name, local declarations
// and the complete operation list, which the server registers and
// drives to commit. Each op is a one-byte tag (opLock, ...) followed by
// its fields.
type BeginProgram struct {
	Name   string
	Locals []LocalDecl
	Ops    []txn.Op
}

// Stats requests a counter snapshot.
type Stats struct{}

// TxnOutcome summarizes one executed transaction.
type TxnOutcome struct {
	OpsExecuted int64
	OpsLost     int64
	Rollbacks   int64
	Restarts    int64
	Waits       int64
}

// Committed reports a successful transaction: its server-side ID, final
// local values, and execution counters.
type Committed struct {
	Txn    int64
	Locals []LocalDecl
	Stats  TxnOutcome
}

// Error reports a failed request.
type Error struct {
	Code ErrCode
	Msg  string
}

// StatsReply carries a counter snapshot.
type StatsReply struct{ Counters []Counter }

// Type implementations.

// Type implements Msg.
func (BeginProgram) Type() Type { return TBeginProgram }

// Type implements Msg.
func (Stats) Type() Type { return TStats }

// Type implements Msg.
func (Committed) Type() Type { return TCommitted }

// Type implements Msg.
func (Error) Type() Type { return TError }

// Type implements Msg.
func (StatsReply) Type() Type { return TStatsReply }

// ErrProtocol wraps every decode failure, so transports can distinguish
// protocol corruption from I/O errors.
var ErrProtocol = errors.New("wire: protocol error")

func protoErr(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrProtocol, fmt.Sprintf(format, args...))
}

// --- encoding primitives ---

func appendUvarint(b []byte, v uint64) []byte {
	return binary.AppendUvarint(b, v)
}

func appendVarint(b []byte, v int64) []byte {
	return binary.AppendVarint(b, v)
}

func appendString(b []byte, s string) []byte {
	b = appendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

func appendExpr(b []byte, e value.Expr) ([]byte, error) {
	switch x := e.(type) {
	case value.Const:
		b = append(b, 0)
		return appendVarint(b, int64(x)), nil
	case value.Local:
		b = append(b, 1)
		return appendString(b, string(x)), nil
	case value.Binary:
		b = append(b, 2, byte(x.Op))
		b, err := appendExpr(b, x.L)
		if err != nil {
			return nil, err
		}
		return appendExpr(b, x.R)
	default:
		return nil, fmt.Errorf("wire: cannot encode expression type %T", e)
	}
}

// retainLimit bounds what a Decoder keeps between frames. After a
// larger payload it drops its payload buffer and memo maps instead of
// keeping them, so one MaxFrame frame does not pin a megabyte (and map
// buckets sized for it) for the rest of the connection.
const retainLimit = 64 << 10

// Decoder decodes frames. A long-lived Decoder (one per connection)
// reuses its payload buffer; within one frame it interns a program's
// names and gives ops with byte-identical expression encodings one
// shared tree, and it empties both memos after every frame, so nothing
// decoded survives into the next request (see the package doc). Its
// ReadRequest is the node's path: it decodes a BeginProgram straight
// into executable form, in scratch buffers it reuses across frames.
// The zero value is ready to use; a Decoder is not safe for concurrent
// use.
type Decoder struct {
	b     []byte                // the unread rest of the payload being decoded
	hdr   [4]byte               // ReadFrame's length prefix
	buf   []byte                // ReadFrame's payload buffer
	names map[string]string     // this frame's names, interned
	exprs map[string]value.Expr // this frame's op expressions by encoding
	x     execBuilder           // ReadRequest's program under construction
}

func (d *Decoder) uvarint() (uint64, error) {
	v, n := binary.Uvarint(d.b)
	if n <= 0 {
		return 0, protoErr("truncated varint")
	}
	d.b = d.b[n:]
	return v, nil
}

func (d *Decoder) varint() (int64, error) {
	v, n := binary.Varint(d.b)
	if n <= 0 {
		return 0, protoErr("truncated varint")
	}
	d.b = d.b[n:]
	return v, nil
}

func (d *Decoder) byte() (byte, error) {
	if len(d.b) == 0 {
		return 0, protoErr("truncated byte")
	}
	v := d.b[0]
	d.b = d.b[1:]
	return v, nil
}

// stringBytes consumes a length-prefixed string and returns its bytes,
// still inside the payload (never nil, even when empty).
func (d *Decoder) stringBytes() ([]byte, error) {
	n, err := d.uvarint()
	if err != nil {
		return nil, err
	}
	if n > MaxString {
		return nil, protoErr("string length %d exceeds %d", n, MaxString)
	}
	if uint64(len(d.b)) < n {
		return nil, protoErr("truncated string")
	}
	s := d.b[:n]
	d.b = d.b[n:]
	return s, nil
}

func (d *Decoder) string() (string, error) {
	b, err := d.stringBytes()
	return string(b), err
}

// name decodes an entity or local name, interned for the rest of the
// frame.
func (d *Decoder) name() (string, error) {
	b, err := d.stringBytes()
	if err != nil {
		return "", err
	}
	return d.intern(b), nil
}

// intern returns b as a string, one per distinct name in the frame.
func (d *Decoder) intern(b []byte) string {
	if s, ok := d.names[string(b)]; ok {
		return s
	}
	s := string(b)
	if d.names == nil {
		d.names = make(map[string]string)
	}
	d.names[s] = s
	return s
}

func (d *Decoder) expr(depth int, budget *int) (value.Expr, error) {
	if depth > MaxExprDepth {
		return nil, protoErr("expression deeper than %d", MaxExprDepth)
	}
	*budget--
	if *budget < 0 {
		return nil, protoErr("expression larger than %d nodes", MaxExprNodes)
	}
	tag, err := d.byte()
	if err != nil {
		return nil, err
	}
	switch tag {
	case 0:
		v, err := d.varint()
		if err != nil {
			return nil, err
		}
		return value.Const(v), nil
	case 1:
		s, err := d.name()
		if err != nil {
			return nil, err
		}
		return value.Local(s), nil
	case 2:
		op, err := d.byte()
		if err != nil {
			return nil, err
		}
		if value.BinOp(op) > value.OpMax {
			return nil, protoErr("unknown operator %d", op)
		}
		l, err := d.expr(depth+1, budget)
		if err != nil {
			return nil, err
		}
		r, err := d.expr(depth+1, budget)
		if err != nil {
			return nil, err
		}
		return value.Binary{Op: value.BinOp(op), L: l, R: r}, nil
	default:
		return nil, protoErr("unknown expression tag %d", tag)
	}
}

// exprLen returns the encoded length of the expression at the start of
// b without allocating. It applies exactly expr's limits (depth, node
// budget, tags, operators, string length, truncation): ok is false
// wherever expr would fail.
func exprLen(b []byte, depth int, budget *int) (n int, ok bool) {
	if depth > MaxExprDepth {
		return 0, false
	}
	*budget--
	if *budget < 0 || len(b) == 0 {
		return 0, false
	}
	switch b[0] {
	case 0:
		_, k := binary.Varint(b[1:])
		return 1 + k, k > 0
	case 1:
		l, k := binary.Uvarint(b[1:])
		if k <= 0 || l > MaxString || uint64(len(b)-1-k) < l {
			return 0, false
		}
		return 1 + k + int(l), true
	case 2:
		if len(b) < 2 || value.BinOp(b[1]) > value.OpMax {
			return 0, false
		}
		l, ok := exprLen(b[2:], depth+1, budget)
		if !ok {
			return 0, false
		}
		r, ok := exprLen(b[2+l:], depth+1, budget)
		return 2 + l + r, ok
	default:
		return 0, false
	}
}

// exprBytes consumes one operation's expression with its own
// MaxExprNodes budget and returns its encoding, checked against every
// expression limit: both decode paths take expressions from here.
func (d *Decoder) exprBytes() ([]byte, error) {
	budget := MaxExprNodes
	n, ok := exprLen(d.b, 0, &budget)
	if !ok {
		budget = MaxExprNodes
		if _, err := d.expr(0, &budget); err != nil {
			return nil, err // names the violation
		}
		return nil, protoErr("malformed expression")
	}
	enc := d.b[:n:n]
	d.b = d.b[n:]
	return enc, nil
}

// opExpr returns the tree an op expression encodes. An encoding already
// decoded in this frame yields the tree decoded then.
func (d *Decoder) opExpr(enc []byte) (value.Expr, error) {
	if e, hit := d.exprs[string(enc)]; hit {
		return e, nil
	}
	rest := d.b
	d.b = enc
	budget := MaxExprNodes
	e, err := d.expr(0, &budget)
	d.b = rest
	if err != nil {
		return nil, err
	}
	if d.exprs == nil {
		d.exprs = make(map[string]value.Expr)
	}
	d.exprs[string(enc)] = e
	return e, nil
}

// count decodes a list length and checks it against max.
func (d *Decoder) count(max int, what string) (int, error) {
	n, err := d.uvarint()
	if err != nil {
		return 0, err
	}
	if n > uint64(max) {
		return 0, protoErr("%d %s exceeds %d", n, what, max)
	}
	return int(n), nil
}

// locals decodes a local declaration list. A BeginProgram's names are
// interned, since its ops name them again; a Committed's are not.
func (d *Decoder) locals(max int, intern bool) ([]LocalDecl, error) {
	n, err := d.count(max, "locals")
	if err != nil || n == 0 {
		return nil, err
	}
	out := make([]LocalDecl, 0, n)
	for i := 0; i < n; i++ {
		var name string
		if intern {
			name, err = d.name()
		} else {
			name, err = d.string()
		}
		if err != nil {
			return nil, err
		}
		v, err := d.varint()
		if err != nil {
			return nil, err
		}
		out = append(out, LocalDecl{Name: name, Val: v})
	}
	return out, nil
}

// rawOp is one BeginProgram operation with its operands still encoded:
// each name and expression the kind carries, as payload bytes; nil for
// those it does not carry.
type rawOp struct {
	kind             txn.OpKind
	ent, local, expr []byte
}

// rawOp decodes one operation's tag and operands into r, applying
// every limit an operation is subject to: both decode paths read ops
// through it. The checks depend on the op's bytes alone.
func (d *Decoder) rawOp(r *rawOp) error {
	tag, err := d.byte()
	if err != nil {
		return err
	}
	*r = rawOp{}
	switch tag {
	case opLock:
		mode, err := d.byte()
		if err != nil {
			return err
		}
		if mode > 1 {
			return protoErr("unknown lock mode %d", mode)
		}
		r.kind = txn.OpLockS
		if mode == 1 {
			r.kind = txn.OpLockX
		}
		r.ent, err = d.stringBytes()
	case opUnlock:
		r.kind = txn.OpUnlock
		r.ent, err = d.stringBytes()
	case opRead:
		r.kind = txn.OpRead
		if r.ent, err = d.stringBytes(); err == nil {
			r.local, err = d.stringBytes()
		}
	case opWrite:
		r.kind = txn.OpWrite
		if r.ent, err = d.stringBytes(); err == nil {
			r.expr, err = d.exprBytes()
		}
	case opCompute:
		r.kind = txn.OpCompute
		if r.local, err = d.stringBytes(); err == nil {
			r.expr, err = d.exprBytes()
		}
	case opLastLock:
		r.kind = txn.OpDeclareLastLock
	case opCommit:
		r.kind = txn.OpCommit
	default:
		return protoErr("unknown op tag %d", tag)
	}
	return err
}

// ops decodes a BeginProgram operation list. Each expression gets its
// own MaxExprNodes budget, so the limits are per operation, not per
// program.
func (d *Decoder) ops(max int) ([]txn.Op, error) {
	n, err := d.count(max, "ops")
	if err != nil || n == 0 {
		return nil, err
	}
	out := make([]txn.Op, 0, n)
	var r rawOp
	for i := 0; i < n; i++ {
		if err := d.rawOp(&r); err != nil {
			return nil, err
		}
		op := txn.Op{Kind: r.kind}
		if r.ent != nil {
			op.Entity = d.intern(r.ent)
		}
		if r.local != nil {
			op.Local = d.intern(r.local)
		}
		if r.expr != nil {
			if op.Expr, err = d.opExpr(r.expr); err != nil {
				return nil, err
			}
		}
		out = append(out, op)
	}
	return out, nil
}

func (d *Decoder) done() error {
	if len(d.b) != 0 {
		return protoErr("%d trailing bytes", len(d.b))
	}
	return nil
}

// --- message codec ---

// Frame is one decoded frame: the stream it travels on and its message.
type Frame struct {
	Stream uint32
	Msg    Msg
}

// AppendTagged appends m's complete frame on stream (length prefix
// included) to dst and returns the extended slice, so a batching writer
// can encode many frames into one reused buffer and issue a single
// write.
func AppendTagged(dst []byte, stream uint32, m Msg) ([]byte, error) {
	start := len(dst)
	body := appendUvarint(append(dst, 0, 0, 0, 0, Version3), uint64(stream))
	body, err := appendMsgBody(body, m)
	if err != nil {
		return nil, err
	}
	return finishFrame(body, start)
}

// EncodeTagged serializes m into a complete frame on stream.
func EncodeTagged(stream uint32, m Msg) ([]byte, error) {
	return AppendTagged(nil, stream, m)
}

// finishFrame bounds-checks the payload appended since start and patches
// in its 4-byte length prefix.
func finishFrame(body []byte, start int) ([]byte, error) {
	payload := len(body) - start - 4
	if payload > MaxFrame {
		return nil, fmt.Errorf("wire: frame of %d bytes exceeds MaxFrame", payload)
	}
	binary.BigEndian.PutUint32(body[start:start+4], uint32(payload))
	return body, nil
}

// appendMsgBody appends m's type byte and field encoding (everything
// after the stream tag) to dst.
func appendMsgBody(dst []byte, m Msg) ([]byte, error) {
	body := append(dst, byte(m.Type()))
	var err error
	switch x := m.(type) {
	case Stats:
		// no body
	case BeginProgram:
		body = appendString(body, x.Name)
		body = appendUvarint(body, uint64(len(x.Locals)))
		for _, l := range x.Locals {
			body = appendString(body, l.Name)
			body = appendVarint(body, l.Val)
		}
		body = appendUvarint(body, uint64(len(x.Ops)))
		for _, op := range x.Ops {
			if body, err = appendOp(body, op); err != nil {
				return nil, err
			}
		}
	case Committed:
		body = appendVarint(body, x.Txn)
		body = appendUvarint(body, uint64(len(x.Locals)))
		for _, l := range x.Locals {
			body = appendString(body, l.Name)
			body = appendVarint(body, l.Val)
		}
		body = appendVarint(body, x.Stats.OpsExecuted)
		body = appendVarint(body, x.Stats.OpsLost)
		body = appendVarint(body, x.Stats.Rollbacks)
		body = appendVarint(body, x.Stats.Restarts)
		body = appendVarint(body, x.Stats.Waits)
	case Error:
		body = append(body, byte(x.Code))
		body = appendString(body, x.Msg)
	case StatsReply:
		body = appendUvarint(body, uint64(len(x.Counters)))
		for _, c := range x.Counters {
			body = appendString(body, c.Name)
			body = appendVarint(body, c.Val)
		}
	default:
		return nil, fmt.Errorf("wire: cannot encode message type %T", m)
	}
	return body, nil
}

// appendOp encodes one program operation for a BeginProgram body: its
// op tag, then its fields (a lock carries a mode byte, 1 = exclusive).
func appendOp(b []byte, op txn.Op) ([]byte, error) {
	switch op.Kind {
	case txn.OpLockS:
		return appendString(append(b, opLock, 0), op.Entity), nil
	case txn.OpLockX:
		return appendString(append(b, opLock, 1), op.Entity), nil
	case txn.OpUnlock:
		return appendString(append(b, opUnlock), op.Entity), nil
	case txn.OpRead:
		return appendString(appendString(append(b, opRead), op.Entity), op.Local), nil
	case txn.OpWrite:
		return appendExpr(appendString(append(b, opWrite), op.Entity), op.Expr)
	case txn.OpCompute:
		return appendExpr(appendString(append(b, opCompute), op.Local), op.Expr)
	case txn.OpDeclareLastLock:
		return append(b, opLastLock), nil
	case txn.OpCommit:
		return append(b, opCommit), nil
	default:
		return nil, fmt.Errorf("wire: cannot encode op kind %v", op.Kind)
	}
}

// DecodeFrame parses one payload (the frame with its length prefix
// already stripped) into its stream tag and message.
func DecodeFrame(payload []byte) (Frame, error) { return new(Decoder).DecodeFrame(payload) }

// DecodeFrame parses one payload like the package-level DecodeFrame,
// with d's per-frame memos. The decoded frame never refers to payload.
func (d *Decoder) DecodeFrame(payload []byte) (Frame, error) {
	f, err := d.frame(payload)
	d.finish(payload)
	return f, err
}

// finish forgets the frame just decoded: its payload and its memos,
// and after a frame over retainLimit the memory that frame grew.
func (d *Decoder) finish(payload []byte) {
	d.b = nil
	if len(payload) > retainLimit {
		d.names, d.exprs = nil, nil
		d.x = execBuilder{}
	} else {
		clear(d.names)
		clear(d.exprs)
	}
}

// header checks a payload's version byte and decodes its stream tag
// and message type: both decode paths start here.
func (d *Decoder) header(payload []byte) (uint32, Type, error) {
	if len(payload) < 1 {
		return 0, 0, protoErr("payload of %d bytes", len(payload))
	}
	if payload[0] != Version3 {
		return 0, 0, protoErr("version %d, want %d", payload[0], Version3)
	}
	d.b = payload[1:]
	stream, err := d.uvarint()
	if err != nil {
		return 0, 0, err
	}
	if stream > MaxStream {
		return 0, 0, protoErr("stream %d exceeds %d", stream, uint64(MaxStream))
	}
	tag, err := d.byte()
	if err != nil {
		return 0, 0, err
	}
	return uint32(stream), Type(tag), nil
}

func (d *Decoder) frame(payload []byte) (Frame, error) {
	stream, t, err := d.header(payload)
	if err != nil {
		return Frame{}, err
	}
	m, err := decodeMsg(t, d)
	if err != nil {
		return Frame{}, err
	}
	if err := d.done(); err != nil {
		return Frame{}, err
	}
	return Frame{Stream: stream, Msg: m}, nil
}

// decodeMsg decodes the fields of one message of type t from d (the
// stream tag and type byte already consumed).
func decodeMsg(t Type, d *Decoder) (Msg, error) {
	var m Msg
	var err error
	switch t {
	case TStats:
		m = Stats{}
	case TBeginProgram:
		var x BeginProgram
		if x.Name, err = d.string(); err != nil {
			return nil, err
		}
		if x.Locals, err = d.locals(MaxLocals, true); err != nil {
			return nil, err
		}
		if x.Ops, err = d.ops(MaxOps); err != nil {
			return nil, err
		}
		m = x
	case TCommitted:
		var x Committed
		if x.Txn, err = d.varint(); err != nil {
			return nil, err
		}
		if x.Locals, err = d.locals(MaxLocals, false); err != nil {
			return nil, err
		}
		for _, p := range []*int64{
			&x.Stats.OpsExecuted, &x.Stats.OpsLost, &x.Stats.Rollbacks,
			&x.Stats.Restarts, &x.Stats.Waits,
		} {
			if *p, err = d.varint(); err != nil {
				return nil, err
			}
		}
		m = x
	case TError:
		var x Error
		code, err := d.byte()
		if err != nil {
			return nil, err
		}
		x.Code = ErrCode(code)
		if x.Msg, err = d.string(); err != nil {
			return nil, err
		}
		m = x
	case TStatsReply:
		var x StatsReply
		n, err := d.count(MaxCounters, "counters")
		if err != nil {
			return nil, err
		}
		if n > 0 {
			x.Counters = make([]Counter, 0, n)
		}
		for i := 0; i < n; i++ {
			var c Counter
			if c.Name, err = d.string(); err != nil {
				return nil, err
			}
			if c.Val, err = d.varint(); err != nil {
				return nil, err
			}
			x.Counters = append(x.Counters, c)
		}
		m = x
	default:
		return nil, protoErr("unknown message type %d", byte(t))
	}
	return m, nil
}

// ReadFrame reads one frame from r and decodes it, returning the frame
// and the total bytes consumed. I/O failures are returned as-is;
// malformed content is reported wrapped in ErrProtocol.
func ReadFrame(r io.Reader) (Frame, int, error) { return new(Decoder).ReadFrame(r) }

// ReadFrame reads and decodes one frame like the package-level
// ReadFrame, into d's reused payload buffer.
func (d *Decoder) ReadFrame(r io.Reader) (Frame, int, error) {
	payload, n, err := d.readPayload(r)
	if err != nil {
		return Frame{}, n, err
	}
	f, err := d.DecodeFrame(payload)
	return f, n, err
}

// readPayload reads one frame's length prefix and payload, returning
// the payload and the bytes consumed.
func (d *Decoder) readPayload(r io.Reader) ([]byte, int, error) {
	if _, err := io.ReadFull(r, d.hdr[:]); err != nil {
		return nil, 0, err
	}
	n := binary.BigEndian.Uint32(d.hdr[:])
	if n > MaxFrame {
		return nil, 4, protoErr("frame of %d bytes exceeds %d", n, MaxFrame)
	}
	var payload []byte
	if n > retainLimit {
		payload = make([]byte, n)
	} else {
		if cap(d.buf) < int(n) {
			d.buf = make([]byte, n)
		}
		payload = d.buf[:n]
	}
	if _, err := io.ReadFull(r, payload); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return nil, 4, err
	}
	return payload, 4 + int(n), nil
}

// --- program <-> message translation ---

// ProgramFrame translates a transaction program into its BeginProgram
// message. Locals are emitted in sorted order so equal programs encode
// identically.
func ProgramFrame(p *txn.Program) (BeginProgram, error) {
	if len(p.Ops) > MaxOps {
		return BeginProgram{}, fmt.Errorf("wire: program of %d ops exceeds %d", len(p.Ops), MaxOps)
	}
	locals := make([]LocalDecl, 0, len(p.Locals))
	for name, v := range p.Locals {
		locals = append(locals, LocalDecl{Name: name, Val: v})
	}
	sort.Slice(locals, func(i, j int) bool { return locals[i].Name < locals[j].Name })
	for _, op := range p.Ops {
		switch op.Kind {
		case txn.OpLockS, txn.OpLockX, txn.OpUnlock, txn.OpRead, txn.OpWrite,
			txn.OpCompute, txn.OpDeclareLastLock, txn.OpCommit:
		default:
			return BeginProgram{}, fmt.Errorf("wire: cannot encode op kind %v", op.Kind)
		}
	}
	return BeginProgram{Name: p.Name, Locals: locals, Ops: p.Ops}, nil
}

// Program returns the shipped program after the wire-level checks only:
// the MaxLocals and MaxOps bounds and duplicate local declarations. A
// missing trailing Commit is appended exactly as txn.Builder.Build
// would. The §2 static rules are not checked here: the engine's
// Register is the one validator (and analyser) of every program, and
// its error text is what the client receives. The program shares bp's
// op list; appending the Commit copies it, so bp.Ops is never written.
func (bp BeginProgram) Program() (*txn.Program, error) {
	if len(bp.Locals) > MaxLocals {
		return nil, protoErr("%d locals exceeds %d", len(bp.Locals), MaxLocals)
	}
	if len(bp.Ops) > MaxOps {
		return nil, protoErr("program exceeds %d operations", MaxOps)
	}
	p := &txn.Program{Name: bp.Name, Locals: make(map[string]int64, len(bp.Locals))}
	for _, l := range bp.Locals {
		if _, dup := p.Locals[l.Name]; dup {
			return nil, fmt.Errorf("txn %s: local %q declared twice", bp.Name, l.Name)
		}
		p.Locals[l.Name] = l.Val
	}
	n := len(bp.Ops)
	p.Ops = bp.Ops[:n:n]
	if n == 0 || p.Ops[n-1].Kind != txn.OpCommit {
		p.Ops = append(p.Ops, txn.Op{Kind: txn.OpCommit})
	}
	return p, nil
}
