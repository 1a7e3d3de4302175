package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"reflect"
	"testing"

	"partialrollback/internal/sim"
	"partialrollback/internal/txn"
	"partialrollback/internal/value"
)

// Program shapes of the node benchmark's workloads, generated with the
// same sim configurations: hotspot's long clustered programs repeat
// each pad expression 40 times per lock interval; uniform's scattered
// ones are short and repeat little.
func hotspotPrograms(n int, seed int64) []*txn.Program {
	return sim.Generate(sim.GenConfig{Txns: n, DBSize: 64, HotSet: 6, HotProb: 0.9, LocksPerTxn: 5,
		SharedProb: 0, PadOps: 40, Shape: sim.Clustered, Seed: seed}).Programs
}

func uniformPrograms(n int, seed int64) []*txn.Program {
	return sim.Generate(sim.GenConfig{Txns: n, DBSize: 4096, HotSet: 0, LocksPerTxn: 4,
		SharedProb: 0.8, PadOps: 2, Shape: sim.Scattered, Seed: seed}).Programs
}

// payloadOf returns the BeginProgram payload (no length prefix) that a
// client sends for p.
func payloadOf(tb testing.TB, p *txn.Program) []byte {
	tb.Helper()
	bp, err := ProgramFrame(p)
	if err != nil {
		tb.Fatal(err)
	}
	frame, err := EncodeTagged(1, bp)
	if err != nil {
		tb.Fatal(err)
	}
	return frame[4:]
}

// TestDecodeAllocs pins the allocations of decoding one program through
// a warm Decoder (before per-frame memos: 909 for the 221-op hotspot
// program, 89 for the 22-op uniform one).
func TestDecodeAllocs(t *testing.T) {
	cases := []struct {
		name string
		prog *txn.Program
		ops  int
		max  float64
	}{
		{"hotspot", hotspotPrograms(1, 1)[0], 221, 80},
		{"uniform", uniformPrograms(3, 1)[2], 22, 55},
	}
	for _, tc := range cases {
		if got := len(tc.prog.Ops); got != tc.ops {
			t.Fatalf("%s: generated %d ops, want %d", tc.name, got, tc.ops)
		}
		payload := payloadOf(t, tc.prog)
		var d Decoder
		if _, err := d.DecodeFrame(payload); err != nil {
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(100, func() {
			if _, err := d.DecodeFrame(payload); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("%s: %.0f allocations per %d-op program", tc.name, allocs, tc.ops)
		if allocs > tc.max {
			t.Errorf("%s: %.0f allocations per decode, want <= %.0f", tc.name, allocs, tc.max)
		}
	}
}

func BenchmarkDecodeProgram(b *testing.B) {
	for _, bc := range []struct {
		name string
		prog *txn.Program
	}{
		{"hotspot", hotspotPrograms(1, 1)[0]},
		{"uniform", uniformPrograms(3, 1)[2]},
	} {
		b.Run(bc.name, func(b *testing.B) {
			payload := payloadOf(b, bc.prog)
			var d Decoder
			b.SetBytes(int64(len(payload)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := d.DecodeFrame(payload); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestDecoderRoundTrip decodes the benchmark workloads' programs, and
// programs that repeat expressions at the size and depth limits, through
// one Decoder: each must come back as the BeginProgram its client sent.
// The equivalence fuzzer cannot see a memo that mis-decodes within a
// frame (a fresh decode shares it); this can.
func TestDecoderRoundTrip(t *testing.T) {
	progs := append(hotspotPrograms(20, 1), uniformPrograms(20, 1)...)
	progs = append(progs, sim.CounterWorkload(64, 20, 1).Programs...)
	progs = append(progs, mixProgram(), twoOps(fullTree(8)), twoOps(chain(MaxExprDepth)))
	var stream bytes.Buffer
	want := make([]BeginProgram, len(progs))
	for i, p := range progs {
		var err error
		if want[i], err = ProgramFrame(p); err != nil {
			t.Fatal(err)
		}
		payload := payloadOf(t, p)
		stream.Write(binary.BigEndian.AppendUint32(nil, uint32(len(payload))))
		stream.Write(payload)
	}
	var d Decoder
	for i := range progs {
		f, _, err := d.ReadFrame(&stream)
		if err != nil {
			t.Fatalf("program %d: %v", i, err)
		}
		if !reflect.DeepEqual(f.Msg, want[i]) {
			t.Fatalf("program %d: decoded %#v, sent %#v", i, f.Msg, want[i])
		}
	}
}

// TestMemoHitShare reports the property the per-frame memos rely on:
// how often a name or an op expression repeats within one program of
// each benchmark workload. A name lookup hits when the name was already
// decoded in the frame (names inside a shared expression are not looked
// up again); an expression hits when an earlier op in the frame had the
// same encoding.
func TestMemoHitShare(t *testing.T) {
	for _, w := range []struct {
		name          string
		progs         []*txn.Program
		minName, minX float64
	}{
		{"hotspot", hotspotPrograms(100, 1), 0.9, 0.9},
		{"uniform", uniformPrograms(100, 1), 0, 0},
		{"durable", sim.CounterWorkload(64, 100, 1).Programs, 0, 0},
		{"paged", sim.CounterWorkload(100000, 100, 1).Programs, 0, 0},
	} {
		var names, nameHits, exprs, exprHits int
		for _, p := range w.progs {
			var d Decoder
			f, err := d.frame(payloadOf(t, p))
			if err != nil {
				t.Fatal(err)
			}
			bp := f.Msg.(BeginProgram)
			lookups, opExprs := len(bp.Locals), 0
			for _, op := range bp.Ops {
				switch op.Kind {
				case txn.OpRead:
					lookups += 2
				case txn.OpLockS, txn.OpLockX, txn.OpUnlock, txn.OpWrite, txn.OpCompute:
					lookups++
				}
				if op.Expr != nil {
					opExprs++
				}
			}
			for _, e := range d.exprs {
				lookups += len(e.Refs(nil))
			}
			names += lookups
			nameHits += lookups - len(d.names)
			exprs += opExprs
			exprHits += opExprs - len(d.exprs)
		}
		nameShare := float64(nameHits) / float64(names)
		exprShare := 0.0
		if exprs > 0 {
			exprShare = float64(exprHits) / float64(exprs)
		}
		t.Logf("%s: name hit share %.2f, expression hit share %.2f", w.name, nameShare, exprShare)
		if nameShare < w.minName || exprShare < w.minX {
			t.Errorf("%s: hit shares %.2f / %.2f, want >= %.2f / %.2f",
				w.name, nameShare, exprShare, w.minName, w.minX)
		}
	}
}

// TestDecoderRetainLimit decodes a near-MaxFrame program and then a
// small one through one Decoder: the large frame must leave neither its
// payload buffer nor its memo maps behind.
func TestDecoderRetainLimit(t *testing.T) {
	big := BeginProgram{Name: "big"}
	for i := 0; i < MaxOps; i++ {
		big.Ops = append(big.Ops, txn.Op{Kind: txn.OpLockX, Entity: fmt.Sprintf("%0115d", i)})
	}
	var stream bytes.Buffer
	small := BeginProgram{Name: "small", Ops: []txn.Op{
		{Kind: txn.OpCompute, Local: "x", Expr: value.Add(value.L("x"), value.C(1))}}}
	for _, m := range []Msg{big, small} {
		frame, err := EncodeTagged(1, m)
		if err != nil {
			t.Fatal(err)
		}
		if m.(BeginProgram).Name == "big" && len(frame) < MaxFrame*9/10 {
			t.Fatalf("big frame is only %d bytes", len(frame))
		}
		stream.Write(frame)
	}
	var d Decoder
	if _, _, err := d.ReadFrame(&stream); err != nil {
		t.Fatal(err)
	}
	if cap(d.buf) > retainLimit || d.names != nil || d.exprs != nil {
		t.Fatalf("after the big frame: buffer cap %d, names %v, exprs %v; want <= %d and no maps",
			cap(d.buf), d.names != nil, d.exprs != nil, retainLimit)
	}
	f, _, err := d.ReadFrame(&stream)
	if err != nil {
		t.Fatal(err)
	}
	if f.Msg.(BeginProgram).Name != "small" {
		t.Fatalf("second frame %#v", f)
	}
	if cap(d.buf) > retainLimit || len(d.names) != 0 || len(d.exprs) != 0 {
		t.Fatalf("after the small frame: buffer cap %d, %d names, %d exprs", cap(d.buf), len(d.names), len(d.exprs))
	}
}

// splitPayloads cuts fuzz input into payloads, each behind a 2-byte
// big-endian length (clipped to what is left).
func splitPayloads(in []byte) [][]byte {
	var out [][]byte
	for len(in) >= 2 {
		n := int(binary.BigEndian.Uint16(in))
		in = in[2:]
		n = min(n, len(in))
		out = append(out, in[:n])
		in = in[n:]
	}
	return out
}

func joinPayloads(tb testing.TB, payloads ...[]byte) []byte {
	var out []byte
	for _, p := range payloads {
		if len(p) > 0xFFFF {
			tb.Fatalf("seed payload of %d bytes", len(p))
		}
		out = binary.BigEndian.AppendUint16(out, uint16(len(p)))
		out = append(out, p...)
	}
	return out
}

// FuzzDecoderEquivalence is the oracle for the Decoder's reuse: one
// long-lived Decoder reads a sequence of frames through its reused
// buffer and per-frame memos, and every result — frame, error text and
// ErrProtocol classification — must equal a fresh DecodeFrame of the
// same payload, including frames decoded before later ones overwrote
// the buffer.
func FuzzDecoderEquivalence(f *testing.F) {
	hot := hotspotPrograms(2, 1)
	f.Add(joinPayloads(f, payloadOf(f, hot[0])))
	f.Add(joinPayloads(f, payloadOf(f, hot[0]), payloadOf(f, hot[1]), payloadOf(f, uniformPrograms(1, 1)[0])))

	// The node budget is per op: an expression of 511 nodes (a full
	// binary tree of depth 8, the largest under MaxExprNodes) decodes in
	// two ops of one frame, and one of 513 nodes fails in either.
	f.Add(joinPayloads(f, payloadOf(f, twoOps(fullTree(8)))))
	f.Add(joinPayloads(f, payloadOf(f, twoOps(value.Add(fullTree(8), value.C(1))))))
	// Expressions at MaxExprDepth and one past it.
	f.Add(joinPayloads(f, payloadOf(f, twoOps(chain(MaxExprDepth))), payloadOf(f, twoOps(chain(MaxExprDepth+1)))))
	// The second op's expression is a truncated copy of the first's.
	whole := payloadOf(f, twoOps(value.Add(value.L("x"), value.Mod(value.L("x"), value.C(7)))))
	f.Add(joinPayloads(f, whole[:len(whole)-3], whole))
	// Aliasing: B is decoded into A's buffer; A must still equal its
	// fresh decode.
	a := payloadOf(f, hot[0])
	b := payloadOf(f, hot[1])
	f.Add(joinPayloads(f, a, b, a))

	f.Fuzz(func(t *testing.T, in []byte) {
		payloads := splitPayloads(in)
		var stream []byte
		for _, p := range payloads {
			stream = binary.BigEndian.AppendUint32(stream, uint32(len(p)))
			stream = append(stream, p...)
		}
		r := bytes.NewReader(stream)
		var d Decoder
		got := make([]Frame, len(payloads))
		for i, p := range payloads {
			fr, n, err := d.ReadFrame(r)
			if n != 4+len(p) {
				t.Fatalf("payload %d: read %d bytes, want %d", i, n, 4+len(p))
			}
			want, wantErr := DecodeFrame(p)
			if (err == nil) != (wantErr == nil) ||
				err != nil && (err.Error() != wantErr.Error() || errors.Is(err, ErrProtocol) != errors.Is(wantErr, ErrProtocol)) {
				t.Fatalf("payload %d: error %v, fresh decode %v", i, err, wantErr)
			}
			if !reflect.DeepEqual(fr, want) {
				t.Fatalf("payload %d: decoded %#v, fresh decode %#v", i, fr, want)
			}
			got[i] = fr
		}
		for i, p := range payloads {
			if want, _ := DecodeFrame(p); !reflect.DeepEqual(got[i], want) {
				t.Fatalf("payload %d changed after later frames: %#v, fresh decode %#v", i, got[i], want)
			}
		}
	})
}

// twoOps is a program computing e into x twice.
func twoOps(e value.Expr) *txn.Program {
	return &txn.Program{Name: "P", Locals: map[string]int64{"x": 0}, Ops: []txn.Op{
		{Kind: txn.OpCompute, Local: "x", Expr: e},
		{Kind: txn.OpCompute, Local: "x", Expr: e},
		{Kind: txn.OpCommit},
	}}
}

// fullTree is a complete binary expression tree of the given depth
// (2^(depth+1)-1 nodes).
func fullTree(depth int) value.Expr {
	if depth == 0 {
		return value.L("x")
	}
	return value.Add(fullTree(depth-1), fullTree(depth-1))
}

// chain nests depth additions, so its deepest leaf is at that depth.
func chain(depth int) value.Expr {
	e := value.Expr(value.C(1))
	for i := 0; i < depth; i++ {
		e = value.Add(e, value.C(1))
	}
	return e
}

// TestDecodeRequest reads the benchmark workloads' programs, and
// programs at the expression limits, through one Decoder's ReadRequest:
// each must come back as the executable form of the program its client
// sent, every op rendering as sent, with the locals in name order. A
// near-MaxFrame program must leave none of its buffers behind.
func TestDecodeRequest(t *testing.T) {
	progs := append(hotspotPrograms(20, 1), uniformPrograms(20, 1)...)
	progs = append(progs, sim.CounterWorkload(64, 20, 1).Programs...)
	progs = append(progs, mixProgram(), twoOps(fullTree(8)), twoOps(chain(MaxExprDepth)))
	var stream bytes.Buffer
	for _, p := range progs {
		payload := payloadOf(t, p)
		stream.Write(binary.BigEndian.AppendUint32(nil, uint32(len(payload))))
		stream.Write(payload)
	}
	var d Decoder
	for i, p := range progs {
		req, _, err := d.ReadRequest(&stream)
		if err != nil || req.Refused != nil || req.Msg != nil || req.Stream != 1 {
			t.Fatalf("program %d: %+v, %v", i, req, err)
		}
		x := req.Prog
		if x.Name != p.Name || len(x.Ops) != len(p.Ops) || len(x.Init) != len(p.Locals) {
			t.Fatalf("program %d: decoded %q with %d ops and %d locals, sent %q with %d and %d",
				i, x.Name, len(x.Ops), len(x.Init), p.Name, len(p.Ops), len(p.Locals))
		}
		for s, v := range x.Init {
			if name := x.Locals[s]; p.Locals[name] != v || s > 0 && x.Locals[s-1] >= name {
				t.Fatalf("program %d: slot %d is %s = %d; locals %v", i, s, name, v, x.Locals)
			}
		}
		for k, o := range p.Ops {
			if got := x.Op(k).String(); got != o.String() {
				t.Fatalf("program %d op %d: decoded %s, sent %s", i, k, got, o)
			}
		}
	}

	big := BeginProgram{Name: "big"}
	for i := 0; i < MaxOps; i++ {
		big.Ops = append(big.Ops, txn.Op{Kind: txn.OpLockX, Entity: fmt.Sprintf("%0115d", i)})
	}
	frame, err := EncodeTagged(1, big)
	if err != nil {
		t.Fatal(err)
	}
	req, _, err := d.ReadRequest(bytes.NewReader(frame))
	if err != nil || len(req.Prog.Entities) != MaxOps {
		t.Fatalf("big frame: %v entities, %v", len(req.Prog.Entities), err)
	}
	if cap(d.buf) > retainLimit || cap(d.x.ops) != 0 || cap(d.x.names.buf) != 0 {
		t.Fatalf("after the big frame: buffer cap %d, op cap %d, name cap %d", cap(d.buf), cap(d.x.ops), cap(d.x.names.buf))
	}
}

// BenchmarkDecodeRequest decodes the workloads' programs on the node's
// path, straight into executable form; BenchmarkDecodeProgram is the
// reference path.
func BenchmarkDecodeRequest(b *testing.B) {
	for _, bc := range []struct {
		name string
		prog *txn.Program
	}{
		{"hotspot", hotspotPrograms(1, 1)[0]},
		{"uniform", uniformPrograms(3, 1)[2]},
	} {
		b.Run(bc.name, func(b *testing.B) {
			payload := payloadOf(b, bc.prog)
			var d Decoder
			b.SetBytes(int64(len(payload)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := d.DecodeRequest(payload); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
