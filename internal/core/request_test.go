package core_test

import (
	"errors"
	"fmt"
	"maps"
	"reflect"
	"slices"
	"testing"

	"partialrollback/internal/core"
	"partialrollback/internal/entity"
	"partialrollback/internal/sim"
	"partialrollback/internal/txn"
	"partialrollback/internal/value"
	"partialrollback/internal/wire"
)

// beginPayload encodes bp as sent, without ProgramFrame's sorting of
// the locals or its trailing Commit.
func beginPayload(tb testing.TB, bp wire.BeginProgram) []byte {
	tb.Helper()
	frame, err := wire.AppendTagged(nil, 1, bp)
	if err != nil {
		tb.Fatal(err)
	}
	return frame[4:]
}

// sameError reports whether two errors are both nil or carry the same
// text and the same ErrProtocol classification.
func sameError(a, b error) bool {
	if a == nil || b == nil {
		return a == b
	}
	return a.Error() == b.Error() && errors.Is(a, wire.ErrProtocol) == errors.Is(b, wire.ErrProtocol)
}

// FuzzRequestDecode checks the node's decode path against the
// reference path. Each input is one payload. The node's path decodes it
// with a Decoder's DecodeRequest, after an unrelated frame so the
// decoder's reused state is in play, and registers the program with
// RegisterExec; the reference path decodes it with DecodeFrame,
// converts it with BeginProgram.Program and registers that with
// Register. Both engines order locks (Config.OrderLocks), each over its
// own store. They must agree on the class and the text of every
// failure: a connection-level ErrProtocol, a stream-level refusal (a
// local declared twice) or a §2 or lock-set refusal at registration.
// For a program both accept, every op must render the same, and the
// runs must end in the same commit with the same Retire locals and
// counters, or in the same run-time error naming the same as-sent op,
// and leave the same store.
func FuzzRequestDecode(f *testing.F) {
	for _, p := range orderedSeeds() {
		f.Add(programPayload(f, p))
	}
	x := func(name string) txn.Op { return txn.Op{Kind: txn.OpLockX, Entity: name} }
	compute := func(local string, e value.Expr) txn.Op { return txn.Op{Kind: txn.OpCompute, Local: local, Expr: e} }
	commit := txn.Op{Kind: txn.OpCommit}
	for _, bp := range []wire.BeginProgram{
		// Locals declared out of name order.
		{Name: "unsorted", Locals: []wire.LocalDecl{{Name: "z", Val: 1}, {Name: "b", Val: 2}, {Name: "m", Val: 3}},
			Ops: []txn.Op{x("e3"), compute("z", value.Add(value.L("b"), value.L("m"))), {Kind: txn.OpWrite, Entity: "e3", Expr: value.L("z")}, commit}},
		// A local declared twice.
		{Name: "dup", Locals: []wire.LocalDecl{{Name: "a", Val: 1}, {Name: "b", Val: 2}, {Name: "a", Val: 3}},
			Ops: []txn.Op{x("e1"), commit}},
		// No trailing Commit.
		{Name: "open", Locals: []wire.LocalDecl{{Name: "v", Val: 0}},
			Ops: []txn.Op{x("e8"), {Kind: txn.OpRead, Entity: "e8", Local: "v"}, x("e2")}},
		// An entity named like a local.
		{Name: "clash", Locals: []wire.LocalDecl{{Name: "e4", Val: 0}}, Ops: []txn.Op{x("e4"), commit}},
		// An expression that reads an undeclared local.
		{Name: "ghost", Locals: []wire.LocalDecl{{Name: "v", Val: 0}},
			Ops: []txn.Op{x("e6"), compute("v", value.Add(value.L("v"), value.L("ghost"))), commit}},
		// An undefined entity.
		{Name: "nosuch", Ops: []txn.Op{x("e1"), x("nosuch"), commit}},
	} {
		f.Add(beginPayload(f, bp))
	}
	warm := programPayload(f, orderedSeeds()[0])
	f.Fuzz(func(t *testing.T, payload []byte) {
		var d wire.Decoder
		if _, err := d.DecodeRequest(warm); err != nil {
			t.Fatal(err)
		}
		req, errN := d.DecodeRequest(payload)
		fr, errR := wire.DecodeFrame(payload)
		if !sameError(errN, errR) {
			t.Fatalf("decode: node %v, reference %v", errN, errR)
		}
		if errN != nil {
			return
		}
		bp, begin := fr.Msg.(wire.BeginProgram)
		if req.Stream != fr.Stream || begin != (req.Msg == nil) || !begin && !reflect.DeepEqual(req.Msg, fr.Msg) {
			t.Fatalf("decoded %+v, reference %+v", req, fr)
		}
		if !begin {
			return
		}
		p, refR := bp.Program()
		if !sameError(req.Refused, refR) || (req.Prog == nil) != (refR != nil) {
			t.Fatalf("refusal: node %v (program %v), reference %v", req.Refused, req.Prog != nil, refR)
		}
		if refR != nil {
			return
		}
		if len(req.Prog.Ops) != len(p.Ops) {
			t.Fatalf("node decoded %d ops, reference %d\n%s", len(req.Prog.Ops), len(p.Ops), p)
		}
		for i := range p.Ops {
			if got, want := req.Prog.Op(i).String(), p.Ops[i].String(); got != want {
				t.Fatalf("op %d decoded as %s, reference %s", i, got, want)
			}
		}
		storeA, storeB := orderedStore(), orderedStore()
		a := core.New(core.Config{Store: storeA, OrderLocks: true})
		b := core.New(core.Config{Store: storeB, OrderLocks: true})
		idA, errA := a.RegisterExec(req.Prog)
		idB, errB := b.Register(p)
		if !sameError(errA, errB) {
			t.Fatalf("register: node %v, reference %v\n%s", errA, errB, p)
		}
		if errA != nil {
			return
		}
		okA, runA := soloRun(a, idA, len(p.Ops))
		okB, runB := soloRun(b, idB, len(p.Ops))
		if okA != okB || !sameError(runA, runB) {
			t.Fatalf("run: node committed %v (%v), reference committed %v (%v)\n%s", okA, runA, okB, runB, p)
		}
		switch {
		case runA != nil:
			if errA, errB := a.Abort(idA), b.Abort(idB); errA != nil || errB != nil {
				t.Fatalf("abort after failure: node %v, reference %v", errA, errB)
			}
		case okA:
			ra, errA := a.Retire(idA)
			rb, errB := b.Retire(idB)
			if errA != nil || errB != nil {
				t.Fatalf("retire: node %v, reference %v", errA, errB)
			}
			if ra.Stats != rb.Stats || !slices.Equal(ra.LocalNames, rb.LocalNames) || !slices.Equal(ra.Locals, rb.Locals) {
				t.Fatalf("outcome: node %+v, reference %+v\n%s", ra, rb, p)
			}
		default:
			t.Fatalf("neither engine finished %d ops\n%s", len(p.Ops), p)
		}
		if sa, sb := storeA.Snapshot(), storeB.Snapshot(); !maps.Equal(sa, sb) {
			t.Fatalf("final stores differ\n%s", p)
		}
	})
}

// TestRejectedRegistrationsKeepInterner: a program that locks an
// undefined entity is refused without interning the name, on both
// entry points, so refused requests cannot grow the store's interner.
func TestRejectedRegistrationsKeepInterner(t *testing.T) {
	store := entity.NewUniformStore("e", 64, 0)
	s := core.New(core.Config{Store: store, OrderLocks: true})
	before := store.Interner().Len()
	var d wire.Decoder
	for i := 0; i < 1000; i++ {
		p := txn.NewProgram("ghost").LockX("e1").LockX(fmt.Sprintf("nope%d", i)).MustBuild()
		if _, err := s.Register(p); err == nil {
			t.Fatal("Register accepted an undefined entity")
		}
		req, err := d.DecodeRequest(programPayload(t, p))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.RegisterExec(req.Prog); err == nil {
			t.Fatal("RegisterExec accepted an undefined entity")
		}
	}
	if after := store.Interner().Len(); after != before {
		t.Fatalf("interner grew from %d to %d names over 2000 refused registrations", before, after)
	}
}

// Allocation pins from a request frame to a registered transaction:
// DecodeRequest, RegisterExec and an Abort, through a warm Decoder on
// an ordering engine. The reference path (DecodeFrame, then
// BeginProgram.Program and Register) costs 77 allocations for the
// hotspot frame and 18 for the counter frame.
const (
	hotspotFrameAllocs = 9
	counterFrameAllocs = 8
)

// TestRequestRegisterAllocs pins the allocations of the node's path
// from a frame to Register (see hotspotFrameAllocs).
func TestRequestRegisterAllocs(t *testing.T) {
	for _, c := range []struct {
		name string
		prog *txn.Program
		max  float64
	}{
		{"hotspot", hotspotProgram(t), hotspotFrameAllocs},
		{"counter", sim.CounterProgram("inc", "e7"), counterFrameAllocs},
	} {
		payload := programPayload(t, c.prog)
		s := core.New(core.Config{Store: entity.NewUniformStore("e", 64, 0), OrderLocks: true})
		var d wire.Decoder
		n := testing.AllocsPerRun(200, func() { registerFrame(t, s, &d, payload) })
		t.Logf("%s: %v allocations from frame to Register", c.name, n)
		if n > c.max {
			t.Errorf("%s: %v allocations from frame to Register, want <= %v", c.name, n, c.max)
		}
	}
}

// registerFrame decodes payload through d, registers its program on s
// and aborts it.
func registerFrame(tb testing.TB, s *core.System, d *wire.Decoder, payload []byte) {
	req, err := d.DecodeRequest(payload)
	if err != nil {
		tb.Fatal(err)
	}
	id, err := s.RegisterExec(req.Prog)
	if err != nil {
		tb.Fatal(err)
	}
	if err := s.Abort(id); err != nil {
		tb.Fatal(err)
	}
}

// hotspotProgram returns the first program of the hotspot workload's
// generator that an ordering engine must reorder: 221 ops over five
// entities and ten locals.
func hotspotProgram(tb testing.TB) *txn.Program {
	for _, p := range sim.Generate(sim.GenConfig{Txns: 64, DBSize: 64, HotSet: 6, HotProb: 0.9, LocksPerTxn: 5,
		PadOps: 40, Shape: sim.Clustered, Seed: 1}).Programs {
		if txn.OrderLocks(p) != p {
			return p
		}
	}
	tb.Fatal("no hotspot program needs reordering")
	return nil
}

// BenchmarkRequestRegister measures the node's path from a hotspot
// request frame to a registered transaction (see registerFrame).
func BenchmarkRequestRegister(b *testing.B) {
	payload := programPayload(b, hotspotProgram(b))
	s := core.New(core.Config{Store: entity.NewUniformStore("e", 64, 0), OrderLocks: true})
	var d wire.Decoder
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		registerFrame(b, s, &d, payload)
	}
}
