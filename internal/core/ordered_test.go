package core_test

import (
	"maps"
	"regexp"
	"slices"
	"sort"
	"strconv"
	"strings"
	"testing"

	"partialrollback/internal/core"
	"partialrollback/internal/entity"
	"partialrollback/internal/sim"
	"partialrollback/internal/txn"
	"partialrollback/internal/value"
	"partialrollback/internal/wire"
)

// orderedEntities is the entity count of the stores FuzzOrderedRegister
// runs on: enough for the uniform workload's generator (4096) and so
// for hotspot's (64).
const orderedEntities = 4096

// orderedStore returns a store over e0..e4095, interned in numeric
// order (so entity-ID order is not name order: e2 < e10 by ID), with
// values that differ from entity to entity.
func orderedStore() *entity.Store {
	s := entity.NewUniformStore("e", orderedEntities, 0)
	for i := 0; i < orderedEntities; i++ {
		if err := s.Install("e"+strconv.Itoa(i), int64(i%17+3)); err != nil {
			panic(err)
		}
	}
	return s
}

// programPayload encodes p as the payload of a BeginProgram frame: the
// bytes the node decodes a request from.
func programPayload(tb testing.TB, p *txn.Program) []byte {
	tb.Helper()
	bp, err := wire.ProgramFrame(p)
	if err != nil {
		tb.Fatal(err)
	}
	frame, err := wire.AppendTagged(nil, 1, bp)
	if err != nil {
		tb.Fatal(err)
	}
	return frame[4:]
}

// soloRun steps id alone until it commits or a step fails.
func soloRun(s *core.System, id txn.ID, limit int) (bool, error) {
	for i := 0; i <= limit; i++ {
		res, err := s.Step(id)
		if err != nil {
			return false, err
		}
		if res.Outcome == core.Committed {
			return true, nil
		}
	}
	return false, nil
}

// editProgram applies edits, a byte string read in pairs, to a copy of
// p's ops: each pair swaps two ops, deletes one, or inserts a LockX, an
// Unlock or a Compute that may divide by zero, over entities whose ID
// order is not their name order (and one the store lacks). Most edits
// of a valid program break a §2 rule, so invalid programs are explored
// as well as valid ones.
func editProgram(p *txn.Program, edits []byte) *txn.Program {
	entities := []string{"e2", "e10", "e7", "e30", "e4095", "nosuch"}
	locals := []string{"undeclared"}
	for name := range p.Locals {
		locals = append(locals, name)
	}
	sort.Strings(locals)
	ops := slices.Clone(p.Ops)
	for i := 0; i+1 < len(edits); i += 2 {
		arg := int(edits[i+1])
		n := len(ops)
		at := arg * 13 % (n + 1)
		ent, loc := entities[arg%len(entities)], locals[arg%len(locals)]
		switch edits[i] % 5 {
		case 0:
			if n > 0 {
				j, k := arg%n, arg/7%n
				ops[j], ops[k] = ops[k], ops[j]
			}
		case 1:
			if n > 0 {
				ops = slices.Delete(ops, arg%n, arg%n+1)
			}
		case 2:
			ops = slices.Insert(ops, at, txn.Op{Kind: txn.OpLockX, Entity: ent})
		case 3:
			ops = slices.Insert(ops, at, txn.Op{Kind: txn.OpUnlock, Entity: ent})
		case 4:
			ops = slices.Insert(ops, at, txn.Op{Kind: txn.OpCompute, Local: loc,
				Expr: value.Div(value.L(loc), value.C(int64(arg%3)))})
		}
	}
	return &txn.Program{Name: p.Name, Locals: p.Locals, Ops: ops}
}

var opNumber = regexp.MustCompile(`op (\d+)`)

// asSentError rewrites the op index in err, an error the plain engine
// reported for q = txn.OrderLocks(p), into p's own index: the index an
// ordering engine reports. q lists p's lock requests first, then p's
// other ops in order.
func asSentError(p, q *txn.Program, err error) string {
	msg := err.Error()
	if q == p {
		return msg
	}
	locks := 0
	for _, o := range q.Ops {
		if o.Kind.IsLockRequest() {
			locks++
		}
	}
	return opNumber.ReplaceAllStringFunc(msg, func(m string) string {
		j, _ := strconv.Atoi(m[len("op "):])
		if j < locks {
			return m
		}
		k := j - locks
		for i, o := range p.Ops {
			if !o.Kind.IsLockRequest() {
				if k == 0 {
					return "op " + strconv.Itoa(i)
				}
				k--
			}
		}
		return m
	})
}

// orderedSeeds returns FuzzOrderedRegister's seed programs: four
// hotspot and four uniform generator programs, then programs whose
// locks already lead in ascending ID order, ascend by name but not by
// ID, divide by zero, or break a §2 rule.
func orderedSeeds() []*txn.Program {
	hot := sim.Generate(sim.GenConfig{Txns: 4, DBSize: 64, HotSet: 6, HotProb: 0.9, LocksPerTxn: 5,
		PadOps: 40, Shape: sim.Clustered, Seed: 1}).Programs
	uniform := sim.Generate(sim.GenConfig{Txns: 4, DBSize: orderedEntities, LocksPerTxn: 4,
		SharedProb: 0.8, PadOps: 2, Shape: sim.Scattered, Seed: 1}).Programs
	seeds := append(hot, uniform...)
	seeds = append(seeds,
		// Locks that already lead in ascending ID order.
		sim.CounterProgram("inc", "e7"),
		sim.TransferProgram("xfer", "e2", "e10", 3, 0),
		// Ascending by name, not by ID.
		sim.TransferProgram("xfer", "e10", "e2", 3, 2),
		// A division by zero after the first unlock.
		txn.NewProgram("div").Local("x", 0).LockX("e5").LockX("e1").
			Write("e5", value.C(9)).Unlock("e5").
			Compute("x", value.Div(value.C(1), value.L("x"))).MustBuild(),
		// A division by zero between two locks, so its as-sent index
		// (2) is not its position in the execution order (3).
		txn.NewProgram("div").Local("x", 0).LockX("e5").Write("e5", value.C(9)).
			Compute("x", value.Div(value.C(1), value.L("x"))).LockX("e1").MustBuild(),
		// Invalid: a read of an entity locked only later.
		&txn.Program{Name: "bad", Locals: map[string]int64{"x": 0}, Ops: []txn.Op{
			{Kind: txn.OpLockX, Entity: "e9"}, {Kind: txn.OpRead, Entity: "e3", Local: "x"},
			{Kind: txn.OpLockX, Entity: "e3"}, {Kind: txn.OpCommit}}},
	)
	return seeds
}

// FuzzOrderedRegister checks Config.OrderLocks against its oracle,
// txn.OrderLocks. Each input is a BeginProgram payload, decoded as the
// node decodes a request, and a string of edits (see editProgram) that
// turn it into the program p. An engine with the switch
// registers and runs p; a plain engine registers and runs
// txn.OrderLocks(p), which orders by entity name where the switch
// orders by entity ID. They must agree: the same refusal text for an
// invalid p; for a valid one, the same commit with the same counters,
// locals and final store, or the same run-time failure (named by p's
// own op index) that leaves the same store once aborted.
func FuzzOrderedRegister(f *testing.F) {
	seeds := orderedSeeds()
	hot, uniform := seeds[:4], seeds[4:8]
	for _, p := range seeds {
		f.Add(programPayload(f, p), []byte{})
	}
	f.Add(programPayload(f, hot[0]), []byte{4, 3, 2, 1, 0, 200})
	f.Add(programPayload(f, uniform[0]), []byte{3, 5, 1, 9})
	f.Fuzz(func(t *testing.T, payload, edits []byte) {
		fr, err := wire.DecodeFrame(payload)
		if err != nil {
			t.Skip()
		}
		bp, ok := fr.Msg.(wire.BeginProgram)
		if !ok {
			t.Skip()
		}
		p, err := bp.Program()
		if err != nil {
			t.Skip()
		}
		p = editProgram(p, edits)
		q := txn.OrderLocks(p)
		storeA, storeB := orderedStore(), orderedStore()
		a := core.New(core.Config{Store: storeA, OrderLocks: true})
		b := core.New(core.Config{Store: storeB})
		idA, errA := a.Register(p)
		idB, errB := b.Register(q)
		if (errA == nil) != (errB == nil) || errA != nil && errA.Error() != errB.Error() {
			t.Fatalf("Register: ordered %v, oracle %v\n%s", errA, errB, p)
		}
		if errA != nil {
			return
		}
		okA, runA := soloRun(a, idA, len(p.Ops))
		okB, runB := soloRun(b, idB, len(q.Ops))
		if okA != okB || (runA == nil) != (runB == nil) {
			t.Fatalf("run: ordered committed %v (%v), oracle committed %v (%v)\n%s", okA, runA, okB, runB, p)
		}
		switch {
		case runA != nil:
			if want := asSentError(p, q, runB); runA.Error() != want {
				t.Fatalf("run-time error %q, want %q\n%s", runA, want, p)
			}
			if errA, errB := a.Abort(idA), b.Abort(idB); errA != nil || errB != nil {
				t.Fatalf("abort after failure: ordered %v, oracle %v", errA, errB)
			}
		case okA:
			ra, errA := a.Retire(idA)
			rb, errB := b.Retire(idB)
			if errA != nil || errB != nil {
				t.Fatalf("retire: ordered %v, oracle %v", errA, errB)
			}
			if ra.Stats != rb.Stats || !slices.Equal(ra.LocalNames, rb.LocalNames) || !slices.Equal(ra.Locals, rb.Locals) {
				t.Fatalf("outcome: ordered %+v, oracle %+v\n%s", ra, rb, p)
			}
		default:
			t.Fatalf("neither engine finished %d ops\n%s", len(p.Ops), p)
		}
		if ids := a.IDs(); len(ids) != 0 {
			t.Fatalf("ordered engine keeps %v", ids)
		}
		if sa, sb := storeA.Snapshot(), storeB.Snapshot(); !maps.Equal(sa, sb) {
			t.Fatalf("final stores differ\n%s", p)
		}
	})
}

// TestOrderedRegisterAllocs pins what the ordering switch costs on the
// node's path. A one-lock counter program (every durable and paged
// request) needs no execution order, so its register, run to commit
// and Retire allocate exactly what they do on a plain engine: 7. A
// hotspot program that must be reordered costs its order slice, one
// allocation more than a plain registration, and 7 plain from register
// to Retire: its lock bookkeeping is sized at registration and never
// grows.
func TestOrderedRegisterAllocs(t *testing.T) {
	const counterAllocs, hotRunAllocs = 7, 7
	cycle := func(s *core.System, p *txn.Program, run bool) {
		id, err := s.Register(p)
		if err != nil {
			t.Fatal(err)
		}
		if !run {
			if err := s.Abort(id); err != nil {
				t.Fatal(err)
			}
			return
		}
		if ok, err := soloRun(s, id, len(p.Ops)); !ok || err != nil {
			t.Fatalf("run: committed %v, %v", ok, err)
		}
		if _, err := s.Retire(id); err != nil {
			t.Fatal(err)
		}
	}
	allocs := func(ordered bool, p *txn.Program, run bool) float64 {
		s := core.New(core.Config{Store: entity.NewUniformStore("e", 64, 0), OrderLocks: ordered})
		return testing.AllocsPerRun(200, func() { cycle(s, p, run) })
	}
	counter := sim.CounterProgram("inc", "e7")
	if plain, ordered := allocs(false, counter, true), allocs(true, counter, true); plain != counterAllocs || ordered != counterAllocs {
		t.Errorf("counter program: %v allocations plain, %v ordered, want %d and %d", plain, ordered, counterAllocs, counterAllocs)
	}
	hot := hotspotProgram(t)
	if plain, ordered := allocs(false, hot, false), allocs(true, hot, false); ordered != plain+1 {
		t.Errorf("hotspot program: %v allocations ordered, want %v (plain) + 1", ordered, plain)
	}
	if plain, ordered := allocs(false, hot, true), allocs(true, hot, true); plain != hotRunAllocs || ordered != hotRunAllocs+1 {
		t.Errorf("hotspot program run to commit: %v allocations plain, %v ordered, want %d and %d", plain, ordered, hotRunAllocs, hotRunAllocs+1)
	}
}

// TestOrderLocksRequiresTotal: the ordering switch is defined for
// strategy Total only, so New refuses it with any other.
func TestOrderLocksRequiresTotal(t *testing.T) {
	for _, st := range []core.Strategy{core.MCS, core.SDG, core.Hybrid} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("New with OrderLocks and %v did not panic", st)
				}
			}()
			core.New(core.Config{Store: entity.NewUniformStore("e", 1, 0), Strategy: st, OrderLocks: true})
		}()
	}
}

// TestOrderLocksAcquiresByID: an ordering engine takes every lock
// first, in ascending entity-ID order, whatever order the program sends
// them in. On this store e2's ID is below e10's, though "e10" < "e2".
func TestOrderLocksAcquiresByID(t *testing.T) {
	for _, p := range []*txn.Program{
		txn.NewProgram("desc").LockX("e10").LockS("e2").MustBuild(),
		txn.NewProgram("asc").LockS("e2").LockX("e10").MustBuild(),
		txn.NewProgram("late").Local("x", 0).LockX("e10").Compute("x", value.C(1)).
			LockS("e2").Read("e2", "x").MustBuild(),
	} {
		s := core.New(core.Config{Store: entity.NewUniformStore("e", 64, 0), OrderLocks: true})
		id := s.MustRegister(p)
		var held []string
		for range 2 {
			if _, err := s.Step(id); err != nil {
				t.Fatal(err)
			}
			held = append(held, strings.Join(s.Held(id), " "))
		}
		if want := []string{"e2", "e10 e2"}; !slices.Equal(held, want) {
			t.Errorf("%s: held %q after its first two steps, want %q", p.Name, held, want)
		}
	}
}
