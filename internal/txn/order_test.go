package txn_test

import (
	"testing"

	"partialrollback/internal/entity"
	"partialrollback/internal/optimizer"
	"partialrollback/internal/sim"
	"partialrollback/internal/txn"
	"partialrollback/internal/value"
)

// assertOrdered fails unless q's lock requests lead it in strictly
// ascending entity order.
func assertOrdered(t *testing.T, q *txn.Program) {
	t.Helper()
	lead := 0
	for lead < len(q.Ops) && q.Ops[lead].Kind.IsLockRequest() {
		if lead > 0 && q.Ops[lead-1].Entity >= q.Ops[lead].Entity {
			t.Fatalf("lock %d (%s) does not ascend:\n%s", lead, q.Ops[lead], q)
		}
		lead++
	}
	for i, o := range q.Ops[lead:] {
		if o.Kind.IsLockRequest() {
			t.Fatalf("op %d (%s) is a lock request after the leading locks:\n%s", lead+i, o, q)
		}
	}
}

func TestOrderLocksHoistsAndSorts(t *testing.T) {
	p := txn.NewProgram("T").Local("x", 0).Local("y", 0).
		LockX("c").Read("c", "x").
		LockS("a").Read("a", "y").
		Write("c", value.Add(value.L("x"), value.L("y"))).
		LockX("b").Write("b", value.L("x")).
		Unlock("a").
		MustBuild()
	q := txn.OrderLocks(p)
	want := []txn.Op{
		{Kind: txn.OpLockS, Entity: "a"},
		{Kind: txn.OpLockX, Entity: "b"},
		{Kind: txn.OpLockX, Entity: "c"},
	}
	for i, w := range want {
		if q.Ops[i].Kind != w.Kind || q.Ops[i].Entity != w.Entity {
			t.Fatalf("op %d = %s, want %s\n%s", i, q.Ops[i], w, q)
		}
	}
	rest := 0
	for _, o := range p.Ops {
		if !o.Kind.IsLockRequest() {
			if got := q.Ops[len(want)+rest]; got.Kind != o.Kind || got.Entity != o.Entity || got.Local != o.Local {
				t.Fatalf("op %d = %s, want %s", len(want)+rest, got, o)
			}
			rest++
		}
	}
	if len(q.Ops) != len(p.Ops) || q.Name != p.Name {
		t.Fatalf("ordered program has %d ops named %q, want %d named %q", len(q.Ops), q.Name, len(p.Ops), p.Name)
	}
	if err := txn.Validate(q); err != nil {
		t.Fatal(err)
	}
}

// TestOrderLocksReturnsP covers each case in which OrderLocks hands
// back the program it was given: locks that already lead in ascending
// order, and the invalid programs whose fault hoisting would hide.
func TestOrderLocksReturnsP(t *testing.T) {
	lx := func(e string) txn.Op { return txn.Op{Kind: txn.OpLockX, Entity: e} }
	rd := func(e string) txn.Op { return txn.Op{Kind: txn.OpRead, Entity: e, Local: "x"} }
	wr := func(e string) txn.Op { return txn.Op{Kind: txn.OpWrite, Entity: e, Expr: value.L("x")} }
	commit := txn.Op{Kind: txn.OpCommit}
	for _, tc := range []struct {
		name  string
		ops   []txn.Op
		valid bool
	}{
		{"one lock first", []txn.Op{lx("a"), rd("a"), wr("a"), commit}, true},
		{"ascending locks lead", []txn.Op{lx("a"), lx("b"), rd("a"), wr("b"), commit}, true},
		{"no locks", []txn.Op{commit}, true},
		{"first op not a lock", []txn.Op{rd("b"), lx("a"), lx("b"), commit}, false},
		{"unlock before last lock", []txn.Op{lx("b"), {Kind: txn.OpUnlock, Entity: "b"}, lx("a"), commit}, false},
		{"DeclareLastLock before last lock", []txn.Op{lx("b"), {Kind: txn.OpDeclareLastLock}, lx("a"), commit}, false},
		{"read of an entity locked later", []txn.Op{lx("b"), rd("a"), lx("a"), commit}, false},
		{"write of an entity locked later", []txn.Op{lx("b"), wr("a"), lx("a"), commit}, false},
		{"entity locked twice", []txn.Op{lx("b"), lx("a"), lx("b"), commit}, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p := &txn.Program{Name: "T", Locals: map[string]int64{"x": 1}, Ops: tc.ops}
			if err := txn.Validate(p); (err == nil) != tc.valid {
				t.Fatalf("Validate = %v, want valid %v", err, tc.valid)
			}
			if q := txn.OrderLocks(p); q != p {
				t.Fatalf("OrderLocks returned a new program:\n%s", q)
			}
		})
	}
}

// TestOrderLocksAllocs pins the rewrite's cost: a counter program comes
// back as is, and a hotspot program costs the new Program and its op
// slice. The node does not call it (its engine orders inside Register,
// by entity ID, under core.Config.OrderLocks); sim's ordered sweep for
// E24 does, and core's FuzzOrderedRegister uses it as the oracle.
func TestOrderLocksAllocs(t *testing.T) {
	counter := sim.CounterProgram("inc", "e7")
	if allocs := testing.AllocsPerRun(100, func() {
		if txn.OrderLocks(counter) != counter {
			t.Fatal("counter program reordered")
		}
	}); allocs != 0 {
		t.Errorf("counter program: %.0f allocations, want 0", allocs)
	}

	var hot *txn.Program
	for _, p := range sim.Generate(sim.GenConfig{Txns: 64, DBSize: 64, HotSet: 6, HotProb: 0.9,
		LocksPerTxn: 5, PadOps: 40, Shape: sim.Clustered, Seed: 1}).Programs {
		if txn.OrderLocks(p) != p {
			hot = p
			break
		}
	}
	if hot == nil {
		t.Fatal("no hotspot program needed reordering")
	}
	if allocs := testing.AllocsPerRun(100, func() { txn.OrderLocks(hot) }); allocs > 2 {
		t.Errorf("hotspot program: %.0f allocations, want <= 2", allocs)
	}
}

// fuzzOps decodes bytes into a program over entities a..d and locals
// l0, l1 that may break any of Validate's rules.
func fuzzOps(data []byte) *txn.Program {
	entities := []string{"a", "b", "c", "d"}
	locals := []string{"l0", "l1"}
	p := &txn.Program{Name: "F", Locals: map[string]int64{"l0": 1, "l1": 2}}
	for i := 0; i+1 < len(data); i += 2 {
		arg := int(data[i+1])
		ent, loc := entities[arg%len(entities)], locals[arg%len(locals)]
		var o txn.Op
		switch data[i] % 8 {
		case 0:
			o = txn.Op{Kind: txn.OpLockX, Entity: ent}
		case 1:
			o = txn.Op{Kind: txn.OpLockS, Entity: ent}
		case 2:
			o = txn.Op{Kind: txn.OpRead, Entity: ent, Local: loc}
		case 3:
			o = txn.Op{Kind: txn.OpWrite, Entity: ent,
				Expr: value.Add(value.L("l0"), value.Add(value.L("l1"), value.C(int64(arg))))}
		case 4:
			o = txn.Op{Kind: txn.OpCompute, Local: loc,
				Expr: value.Add(value.L(loc), value.L(locals[(arg+1)%len(locals)]))}
		case 5:
			o = txn.Op{Kind: txn.OpUnlock, Entity: ent}
		case 6:
			o = txn.Op{Kind: txn.OpDeclareLastLock}
		case 7:
			o = txn.Op{Kind: txn.OpCommit}
		}
		p.Ops = append(p.Ops, o)
	}
	if len(data)%2 == 0 {
		p.Ops = append(p.Ops, txn.Op{Kind: txn.OpCommit})
	}
	return p
}

// FuzzOrderLocks checks OrderLocks against Validate and a solo run:
// ordering never changes whether a program is valid, an invalid
// program comes back as is, and a valid one comes back with ascending
// leading locks and the same effect on the database.
func FuzzOrderLocks(f *testing.F) {
	f.Add([]byte{0, 2, 2, 2, 0, 0, 3, 0, 3, 2})
	f.Add([]byte{1, 3, 2, 3, 4, 0, 0, 1, 3, 1, 5, 3, 6, 0})
	f.Add([]byte{0, 1, 2, 0, 0, 0, 3, 1})
	f.Add([]byte{0, 3, 0, 2, 0, 1, 0, 0, 2, 0, 3, 1, 3, 2, 3, 3, 5, 0})
	newStore := func() *entity.Store {
		return entity.NewStore(map[string]int64{"a": 5, "b": 6, "c": 7, "d": 8})
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		p := fuzzOps(data)
		q := txn.OrderLocks(p)
		perr, qerr := txn.Validate(p), txn.Validate(q)
		if (perr == nil) != (qerr == nil) {
			t.Fatalf("Validate(p) = %v, Validate(OrderLocks(p)) = %v\np:\n%s\nq:\n%s", perr, qerr, p, q)
		}
		if perr != nil {
			if q != p {
				t.Fatalf("invalid program (%v) reordered:\n%s", perr, q)
			}
			return
		}
		assertOrdered(t, q)
		equiv, err := optimizer.Equivalent(p, q, newStore)
		if err != nil {
			t.Fatal(err)
		}
		if !equiv {
			t.Fatalf("ordering changed the program's effect\np:\n%s\nq:\n%s", p, q)
		}
	})
}
