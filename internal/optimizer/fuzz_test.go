package optimizer

import (
	"testing"

	"partialrollback/internal/entity"
	"partialrollback/internal/txn"
	"partialrollback/internal/value"
)

// fuzzProgram decodes bytes into a valid program (mirrors the core
// fuzzer's encoding, without unlocks so more programs transform).
func fuzzProgram(data []byte) (*txn.Program, bool) {
	b := txn.NewProgram("F").
		Local("l0", 1).Local("l1", 2)
	entities := []string{"a", "b", "c", "d"}
	locals := []string{"l0", "l1"}
	locked := map[string]bool{}
	didLock := false
	for i := 0; i+1 < len(data); i += 2 {
		op := data[i] % 5
		arg := int(data[i+1])
		ent := entities[arg%len(entities)]
		loc := locals[arg%len(locals)]
		switch op {
		case 0:
			if locked[ent] {
				continue
			}
			b.LockX(ent)
			locked[ent] = true
			didLock = true
		case 1:
			if locked[ent] {
				continue
			}
			b.LockS(ent)
			locked[ent] = true
			didLock = true
		case 2:
			if !locked[ent] {
				continue
			}
			b.Read(ent, loc)
		case 3:
			if !locked[ent] || !didLock {
				continue
			}
			b.Write(ent, value.Add(value.L("l0"), value.Add(value.L("l1"), value.C(int64(arg)))))
		case 4:
			if !didLock {
				continue
			}
			b.Compute(loc, value.Add(value.L(loc), value.L(locals[(arg+1)%len(locals)])))
		}
	}
	p, err := b.Build()
	if err != nil {
		return nil, false
	}
	return p, true
}

// FuzzClusterWritesPreservesSemantics: for any valid program, the
// transformed program must validate, never lose well-defined states,
// and compute identical final database values when run alone.
func FuzzClusterWritesPreservesSemantics(f *testing.F) {
	f.Add([]byte{0, 0, 2, 0, 3, 1, 0, 1, 3, 0})
	f.Add([]byte{0, 0, 4, 0, 0, 1, 4, 1, 3, 0, 3, 1})
	f.Add([]byte{1, 0, 2, 0, 0, 1, 3, 1, 2, 1, 4, 0})
	newStore := func() *entity.Store {
		return entity.NewStore(map[string]int64{"a": 5, "b": 6, "c": 7, "d": 8})
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		p, ok := fuzzProgram(data)
		if !ok {
			t.Skip()
		}
		res, err := ClusterWrites(p)
		if err != nil {
			t.Fatalf("transform failed on valid program: %v\n%s", err, p)
		}
		if err := txn.Validate(res.Program); err != nil {
			t.Fatalf("transformed program invalid: %v", err)
		}
		before := txn.AnalyzeWrites(p).WellDefinedCount()
		after := txn.AnalyzeWrites(res.Program).WellDefinedCount()
		if after < before {
			t.Fatalf("well-defined count regressed %d -> %d\noriginal:\n%s\ntransformed:\n%s",
				before, after, p, res.Program)
		}
		equiv, err := Equivalent(p, res.Program, newStore)
		if err != nil {
			t.Fatal(err)
		}
		if !equiv {
			t.Fatalf("semantics changed\noriginal:\n%s\ntransformed:\n%s", p, res.Program)
		}
	})
}
