package core

import (
	"testing"

	"partialrollback/internal/entity"
	"partialrollback/internal/txn"
	"partialrollback/internal/value"
)

// sharedReadProgram locks ent shared and then reads it and computes on
// the value n times: the read-mostly shape of the uniform workload.
func sharedReadProgram(ent string, n int) *txn.Program {
	b := txn.NewProgram("read-"+ent).Local("x", 0).LockS(ent)
	for i := 0; i < n; i++ {
		b.Read(ent, "x")
		b.Compute("x", value.Add(value.L("x"), value.C(1)))
	}
	return b.MustBuild()
}

// TestStripedStepsZeroAlloc pins the shared-hold step path at zero
// allocations: once a transaction holds a shared lock, stepping its
// reads (served from the global store) and computes allocates nothing.
// TestComputeReadWriteStepsZeroAlloc covers the exclusive-hold path.
func TestStripedStepsZeroAlloc(t *testing.T) {
	store := entity.NewStore(map[string]int64{"a": 1})
	s := New(Config{Store: store})
	id := s.MustRegister(sharedReadProgram("a", 600))
	if res, err := s.Step(id); err != nil || res.Outcome != Progressed {
		t.Fatalf("lock step: %+v, %v", res, err)
	}
	if n := testing.AllocsPerRun(500, func() {
		res, err := s.Step(id)
		if err != nil || res.Outcome != Progressed {
			t.Fatalf("step: %+v, %v", res, err)
		}
	}); n != 0 {
		t.Fatalf("shared read/compute step allocates %v per run, want 0", n)
	}
}

// BenchmarkStripedUncontendedTxn is BenchmarkUncontendedTxn for a
// read-only transaction: register -> S-grant -> read -> compute ->
// commit -> forget, with no contention.
func BenchmarkStripedUncontendedTxn(b *testing.B) {
	store := entity.NewStore(map[string]int64{"a": 0})
	s := New(Config{Store: store})
	prog := sharedReadProgram("a", 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		id, err := s.Register(prog)
		if err != nil {
			b.Fatal(err)
		}
		for {
			res, err := s.Step(id)
			if err != nil {
				b.Fatal(err)
			}
			if res.Outcome == Committed {
				break
			}
		}
		if err := s.Forget(id); err != nil {
			b.Fatal(err)
		}
	}
}
