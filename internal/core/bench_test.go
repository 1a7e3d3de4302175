package core

import (
	"strconv"
	"testing"

	"partialrollback/internal/entity"
	"partialrollback/internal/txn"
	"partialrollback/internal/value"
)

// TestComputeReadWriteStepsZeroAlloc pins the tentpole property on the
// engine's op-execution path: once a transaction holds its locks,
// stepping read/compute/write operations allocates nothing — locals
// live in a slot-indexed slice, and each expression runs as postfix
// code over them (value.Code.Eval) with its value stack on the Go
// stack.
func TestComputeReadWriteStepsZeroAlloc(t *testing.T) {
	store := entity.NewStore(map[string]int64{"a": 1})
	s := New(Config{Store: store})
	b := txn.NewProgram("hot").Local("x", 0).LockX("a").Read("a", "x")
	for i := 0; i < 600; i++ {
		b.Compute("x", value.Add(value.L("x"), value.C(1)))
		b.Write("a", value.L("x"))
	}
	prog := b.MustBuild()
	id := s.MustRegister(prog)
	// Execute the lock grant and first read so the steady state begins.
	for i := 0; i < 2; i++ {
		if res, err := s.Step(id); err != nil || res.Outcome != Progressed {
			t.Fatalf("setup step %d: %+v, %v", i, res, err)
		}
	}
	if n := testing.AllocsPerRun(500, func() {
		res, err := s.Step(id)
		if err != nil || res.Outcome != Progressed {
			t.Fatalf("step: %+v, %v", res, err)
		}
	}); n != 0 {
		t.Fatalf("compute/write step allocates %v per run, want 0", n)
	}
}

// benchProgram is the hotspot-style transaction the throughput
// benchmarks run: lock, read, compute, write, commit.
func benchProgram(ent string) *txn.Program {
	return txn.NewProgram("bench-"+ent).
		Local("x", 0).
		LockX(ent).
		Read(ent, "x").
		Compute("x", value.Add(value.L("x"), value.C(1))).
		Write(ent, value.L("x")).
		MustBuild()
}

// BenchmarkUncontendedTxn measures one full register -> lock -> read ->
// compute -> write -> commit -> forget cycle with no contention — the
// engine-level grant/release hot path.
func BenchmarkUncontendedTxn(b *testing.B) {
	store := entity.NewStore(map[string]int64{"a": 0})
	s := New(Config{Store: store})
	prog := benchProgram("a")
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

// uniformProgram is shaped like the bench "uniform" workload's
// transactions (sim.Generate with 4 locks, 80 % shared, 2 pad ops,
// scattered): per entity a lock, a read, two pad computes and an
// accumulator compute, plus one write under the one exclusive lock — 22
// ops over 9 locals.
func uniformProgram() *txn.Program {
	b := txn.NewProgram("uniform").Local("acc", 0)
	for k, e := range []string{"e17", "e230", "e1023", "e4000"} {
		v, pad := "v"+strconv.Itoa(k), "s"+strconv.Itoa(k)
		b.Local(v, 0).Local(pad, 0)
		if k == 1 {
			b.LockX(e)
		} else {
			b.LockS(e)
		}
		b.Read(e, v)
		b.Compute(pad, value.Add(value.L(pad), value.C(1)))
		b.Compute(pad, value.Add(value.L(pad), value.C(1)))
		b.Compute("acc", value.Add(value.L("acc"), value.L(v)))
		if k == 1 {
			b.Write(e, value.Add(value.L(v), value.Add(value.Mod(value.L(pad), value.C(7)), value.C(1))))
		}
	}
	return b.MustBuild()
}

// registerCycle registers prog on s and retires it unrun (Abort: Forget
// accepts only committed transactions) — the registration cost alone.
func registerCycle(tb testing.TB, s *System, prog *txn.Program) {
	id, err := s.Register(prog)
	if err != nil {
		tb.Fatal(err)
	}
	if err := s.Abort(id); err != nil {
		tb.Fatal(err)
	}
}

// registerAllocs bounds one MCS Register + Abort of uniformProgram:
// validation and the slice-indexed analysis, per-op interning, the
// transaction state and its MCS copies. The write-interval maps
// (txn.Writes) are SDG/Hybrid-only; building them here too costs 43
// more allocations.
const registerAllocs = 15

// TestRegisterAllocs pins the allocation count of one MCS registration
// cycle (see registerAllocs).
func TestRegisterAllocs(t *testing.T) {
	s := New(Config{Store: entity.NewUniformStore("e", 4096, 0), Strategy: MCS})
	prog := uniformProgram()
	if n := len(prog.Ops); n != 22 {
		t.Fatalf("uniformProgram has %d ops, want 22", n)
	}
	if n := testing.AllocsPerRun(200, func() { registerCycle(t, s, prog) }); n > registerAllocs {
		t.Fatalf("MCS Register+Abort allocates %v per run, want <= %d", n, registerAllocs)
	}
}

// hotspotProgram is shaped like the bench "hotspot" workload's
// transactions (sim.Generate with 5 exclusive locks, 40 pad ops,
// clustered): per entity a lock, a read, 40 pad computes and two
// writes — 221 ops over 10 locals. Its locks do not come in ascending
// entity-ID order, so an ordering engine reorders it.
func hotspotProgram() *txn.Program {
	b := txn.NewProgram("hotspot")
	for k, e := range []string{"e4", "e1", "e5", "e0", "e3"} {
		v, pad := "v"+strconv.Itoa(k), "s"+strconv.Itoa(k)
		b.Local(v, 0).Local(pad, 0)
		b.LockX(e).Read(e, v)
		for i := 0; i < 40; i++ {
			b.Compute(pad, value.Add(value.L(pad), value.C(1)))
		}
		for i := 0; i < 2; i++ {
			b.Write(e, value.Add(value.L(v), value.Add(value.Mod(value.L(pad), value.C(7)), value.C(1))))
		}
	}
	return b.MustBuild()
}

// BenchmarkRegister measures one Register + Abort of a hotspot-shaped
// program on the node's engine configuration: strategy Total with
// Config.OrderLocks, so registration also builds the execution order.
func BenchmarkRegister(b *testing.B) {
	s := New(Config{Store: entity.NewUniformStore("e", 64, 0), OrderLocks: true})
	prog := hotspotProgram()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		registerCycle(b, s, prog)
	}
}

// TestStepBurstZeroAlloc pins the same property on the burst path: a
// StepBurst call over the steady-state compute/write stream must not
// allocate beyond what the per-step path does — the burst loop itself
// is just a counter around stepLocked.
func TestStepBurstZeroAlloc(t *testing.T) {
	store := entity.NewStore(map[string]int64{"a": 1})
	s := New(Config{Store: store})
	b := txn.NewProgram("hot").Local("x", 0).LockX("a").Read("a", "x")
	for i := 0; i < 20000; i++ {
		b.Compute("x", value.Add(value.L("x"), value.C(1)))
		b.Write("a", value.L("x"))
	}
	prog := b.MustBuild()
	id := s.MustRegister(prog)
	for i := 0; i < 2; i++ {
		if res, err := s.Step(id); err != nil || res.Outcome != Progressed {
			t.Fatalf("setup step %d: %+v, %v", i, res, err)
		}
	}
	if n := testing.AllocsPerRun(500, func() {
		res, steps, err := s.StepBurst(id, 64)
		if err != nil || res.Outcome != Progressed || steps != 64 {
			t.Fatalf("burst: %+v, %d, %v", res, steps, err)
		}
	}); n != 0 {
		t.Fatalf("StepBurst allocates %v per run, want 0", n)
	}
}

// BenchmarkStepBurst measures the burst-scheduling win in isolation:
// one transaction stepping a long compute/write stream under a single
// mutex acquisition per burst. Sub-benchmarks sweep the burst size so
// the per-acquisition amortisation is visible (burst=1 is the old
// one-lock-per-step cost).
func BenchmarkStepBurst(b *testing.B) {
	for _, burst := range []int{1, 4, 16, 64} {
		b.Run("burst="+strconv.Itoa(burst), func(b *testing.B) {
			store := entity.NewStore(map[string]int64{"a": 1})
			s := New(Config{Store: store})
			pb := txn.NewProgram("hot").Local("x", 0).LockX("a").Read("a", "x")
			for i := 0; i < 4096; i++ {
				pb.Compute("x", value.Add(value.L("x"), value.C(1)))
				pb.Write("a", value.L("x"))
			}
			prog := pb.MustBuild()
			id := s.MustRegister(prog)
			b.ReportAllocs()
			b.ResetTimer()
			steps := 0
			for i := 0; i < b.N; i++ {
				res, n, err := s.StepBurst(id, burst)
				if err != nil {
					b.Fatal(err)
				}
				steps += n
				if res.Outcome == Committed {
					// Recycle: amortised over ~8k steps per program.
					if err := s.Forget(id); err != nil {
						b.Fatal(err)
					}
					id = s.MustRegister(prog)
				}
			}
			b.ReportMetric(float64(steps)/float64(b.N), "steps/op")
		})
	}
}

// TestCommitStepZeroAlloc pins the memory-only commit path: with no
// CommitLogger configured, the commit step (install writes, release
// locks, retire the transaction) must not allocate — the durability
// hook must cost nothing when disabled. Each run commits a distinct
// pre-stepped transaction on its own entity.
func TestCommitStepZeroAlloc(t *testing.T) {
	const runs = 300
	initial := make(map[string]int64, runs+1)
	for i := 0; i <= runs; i++ {
		initial["e"+strconv.Itoa(i)] = 0
	}
	store := entity.NewStore(initial)
	s := New(Config{Store: store})
	ids := make([]txn.ID, 0, runs+1)
	for i := 0; i <= runs; i++ {
		ent := "e" + strconv.Itoa(i)
		prog := txn.NewProgram("commit-"+ent).
			Local("x", 0).
			LockX(ent).
			Read(ent, "x").
			Write(ent, value.Add(value.L("x"), value.C(1))).
			MustBuild()
		id := s.MustRegister(prog)
		// Step to the brink of commit: lock, read, write.
		for j := 0; j < 3; j++ {
			if res, err := s.Step(id); err != nil || res.Outcome != Progressed {
				t.Fatalf("setup step %d/%d: %+v, %v", i, j, res, err)
			}
		}
		ids = append(ids, id)
	}
	next := 0
	if n := testing.AllocsPerRun(runs, func() {
		res, err := s.Step(ids[next])
		next++
		if err != nil || res.Outcome != Committed {
			t.Fatalf("commit step: %+v, %v", res, err)
		}
	}); n != 0 {
		t.Fatalf("memory-only commit step allocates %v per run, want 0", n)
	}
}
