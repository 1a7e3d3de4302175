package main

import (
	"fmt"
	"hash/fnv"
	"path/filepath"

	"partialrollback/internal/sim"
	"partialrollback/internal/txn"
	"partialrollback/internal/wire"
)

// Load shape shared by every workload: closed loop, because a caller
// waits for its commit reply before it sends the next transaction.
const (
	streams = 16 // concurrent transactions
	sockets = 2  // multiplexed connections they share
	slices  = 5  // back-to-back slices of one timed run; metrics are slice medians

	// pinnedSeed is the one seed whose workload digests are pinned below;
	// other seeds only record theirs.
	pinnedSeed = 1
	// warmSeedOffset keeps warm-up programs distinct from timed ones.
	warmSeedOffset = 1000
	// soloSeedOffset seeds the one-stream budget phase of the traced run.
	soloSeedOffset = 2000
)

// workload is one traffic mix plus the node configuration it runs
// against; why each was chosen is in BENCHMARK.json and README.md. Only
// flags that select data and durability appear in serverArgs: tuning
// knobs stay at the shipped default so that "the default is the
// best-known configuration" stays a measured obligation.
type workload struct {
	name string
	// entities is the server's -entities and the ladder store's size.
	entities int
	// gen builds n programs from seed with the existing internal/sim
	// generators.
	gen func(seed int64, n int) []*txn.Program
	// pool is how many programs each stream generates and then cycles
	// through; warm is the fixed warm-up count per stream (fixed so that
	// setup_s reflects the node's speed, not a timer).
	pool, warm int
	// counter marks a counter workload: every acknowledged commit adds
	// one to the sum of all entities, which the harness reads back.
	counter bool
	// wal marks the durable workload: kill -9, restart, recover.
	wal bool
	// paged marks the larger-than-cache workload.
	paged bool
	// digest is the pinned FNV-64a of the wire encoding of every program
	// generated for pinnedSeed (all streams, in stream order).
	digest string
}

var workloads = []*workload{
	{
		name: "uniform",
		gen: func(seed int64, n int) []*txn.Program {
			return sim.Generate(sim.GenConfig{Txns: n, DBSize: 4096, HotSet: 0, LocksPerTxn: 4,
				SharedProb: 0.8, PadOps: 2, Shape: sim.Scattered, Seed: seed}).Programs
		},
		entities: 4096, pool: 1000, warm: 250,
		digest: "2ab9302134a4977e",
	},
	{
		name: "hotspot",
		gen: func(seed int64, n int) []*txn.Program {
			return sim.Generate(sim.GenConfig{Txns: n, DBSize: 64, HotSet: 6, HotProb: 0.9, LocksPerTxn: 5,
				SharedProb: 0, PadOps: 40, Shape: sim.Clustered, Seed: seed}).Programs
		},
		entities: 64, pool: 100, warm: 60,
		digest: "421bee89e79c0df1",
	},
	{
		name: "durable",
		gen: func(seed int64, n int) []*txn.Program {
			return sim.CounterWorkload(64, n, seed).Programs
		},
		entities: 64, pool: 2000, warm: 150, counter: true, wal: true,
		digest: "527b7753b245b0b5",
	},
	{
		name: "paged",
		gen: func(seed int64, n int) []*txn.Program {
			return sim.CounterWorkload(100000, n, seed).Programs
		},
		entities: 100000, pool: 4000, warm: 400, counter: true, paged: true,
		digest: "937a34144e62ed6d",
	},
}

func findWorkload(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// Data-and-durability settings of the two stateful workloads. The
// checkpoint trigger is half the issue's 262144 so that the 8 s traced
// phase of a 20 s run still sees five or more checkpoint cycles.
const (
	checkpointBytes = 131072
	poolPages       = 16
	pageSize        = 4096
)

// serverArgs returns the node's data and durability flags; dir is the
// run's private temp directory.
func (w *workload) serverArgs(dir string) []string {
	args := []string{"-entities", fmt.Sprint(w.entities), "-accounts", "0"}
	if w.wal {
		args = append(args, "-wal", w.walDir(dir), "-fsync", "group",
			"-checkpoint-bytes", fmt.Sprint(checkpointBytes))
	}
	if w.paged {
		args = append(args, "-store", "paged", "-pool-pages", fmt.Sprint(poolPages),
			"-page-size", fmt.Sprint(pageSize), "-heap", w.heapPath(dir))
	}
	return args
}

func (w *workload) walDir(dir string) string   { return filepath.Join(dir, "wal") }
func (w *workload) heapPath(dir string) string { return filepath.Join(dir, "heap.dat") }

// programs generates each stream's pool: stream i uses seed+i.
func (w *workload) programs(seed int64, perStream int) [][]*txn.Program {
	out := make([][]*txn.Program, streams)
	for i := range out {
		out[i] = w.gen(seed+int64(i), perStream)
	}
	return out
}

// digestOf is FNV-64a over the v3 wire encoding of every program, in
// stream order: it changes whenever a generator, the program builder or
// the request encoding changes what the node is sent.
func digestOf(progs [][]*txn.Program) (string, error) {
	h := fnv.New64a()
	var buf []byte
	for _, ps := range progs {
		for _, p := range ps {
			bp, err := wire.ProgramFrame(p)
			if err != nil {
				return "", err
			}
			if buf, err = wire.AppendTagged(buf[:0], 1, bp); err != nil {
				return "", err
			}
			h.Write(buf)
		}
	}
	return fmt.Sprintf("%016x", h.Sum64()), nil
}
