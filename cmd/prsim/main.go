// Command prsim runs one generated workload under a chosen rollback
// strategy, victim policy, and scheduler, and prints the run metrics —
// the interactive companion to cmd/prbench's fixed suite.
//
// Usage:
//
//	prsim -txns 16 -db 24 -locks 5 -shape scattered -strategy mcs \
//	      -policy ordered-min-cost -scheduler round-robin -seed 42
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"partialrollback/internal/core"
	"partialrollback/internal/deadlock"
	"partialrollback/internal/sim"
	"partialrollback/internal/trace"
)

var (
	txns      = flag.Int("txns", 16, "number of transactions")
	db        = flag.Int("db", 24, "number of entities")
	locks     = flag.Int("locks", 5, "locks per transaction")
	hotSet    = flag.Int("hotset", 8, "hot-set size (0 disables skew)")
	hotProb   = flag.Float64("hotprob", 0.8, "probability a lock hits the hot set")
	shared    = flag.Float64("shared", 0, "probability a lock is shared")
	rewrite   = flag.Float64("rewrite", 0.4, "rewrite probability (scattered shape)")
	pad       = flag.Int("pad", 3, "compute padding per lock interval")
	shape     = flag.String("shape", "scattered", "write shape: scattered|clustered|three-phase|mixed")
	strategy  = flag.String("strategy", "mcs", "rollback strategy: total|mcs|sdg|hybrid")
	policy    = flag.String("policy", "ordered-min-cost", "victim policy: min-cost|ordered-min-cost|requester|youngest-victim")
	sched     = flag.String("scheduler", "round-robin", "scheduler: round-robin|random")
	seed      = flag.Int64("seed", 42, "workload and scheduler seed")
	prevent   = flag.String("prevention", "", "prevention mode: wound-wait|wait-die (empty = detection)")
	events    = flag.Bool("events", false, "print deadlock and rollback events")
	check     = flag.Bool("check", false, "record history and verify serializability")
	traceFile = flag.String("trace", "", "write a JSON-lines event trace to this file")
)

func parseShape(s string) (sim.WriteShape, error) {
	switch s {
	case "scattered":
		return sim.Scattered, nil
	case "clustered":
		return sim.Clustered, nil
	case "three-phase", "threephase":
		return sim.ThreePhase, nil
	case "mixed":
		return sim.Mixed, nil
	}
	return 0, fmt.Errorf("unknown shape %q", s)
}

func main() {
	log.SetFlags(0)
	flag.Parse()

	sh, err := parseShape(*shape)
	if err != nil {
		log.Fatal(err)
	}
	st, err := core.ParseStrategy(*strategy)
	if err != nil {
		log.Fatal(err)
	}
	resolver, err := deadlock.Parse(*prevent, *policy)
	if err != nil {
		log.Fatal(err)
	}
	scheduler := sim.RoundRobin
	if *sched == "random" {
		scheduler = sim.RandomPick
	}

	w := sim.Generate(sim.GenConfig{
		Txns: *txns, DBSize: *db, LocksPerTxn: *locks,
		HotSet: *hotSet, HotProb: *hotProb, SharedProb: *shared,
		RewriteProb: *rewrite, PadOps: *pad, Shape: sh, Seed: *seed,
	})
	fmt.Printf("workload: %s\n", w.Name)

	rc := sim.RunConfig{
		Strategy: st, Resolver: resolver, Scheduler: scheduler,
		Seed: *seed, RecordHistory: *check,
	}
	var hooks []func(core.Event)
	if *events {
		hooks = append(hooks, func(e core.Event) {
			switch e.Kind {
			case core.EventDeadlock, core.EventRollback:
				fmt.Println("  " + e.String())
			}
		})
	}
	var rec *trace.Recorder
	if *traceFile != "" {
		f, err := os.Create(*traceFile)
		if err != nil {
			log.Fatal(err)
		}
		defer f.Close()
		rec = trace.NewRecorder(f)
		hooks = append(hooks, rec.Hook())
	}
	if len(hooks) > 0 {
		rc.OnEvent = func(e core.Event) {
			for _, h := range hooks {
				h(e)
			}
		}
	}
	res, err := sim.Run(w, rc)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\n%s\n", res)
	s := res.Stats
	fmt.Printf("steps=%d grants=%d waits=%d wounds=%d dies=%d victims=%d\n",
		res.Steps, s.Grants, s.Waits, s.Wounds, s.Dies, s.Victims)
	if rec != nil {
		sum := trace.Summarize(rec.Records())
		fmt.Printf("trace: %d events written to %s; rollback depth p50=%d p90=%d p100=%d\n",
			sum.Events, *traceFile, sum.Percentile(50), sum.Percentile(90), sum.Percentile(100))
		if rec.Err() != nil {
			log.Fatal(rec.Err())
		}
	}
	if *check {
		if _, err := res.Recorder.CheckSerializable(); err != nil {
			log.Fatalf("serializability check failed: %v", err)
		}
		order, err := res.Recorder.SerialOrder()
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("conflict-serializable; equivalent serial order: %v\n", order)
	}
}
