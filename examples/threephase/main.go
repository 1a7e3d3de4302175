// Threephase: §5's transaction-structure advice, live. The same
// logical update written three ways — writes scattered across lock
// intervals, writes clustered next to their locks, and the three-phase
// acquire/update/release form — run under the single-copy (SDG)
// strategy against an adversary that forces a deadlock. The victim's
// rollback depth depends entirely on its structure.
//
// Run with:
//
//	go run ./examples/threephase
package main

import (
	"fmt"
	"log"

	pr "partialrollback"
)

// Each variant locks p (private), then a, b, c, d; the adversary forces
// a deadlock on d, whose ideal rollback target is the state just before
// LockX(d). How close the victim can get to that ideal depends on where
// its writes sit.

func scattered() *pr.Program {
	return pr.NewProgram("scattered").
		Local("va", 0).Local("vb", 0).Local("vc", 0).
		LockX("a").Read("a", "va").
		Write("a", pr.Add(pr.L("va"), pr.C(1))).
		LockX("b").Read("b", "vb").
		Write("b", pr.Add(pr.L("vb"), pr.C(7))).
		LockX("c").Read("c", "vc").
		Write("a", pr.Add(pr.L("va"), pr.C(2))). // rewrites a: destroys states 1-2
		Write("b", pr.Add(pr.L("vb"), pr.C(1))). // rewrites b: destroys state 2
		LockX("d").
		Write("c", pr.Add(pr.L("vc"), pr.C(1))).
		MustBuild()
}

func clustered() *pr.Program {
	return pr.NewProgram("clustered").
		Local("va", 0).Local("vb", 0).Local("vc", 0).
		LockX("a").Read("a", "va").
		Write("a", pr.Add(pr.L("va"), pr.C(1))).
		Write("a", pr.Add(pr.L("va"), pr.C(3))).
		LockX("b").Read("b", "vb").
		Write("b", pr.Add(pr.L("vb"), pr.C(1))).
		LockX("c").Read("c", "vc").
		Write("c", pr.Add(pr.L("vc"), pr.C(1))).
		LockX("d").
		MustBuild()
}

func threePhase() *pr.Program {
	return pr.NewProgram("three-phase").
		Local("va", 0).Local("vb", 0).Local("vc", 0).
		LockX("a").Read("a", "va").
		LockX("b").Read("b", "vb").
		LockX("c").Read("c", "vc").
		LockX("d").
		DeclareLastLock().
		Write("a", pr.Add(pr.L("va"), pr.C(3))).
		Write("b", pr.Add(pr.L("vb"), pr.C(1))).
		Write("c", pr.Add(pr.L("vc"), pr.C(1))).
		MustBuild()
}

// adversary grabs d first, then wants c — once the victim holds c and
// requests d, the cycle closes.
func adversary() *pr.Program {
	return pr.NewProgram("adversary").
		Local("x", 0).
		LockX("d").Read("d", "x").
		LockX("c").
		MustBuild()
}

func main() {
	fmt.Println("same update, three structures; deadlock forced at LockX(d):")
	fmt.Println()
	for _, build := range []func() *pr.Program{scattered, clustered, threePhase} {
		victim := build()
		fmt.Printf("%-12s three-phase form: %-5v ", victim.Name, pr.IsThreePhase(victim))

		store := pr.NewStore(map[string]int64{"a": 0, "b": 0, "c": 0, "d": 0})
		sys := pr.New(pr.Config{Store: store, Strategy: pr.SDG, Resolver: pr.Detect{Policy: pr.OrderedMinCost{}}})
		adv := sys.MustRegister(adversary())
		vic := sys.MustRegister(victim)

		// Adversary takes d.
		step := func(id pr.TxnID) pr.StepResult {
			res, err := sys.Step(id)
			if err != nil {
				log.Fatal(err)
			}
			return res
		}
		step(adv)
		step(adv)
		// Victim runs until it blocks on d.
		for {
			if res := step(vic); res.Outcome != pr.Progressed {
				break
			}
		}
		// Adversary requests c -> deadlock; the victim (younger) rolls
		// back as far as its structure allows.
		var report *pr.DeadlockReport
		for {
			res := step(adv)
			if res.Outcome == pr.BlockedDeadlock {
				report = res.Deadlock
				break
			}
			if res.Outcome != pr.Progressed {
				log.Fatalf("adversary: unexpected outcome %v", res.Outcome)
			}
		}
		v := report.Victims[0]
		fmt.Printf("victim rolled back to lock state %d (cost %d ops)\n", v.Target, v.Cost)

		// Drain both to commit and verify the database.
		for !sys.AllCommitted() {
			for _, id := range []pr.TxnID{adv, vic} {
				if _, err := sys.Step(id); err != nil {
					log.Fatal(err)
				}
			}
		}
		fmt.Printf("             final a=%d b=%d c=%d d=%d\n\n",
			store.MustGet("a"), store.MustGet("b"), store.MustGet("c"), store.MustGet("d"))
	}
	fmt.Println("scattered writes force rollback to the initial state; clustered and")
	fmt.Println("three-phase structures keep the ideal target (just before LockX(d))")
	fmt.Println("well-defined, so almost no work is lost — §5's structuring principle.")
}
