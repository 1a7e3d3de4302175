// Quickstart: two transfer transactions that deadlock; the system
// detects the cycle and resolves it with a partial rollback instead of
// restarting the victim.
//
// Run with:
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	pr "partialrollback"
)

func main() {
	// A database of two accounts with a sum invariant.
	store := pr.NewStore(map[string]int64{"checking": 100, "savings": 200})
	store.AddConstraint(pr.SumConstraint("total", 300, "checking", "savings"))

	// The engine: multi-copy partial rollback, Theorem 2-safe victim
	// policy, with a history recorder on the event stream so we can
	// verify serializability.
	rec := pr.NewRecorder()
	sys := pr.New(pr.Config{
		Store:    store,
		Strategy: pr.MCS,
		Resolver: pr.Detect{Policy: pr.OrderedMinCost{}},
		OnEvent: rec.Hook(func(e pr.Event) {
			fmt.Println("  event:", e)
		}),
	})

	// Two transfers that lock the accounts in opposite orders — the
	// classic deadlock.
	toSavings := pr.NewProgram("to-savings").
		Local("c", 0).Local("s", 0).
		LockX("checking").Read("checking", "c").
		LockX("savings").Read("savings", "s").
		Write("checking", pr.Sub(pr.L("c"), pr.C(25))).
		Write("savings", pr.Add(pr.L("s"), pr.C(25))).
		MustBuild()
	toChecking := pr.NewProgram("to-checking").
		Local("c", 0).Local("s", 0).
		LockX("savings").Read("savings", "s").
		LockX("checking").Read("checking", "c").
		Write("savings", pr.Sub(pr.L("s"), pr.C(10))).
		Write("checking", pr.Add(pr.L("c"), pr.C(10))).
		MustBuild()

	t1 := sys.MustRegister(toSavings)
	t2 := sys.MustRegister(toChecking)

	// Drive both round-robin, one atomic operation at a time.
	fmt.Println("stepping both transactions round-robin:")
	for !sys.AllCommitted() {
		for _, id := range []pr.TxnID{t1, t2} {
			res, err := sys.Step(id)
			if err != nil {
				log.Fatal(err)
			}
			if res.Outcome == pr.BlockedDeadlock {
				fmt.Printf("  -> deadlock resolved: %v\n", res.Deadlock)
			}
		}
	}

	fmt.Printf("\nfinal: checking=%d savings=%d\n",
		store.MustGet("checking"), store.MustGet("savings"))
	if err := store.CheckConsistent(); err != nil {
		log.Fatal(err)
	}
	if _, err := rec.CheckSerializable(); err != nil {
		log.Fatal(err)
	}
	order, _ := rec.SerialOrder()
	fmt.Printf("consistent and conflict-serializable (equivalent serial order %v)\n", order)
	st := sys.Stats()
	fmt.Printf("deadlocks=%d rollbacks=%d ops lost=%d (a total restart would have lost the victim's entire progress)\n",
		st.Deadlocks, st.Rollbacks, st.OpsLost)
}
