// Banking: many concurrent transfers over a small hot set of accounts,
// run with one goroutine per transaction. Compares the three rollback
// strategies on the same workload: the invariant (total balance) always
// holds, but total restart wastes far more work than partial rollback.
//
// Run with:
//
//	go run ./examples/banking [-accounts 8] [-transfers 64]
package main

import (
	"flag"
	"fmt"
	"log"
	"math/rand"

	pr "partialrollback"
)

var (
	accounts  = flag.Int("accounts", 8, "number of accounts")
	transfers = flag.Int("transfers", 64, "number of transfer transactions")
	seed      = flag.Int64("seed", 1, "workload seed")
)

// splitTransferProgram moves amount out of one account, splitting it
// between two recipients. Three locks and interest computation between
// them give partial rollback progress worth preserving: a deadlock at
// the second or third lock request often lets the victim keep the work
// done under its earlier locks instead of restarting.
func splitTransferProgram(name, from, to1, to2 string, amount int64) *pr.Program {
	half := amount / 2
	b := pr.NewProgram(name).
		Local("f", 0).Local("t1", 0).Local("t2", 0).Local("interest", 0).
		LockX(from).Read(from, "f")
	for i := 0; i < 4; i++ {
		b.Compute("interest", pr.Add(pr.L("interest"), pr.Mod(pr.L("f"), pr.C(3))))
	}
	b.LockX(to1).Read(to1, "t1")
	for i := 0; i < 4; i++ {
		b.Compute("interest", pr.Add(pr.L("interest"), pr.Mod(pr.L("t1"), pr.C(3))))
	}
	return b.
		LockX(to2).Read(to2, "t2").
		Write(from, pr.Sub(pr.L("f"), pr.C(amount))).
		Write(to1, pr.Add(pr.L("t1"), pr.Add(pr.C(amount), pr.Mul(pr.C(-1), pr.C(half))))).
		Write(to2, pr.Add(pr.L("t2"), pr.C(half))).
		MustBuild()
}

func main() {
	flag.Parse()
	const initBalance = 1000

	names := make([]string, *accounts)
	for i := range names {
		names[i] = fmt.Sprintf("acct%d", i)
	}

	rng := rand.New(rand.NewSource(*seed))
	programs := make([]*pr.Program, 0, *transfers)
	for i := 0; i < *transfers; i++ {
		perm := rng.Perm(*accounts)
		programs = append(programs, splitTransferProgram(
			fmt.Sprintf("xfer%d", i), names[perm[0]], names[perm[1]], names[perm[2]],
			int64(2+2*rng.Intn(10))))
	}

	fmt.Printf("%d transfers over %d accounts, one goroutine each:\n\n", *transfers, *accounts)
	for _, strategy := range []pr.Strategy{pr.Total, pr.MCS, pr.SDG} {
		store := pr.NewUniformStore("acct", *accounts, initBalance)
		store.AddConstraint(pr.SumConstraint("total", int64(*accounts)*initBalance, names...))

		out, err := pr.RunConcurrent(store, programs, pr.RunOptions{
			Strategy:      strategy,
			Resolver:      pr.Detect{Policy: pr.OrderedMinCost{}},
			RecordHistory: true,
		})
		if err != nil {
			log.Fatal(err)
		}
		if err := store.CheckConsistent(); err != nil {
			log.Fatalf("%v: invariant broken: %v", strategy, err)
		}
		if _, err := out.Recorder.CheckSerializable(); err != nil {
			log.Fatalf("%v: %v", strategy, err)
		}
		s := out.Stats
		fmt.Printf("  %-6v commits=%-3d deadlocks=%-3d rollbacks=%-3d restarts=%-3d ops lost=%d\n",
			strategy, s.Commits, s.Deadlocks, s.Rollbacks, s.Restarts, s.OpsLost)
	}
	fmt.Println("\nall runs kept the balance invariant and were conflict-serializable;")
	fmt.Println("partial rollback (mcs/sdg) resolves the same deadlocks while discarding less work.")
	fmt.Println("(goroutine scheduling varies between runs, so counts differ run to run.)")
}
