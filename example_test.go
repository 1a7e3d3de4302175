package partialrollback_test

import (
	"fmt"

	pr "partialrollback"
)

// Example demonstrates the core loop: two transfers deadlock, the
// system partially rolls one back, and both commit.
func Example() {
	store := pr.NewStore(map[string]int64{"checking": 100, "savings": 200})
	sys := pr.New(pr.Config{Store: store, Strategy: pr.MCS, Resolver: pr.Detect{Policy: pr.OrderedMinCost{}}})

	t1 := sys.MustRegister(pr.NewProgram("to-savings").
		Local("c", 0).Local("s", 0).
		LockX("checking").Read("checking", "c").
		LockX("savings").Read("savings", "s").
		Write("checking", pr.Sub(pr.L("c"), pr.C(25))).
		Write("savings", pr.Add(pr.L("s"), pr.C(25))).
		MustBuild())
	t2 := sys.MustRegister(pr.NewProgram("to-checking").
		Local("c", 0).Local("s", 0).
		LockX("savings").Read("savings", "s").
		LockX("checking").Read("checking", "c").
		Write("savings", pr.Sub(pr.L("s"), pr.C(10))).
		Write("checking", pr.Add(pr.L("c"), pr.C(10))).
		MustBuild())

	for !sys.AllCommitted() {
		for _, id := range []pr.TxnID{t1, t2} {
			if res, err := sys.Step(id); err != nil {
				panic(err)
			} else if res.Outcome == pr.BlockedDeadlock {
				fmt.Printf("deadlock: victim %v rolled back to lock state %d\n",
					res.Deadlock.Victims[0].Txn, res.Deadlock.Victims[0].Target)
			}
		}
	}
	fmt.Printf("checking=%d savings=%d deadlocks=%d\n",
		store.MustGet("checking"), store.MustGet("savings"), sys.Stats().Deadlocks)
	// Output:
	// deadlock: victim T2 rolled back to lock state 0
	// checking=85 savings=215 deadlocks=1
}

// ExampleClusterWrites shows the §5 compile-time optimization: a
// scattered program becomes three-phase, restoring every lock state.
func ExampleClusterWrites() {
	scattered := pr.NewProgram("scattered").
		Local("a", 0).Local("b", 0).
		LockX("A").Read("A", "a").
		Write("A", pr.Add(pr.L("a"), pr.C(1))).
		LockX("B").Read("B", "b").
		Write("A", pr.Add(pr.L("a"), pr.C(2))). // re-write scatters A
		Write("B", pr.L("b")).
		MustBuild()

	res, err := pr.ClusterWrites(scattered)
	if err != nil {
		panic(err)
	}
	fmt.Printf("moved %d writes; three-phase: %v\n",
		res.MovedWrites, pr.IsThreePhase(res.Program))
	// Output:
	// moved 3 writes; three-phase: true
}

// ExampleRunConcurrent drives transactions with one goroutine each.
func ExampleRunConcurrent() {
	store := pr.NewUniformStore("acct", 4, 100)
	programs := []*pr.Program{
		pr.NewProgram("P1").Local("v", 0).
			LockX("acct0").Read("acct0", "v").
			Write("acct0", pr.Add(pr.L("v"), pr.C(1))).MustBuild(),
		pr.NewProgram("P2").Local("v", 0).
			LockX("acct0").Read("acct0", "v").
			Write("acct0", pr.Add(pr.L("v"), pr.C(1))).MustBuild(),
	}
	out, err := pr.RunConcurrent(store, programs, pr.RunOptions{Strategy: pr.SDG})
	if err != nil {
		panic(err)
	}
	fmt.Printf("commits=%d acct0=%d\n", out.Stats.Commits, store.MustGet("acct0"))
	// Output:
	// commits=2 acct0=102
}
