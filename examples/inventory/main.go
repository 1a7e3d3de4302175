// Inventory: order processing with shared and exclusive locks. Pricing
// transactions read catalog entries under shared locks while order
// transactions exclusively update stock levels — the §3.2 setting where
// one exclusive request can close several deadlock cycles at once and
// victim selection becomes a vertex-cut problem.
//
// Run with:
//
//	go run ./examples/inventory
package main

import (
	"fmt"
	"log"

	pr "partialrollback"
)

// orderProgram reserves qty units of two items (exclusive) after
// checking the catalog price (shared).
func orderProgram(name, itemA, itemB string, qty int64) *pr.Program {
	return pr.NewProgram(name).
		Local("pa", 0).Local("pb", 0).Local("sa", 0).Local("sb", 0).
		LockS("price:"+itemA).Read("price:"+itemA, "pa").
		LockX("stock:"+itemA).Read("stock:"+itemA, "sa").
		LockS("price:"+itemB).Read("price:"+itemB, "pb").
		LockX("stock:"+itemB).Read("stock:"+itemB, "sb").
		Write("stock:"+itemA, pr.Sub(pr.L("sa"), pr.C(qty))).
		Write("stock:"+itemB, pr.Sub(pr.L("sb"), pr.C(qty))).
		MustBuild()
}

// repriceProgram rewrites an item's catalog price from its stock level
// (exclusive on the price, shared reads elsewhere).
func repriceProgram(name, item string) *pr.Program {
	return pr.NewProgram(name).
		Local("s", 0).Local("p", 0).
		LockS("stock:"+item).Read("stock:"+item, "s").
		LockX("price:"+item).Read("price:"+item, "p").
		Write("price:"+item, pr.Add(pr.L("p"), pr.Mod(pr.L("s"), pr.C(5)))).
		MustBuild()
}

// auditProgram reads every item's stock under shared locks.
func auditProgram(name string, items []string) *pr.Program {
	b := pr.NewProgram(name).Local("sum", 0).Local("v", 0)
	for _, it := range items {
		b.LockS("stock:"+it).
			Read("stock:"+it, "v").
			Compute("sum", pr.Add(pr.L("sum"), pr.L("v")))
	}
	return b.MustBuild()
}

func main() {
	items := []string{"widget", "gadget", "sprocket", "doohickey"}
	initial := map[string]int64{}
	for _, it := range items {
		initial["stock:"+it] = 100
		initial["price:"+it] = 10
	}
	store := pr.NewStore(initial)

	var programs []*pr.Program
	// Orders lock item pairs in clashing orders.
	programs = append(programs,
		orderProgram("order1", "widget", "gadget", 3),
		orderProgram("order2", "gadget", "widget", 2),
		orderProgram("order3", "sprocket", "doohickey", 5),
		orderProgram("order4", "doohickey", "sprocket", 1),
		orderProgram("order5", "widget", "sprocket", 4),
	)
	for _, it := range items {
		programs = append(programs, repriceProgram("reprice-"+it, it))
	}
	programs = append(programs,
		auditProgram("audit1", items),
		auditProgram("audit2", items),
	)

	deadlocks := 0
	multiCycle := 0
	rec := pr.NewRecorder()
	sys := pr.New(pr.Config{
		Store:    store,
		Strategy: pr.SDG, // single-copy: no extra storage over total restart
		Resolver: pr.Detect{Policy: pr.OrderedMinCost{}},
		OnEvent: rec.Hook(func(e pr.Event) {
			if e.Deadlock != nil {
				deadlocks++
				if len(e.Deadlock.Cycles) > 1 {
					multiCycle++
				}
				fmt.Printf("  deadlock: %v\n", e.Deadlock)
			}
		}),
	})

	var ids []pr.TxnID
	for _, p := range programs {
		ids = append(ids, sys.MustRegister(p))
	}

	fmt.Println("running orders, repricers, and audits round-robin:")
	for !sys.AllCommitted() {
		for _, id := range ids {
			if _, err := sys.Step(id); err != nil {
				log.Fatal(err)
			}
		}
	}

	fmt.Println("\nfinal stock and prices:")
	for _, it := range items {
		fmt.Printf("  %-10s stock=%3d price=%d\n", it,
			store.MustGet("stock:"+it), store.MustGet("price:"+it))
	}
	if _, err := rec.CheckSerializable(); err != nil {
		log.Fatal(err)
	}
	st := sys.Stats()
	fmt.Printf("\nconflict-serializable; deadlocks=%d (multi-cycle: %d) rollbacks=%d ops lost=%d\n",
		st.Deadlocks, multiCycle, st.Rollbacks, st.OpsLost)
	_ = deadlocks
}
