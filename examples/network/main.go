// Network: the engine as a service. An in-process TCP server hosts the
// database; three clients connect and concurrently run transfers around
// a lock ring (a→b, b→c, c→a), the canonical deadlock when each
// transfer locks its source first. The server receives every program
// whole, so its engine's Register takes each one's locks first, in
// entity-ID order (core.Config.OrderLocks; NewStore interns a, b, c in
// that order, so the c→a transfer locks a, then c): the ring cannot
// close, every transfer commits over the wire with 0 deadlocks and 0
// aborts (the program exits non-zero otherwise), and the ring's total
// is conserved. The deadlock and its partial rollback still happen in
// the in-process examples, which run programs as written.
//
// Run with:
//
//	go run ./examples/network [-rounds 5]
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"sync"
	"time"

	pr "partialrollback"
)

var (
	rounds = flag.Int("rounds", 5, "transfers per client")
	pad    = flag.Int("pad", 3000, "computation between the two locks (bigger = more overlap)")
)

// transfer moves amount from one account to the next, with enough
// computation between the two lock requests that, run as written,
// concurrent ring neighbours would overlap and deadlock.
func transfer(name, from, to string, amount int64) *pr.Program {
	b := pr.NewProgram(name).
		Local("x", 0).Local("y", 0).Local("w", 0).
		LockX(from).
		Read(from, "x")
	for i := 0; i < *pad; i++ {
		b.Compute("w", pr.Add(pr.L("w"), pr.C(1)))
	}
	return b.
		LockX(to).
		Read(to, "y").
		Write(from, pr.Sub(pr.L("x"), pr.C(amount))).
		Write(to, pr.Add(pr.L("y"), pr.C(amount))).
		MustBuild()
}

func main() {
	log.SetFlags(0)
	flag.Parse()

	// The served database: three accounts in a ring.
	store := pr.NewStore(map[string]int64{"a": 100, "b": 100, "c": 100})
	store.AddConstraint(pr.SumConstraint("ring-total", 300, "a", "b", "c"))

	srv := pr.NewServer(pr.ServerConfig{Store: store})
	if err := srv.Listen("127.0.0.1:0"); err != nil {
		log.Fatal(err)
	}
	addr := srv.Addr().String()
	fmt.Printf("server on %s\n\n", addr)

	ring := []struct{ from, to string }{{"a", "b"}, {"b", "c"}, {"c", "a"}}
	var (
		mu sync.Mutex
		wg sync.WaitGroup
	)
	for i, r := range ring {
		wg.Add(1)
		go func(i int, from, to string) {
			defer wg.Done()
			c := pr.NewClient(pr.ClientConfig{Addr: addr})
			defer c.Close()
			for k := 0; k < *rounds; k++ {
				name := fmt.Sprintf("xfer-%s%s-%d", from, to, k)
				res, err := c.Run(context.Background(), transfer(name, from, to, 1))
				if err != nil {
					log.Fatalf("client %d: %v", i, err)
				}
				mu.Lock()
				fmt.Printf("client %d: %-14s committed (ops=%d lost=%d waits=%d attempts=%d)\n",
					i, name, res.Outcome.OpsExecuted, res.Outcome.OpsLost, res.Outcome.Waits, res.Attempts)
				mu.Unlock()
			}
		}(i, r.from, r.to)
	}
	wg.Wait()

	// Server-side view of the same run.
	c := pr.NewClient(pr.ClientConfig{Addr: addr})
	defer c.Close()
	counters, err := c.Stats()
	if err != nil {
		log.Fatal(err)
	}
	var deadlocks, aborts int64
	fmt.Println("\nserver counters:")
	for _, cn := range counters {
		switch cn.Name {
		case "deadlocks":
			deadlocks = cn.Val
		case "aborts":
			aborts = cn.Val
		}
		if cn.Val != 0 {
			fmt.Printf("  %-18s %d\n", cn.Name, cn.Val)
		}
	}
	fmt.Printf("\n%d deadlocks; %d aborts\n", deadlocks, aborts)
	if deadlocks != 0 || aborts != 0 {
		log.Fatal("the ordered node deadlocked or aborted a transfer")
	}

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		log.Fatalf("shutdown: %v", err)
	}
	if err := store.CheckConsistent(); err != nil {
		log.Fatalf("ring total violated: %v", err)
	}
	fmt.Printf("\nshutdown clean; a=%d b=%d c=%d (total conserved)\n",
		store.MustGet("a"), store.MustGet("b"), store.MustGet("c"))
}
