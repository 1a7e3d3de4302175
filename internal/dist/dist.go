// Package dist simulates the paper's §3.3 distributed setting:
// entities are partitioned across sites, transactions run from a home
// site, and the concurrency control cannot afford a global concurrency
// graph. Conflicts whose waiter and holder-entity live at the same site
// are handled by local detection with partial rollback; conflicts that
// would require cross-site graph maintenance are resolved by a
// timestamp rule (wound-wait), with the wounded holder *partially*
// rolled back per the configured strategy — the paper's observation
// that timestamp mechanisms "in no way invalidate the advantages" of
// partial rollback.
//
// The simulation reuses the real engine (semantics are identical to a
// centralized system; distribution changes *costs*, not outcomes) and
// accounts messages: remote lock/unlock round trips, and the extra
// database shipping that partial rollback requires when a transaction
// moves between sites (§3.3's caveat).
package dist

import (
	"fmt"
	"hash/fnv"

	"partialrollback/internal/core"
	"partialrollback/internal/deadlock"
	"partialrollback/internal/sim"
	"partialrollback/internal/txn"
)

// Topology assigns entities and transactions to sites.
type Topology struct {
	// Sites is the number of sites (>= 1).
	Sites int
	// EntitySite overrides the default hash placement for specific
	// entities.
	EntitySite map[string]int
}

// SiteOf returns the owning site of an entity.
func (tp Topology) SiteOf(entityName string) int {
	if s, ok := tp.EntitySite[entityName]; ok {
		return s
	}
	h := fnv.New32a()
	_, _ = h.Write([]byte(entityName))
	return int(h.Sum32() % uint32(tp.Sites))
}

// Config configures a distributed run.
type Config struct {
	Topology Topology
	Strategy core.Strategy
	// Mode selects the conflict response: deadlock.WoundWait{} or
	// deadlock.WaitDie{} for pure timestamp operation, each with its
	// default detection safety net (OrderedMinCost). (Pure detection is
	// the centralized baseline; run it via internal/sim instead.)
	Mode core.Resolver
	// Scheduler / Seed as in sim.RunConfig.
	Scheduler sim.Scheduler
	Seed      int64
	MaxSteps  int64
}

// Messages accounts simulated network traffic.
type Messages struct {
	// LockRequests counts remote lock request round trips (request +
	// grant/deny).
	LockRequests int64
	// Releases counts remote unlock/rollback-release notifications.
	Releases int64
	// CopyShips counts entity values shipped between sites: the global
	// value shipped to the requester's site on a remote exclusive
	// grant, and §3.3's extra state shipping when a partial rollback
	// restores copies held at remote sites.
	CopyShips int64
	// Wounds counts cross-site preemptions.
	Wounds int64
}

// Total returns the total message count.
func (m Messages) Total() int64 {
	return m.LockRequests + m.Releases + m.CopyShips + m.Wounds
}

// Result reports one distributed run.
type Result struct {
	Stats    core.Stats
	Messages Messages
	Sim      sim.Result
}

// homeSite derives a transaction's home site from the first entity it
// locks (it "enters" the system where its data lives).
func homeSite(tp Topology, p *txn.Program) int {
	a := txn.Analyze(p)
	if len(a.Requests) == 0 {
		return 0
	}
	return tp.SiteOf(a.Requests[0].Entity)
}

// Run executes the workload on the simulated multi-site system.
func Run(w sim.Workload, cfg Config) (Result, error) {
	if cfg.Topology.Sites < 1 {
		return Result{}, fmt.Errorf("dist: need at least one site")
	}
	if cfg.Mode != core.Resolver(deadlock.WoundWait{}) && cfg.Mode != core.Resolver(deadlock.WaitDie{}) {
		return Result{}, fmt.Errorf("dist: Mode must be WoundWait{} or WaitDie{} (got %#v)", cfg.Mode)
	}
	homes := map[string]int{} // program name -> home site
	for _, p := range w.Programs {
		homes[p.Name] = homeSite(cfg.Topology, p)
	}

	var msgs Messages
	sysHome := map[txn.ID]int{}
	names := map[txn.ID]string{}

	onEvent := func(e core.Event) {
		switch e.Kind {
		case core.EventRegister:
			names[e.Txn] = e.Detail
			sysHome[e.Txn] = homes[e.Detail]
		case core.EventGrant:
			if cfg.Topology.SiteOf(e.Entity) != sysHome[e.Txn] {
				msgs.LockRequests += 2
				if e.Detail == "X" {
					msgs.CopyShips++ // ship the global value to the home site
				}
			}
		case core.EventWait:
			if cfg.Topology.SiteOf(e.Entity) != sysHome[e.Txn] {
				msgs.LockRequests += 2
			}
		case core.EventUnlock:
			if cfg.Topology.SiteOf(e.Entity) != sysHome[e.Txn] {
				msgs.Releases++
			}
		case core.EventRollback:
			// §3.3: restoring a transaction's surviving remote copies
			// requires shipping database information between sites.
			// Approximate: one copy ship per lock state retained beyond
			// zero when any remote entity is involved, plus one release
			// notification per remote site (bounded by sites-1).
			if e.ToLockState > 0 {
				msgs.CopyShips += int64(cfg.Topology.Sites - 1)
			}
			msgs.Releases += int64(cfg.Topology.Sites - 1)
		}
	}

	res, err := sim.Run(w, sim.RunConfig{
		Strategy:  cfg.Strategy,
		Resolver:  cfg.Mode,
		Scheduler: cfg.Scheduler,
		Seed:      cfg.Seed,
		MaxSteps:  cfg.MaxSteps,
		OnEvent:   onEvent,
	})
	if err != nil {
		return Result{}, err
	}
	msgs.Wounds = res.Stats.Wounds
	return Result{Stats: res.Stats, Messages: msgs, Sim: res}, nil
}
