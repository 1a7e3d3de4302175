package sim

import (
	"fmt"
	"math/rand"

	"partialrollback/internal/core"
	"partialrollback/internal/entity"
	"partialrollback/internal/history"
	"partialrollback/internal/hybrid"
	"partialrollback/internal/txn"
)

// Scheduler selects which runnable transaction steps next.
type Scheduler int

// Schedulers.
const (
	// RoundRobin steps transactions in ID order, one operation each per
	// sweep — maximally interleaved and fully deterministic.
	RoundRobin Scheduler = iota
	// RandomPick steps a uniformly random runnable transaction each
	// tick, seeded for reproducibility.
	RandomPick
)

func (s Scheduler) String() string {
	if s == RandomPick {
		return "random"
	}
	return "round-robin"
}

// RunConfig configures one deterministic run of a workload.
type RunConfig struct {
	Strategy core.Strategy
	// Resolver forwards to core.Config.Resolver. Nil resolves
	// nothing: a workload whose waits close a cycle then ends with no
	// runnable transaction, and Run fails.
	Resolver  core.Resolver
	Scheduler Scheduler
	// Seed drives the RandomPick scheduler.
	Seed int64
	// MaxSteps bounds total engine steps (0: 10M) to catch livelock.
	MaxSteps int64
	// RecordHistory subscribes a serializability recorder to the
	// engine's events (slower); Result.Recorder returns it.
	RecordHistory bool
	// HybridBudget / HybridAllocator configure the Hybrid strategy.
	HybridBudget    int
	HybridAllocator hybrid.Allocator
	// CheckInvariants runs the engine's full cross-check after every
	// step (tests only; very slow).
	CheckInvariants bool
	// OnEvent forwards engine events.
	OnEvent func(core.Event)
	// Burst selects the stepping call: <= 0 uses System.Step (the original
	// one-op-per-call path), >= 1 uses System.StepBurst with that bound.
	// Burst=1 is semantically identical to Burst=0 (one operation per
	// engine acquisition); the regression tests pin that equivalence.
	// Larger bursts run each scheduled transaction up to Burst
	// consecutive operations per tick, so schedules coarsen but every
	// conflict still resolves at operation granularity — the
	// deterministic oracle for exec.StepToCommit's bursting loop.
	Burst int
}

// Result summarizes one run.
type Result struct {
	Workload string
	Strategy core.Strategy
	// Policy is the resolver's Name, or "none" without one.
	Policy    string
	Scheduler string

	Stats     core.Stats
	Committed int
	// Steps is the number of scheduler ticks the run took (makespan).
	Steps int64
	// UsefulOps is the operations that survived into commits
	// (OpsExecuted summed minus OpsLost).
	UsefulOps int64
	// TotalOps is all executed operations including discarded ones.
	TotalOps int64
	// LostRatio is OpsLost / TotalOps.
	LostRatio float64
	// AvgRollbackDepth is OpsLost per rollback.
	AvgRollbackDepth float64
	// System is the finished engine, for further inspection.
	System *core.System
	// Recorder holds the run's history when RecordHistory was set.
	Recorder *history.Recorder
	// Store is the database the run executed against.
	Store *entity.Store
}

func (r Result) String() string {
	return fmt.Sprintf("%s/%s: commits=%d deadlocks=%d rollbacks=%d restarts=%d lost=%d (%.1f%%) avg-depth=%.1f",
		r.Strategy, r.Policy, r.Committed, r.Stats.Deadlocks, r.Stats.Rollbacks,
		r.Stats.Restarts, r.Stats.OpsLost, 100*r.LostRatio, r.AvgRollbackDepth)
}

// Run executes the workload to completion under the given
// configuration and returns metrics. Identical inputs produce identical
// results.
func Run(w Workload, rc RunConfig) (Result, error) {
	policy := "none"
	if rc.Resolver != nil {
		policy = rc.Resolver.Name()
	}
	maxSteps := rc.MaxSteps
	if maxSteps == 0 {
		maxSteps = 10_000_000
	}
	store := w.NewStore()
	var rec *history.Recorder
	onEvent := rc.OnEvent
	if rc.RecordHistory {
		rec = history.NewRecorder()
		onEvent = rec.Hook(onEvent)
	}
	sys := core.New(core.Config{
		Store:           store,
		Strategy:        rc.Strategy,
		Resolver:        rc.Resolver,
		HybridBudget:    rc.HybridBudget,
		HybridAllocator: rc.HybridAllocator,
		OnEvent:         onEvent,
	})
	ids := make([]txn.ID, 0, len(w.Programs))
	for _, p := range w.Programs {
		id, err := sys.Register(p)
		if err != nil {
			return Result{}, err
		}
		ids = append(ids, id)
	}
	rng := rand.New(rand.NewSource(rc.Seed))
	var steps int64
	stepOne := func(id txn.ID) error {
		if rc.Burst >= 1 {
			_, n, err := sys.StepBurst(id, rc.Burst)
			if n < 1 {
				n = 1 // zero-step polls still advance the livelock budget
			}
			steps += int64(n)
			return err
		}
		_, err := sys.Step(id)
		steps++
		return err
	}
	for !sys.AllCommitted() {
		if steps >= maxSteps {
			return Result{}, fmt.Errorf("sim: exceeded %d steps on %s (%v/%s)", maxSteps, w.Name, rc.Strategy, policy)
		}
		runnable := sys.Runnable()
		if len(runnable) == 0 {
			return Result{}, fmt.Errorf("sim: no runnable transactions but not all committed on %s", w.Name)
		}
		switch rc.Scheduler {
		case RandomPick:
			id := runnable[rng.Intn(len(runnable))]
			if err := stepOne(id); err != nil {
				return Result{}, err
			}
			if rc.CheckInvariants {
				if err := sys.CheckInvariants(); err != nil {
					return Result{}, err
				}
			}
		default: // RoundRobin
			for _, id := range runnable {
				if err := stepOne(id); err != nil {
					return Result{}, err
				}
				if rc.CheckInvariants {
					if err := sys.CheckInvariants(); err != nil {
						return Result{}, err
					}
				}
			}
		}
	}
	if err := store.CheckConsistent(); err != nil {
		return Result{}, fmt.Errorf("sim: %s left inconsistent state: %w", w.Name, err)
	}
	stats := sys.Stats()
	var totalOps int64
	for _, id := range ids {
		totalOps += sys.TxnStatsOf(id).OpsExecuted
	}
	res := Result{
		Workload:  w.Name,
		Steps:     steps,
		Store:     store,
		Strategy:  rc.Strategy,
		Policy:    policy,
		Scheduler: rc.Scheduler.String(),
		Stats:     stats,
		Committed: int(stats.Commits),
		TotalOps:  totalOps,
		UsefulOps: totalOps - stats.OpsLost,
		System:    sys,
		Recorder:  rec,
	}
	if totalOps > 0 {
		res.LostRatio = float64(stats.OpsLost) / float64(totalOps)
	}
	if stats.Rollbacks > 0 {
		res.AvgRollbackDepth = float64(stats.OpsLost) / float64(stats.Rollbacks)
	}
	return res, nil
}
