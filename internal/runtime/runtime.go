// Package runtime drives a core.System with one goroutine per
// transaction — the "transactions are concurrently executing programs"
// view of the paper's model, realized with Go's native concurrency.
// Transactions step themselves; blocked ones park on the wake channel
// their blocked step returned, which the engine signals when it grants
// their lock or rolls them back (either way they become runnable
// again). The park/step/re-execute loop itself lives in internal/exec
// and is shared with the network server (internal/server), which runs
// the same loop once per client session.
//
// The deterministic drivers in internal/sim are preferred for
// experiments; this driver exists to exercise the engine under real
// scheduler interleavings (tests run it with -race) and to serve as the
// template for embedding the library in a concurrent application.
package runtime

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"partialrollback/internal/core"
	"partialrollback/internal/entity"
	"partialrollback/internal/exec"
	"partialrollback/internal/history"
	"partialrollback/internal/hybrid"
	"partialrollback/internal/txn"
)

// Options configures a concurrent run.
type Options struct {
	Strategy core.Strategy
	// Resolver forwards to core.Config.Resolver. Nil resolves
	// nothing: the programs must not be able to wait in a cycle, for a
	// cycle's goroutines would wait forever.
	Resolver core.Resolver
	// RecordHistory subscribes a serializability recorder to the
	// engine's events; Outcome.Recorder returns it.
	RecordHistory bool
	// HybridBudget / HybridAllocator configure the Hybrid strategy.
	HybridBudget    int
	HybridAllocator hybrid.Allocator
	// MaxStepsPerTxn bounds each transaction's total steps (0: 1M).
	MaxStepsPerTxn int
	// LockWait forwards to core.Config.LockWait (engine-lock wait
	// observer, nanoseconds per step-path acquisition).
	LockWait func(ns int64)
	// CommitLog forwards to core.Config.CommitLog: every transaction's
	// acknowledgement (its StepToCommit returning) then waits for its
	// write-set to be durable.
	CommitLog core.CommitLogger
	// OnEvent forwards to core.Config.OnEvent — the hook the
	// observability collector and tracer chain onto.
	OnEvent func(core.Event)
}

// Outcome reports a completed concurrent run.
type Outcome struct {
	System *core.System
	Stats  core.Stats
	IDs    []txn.ID
	// Recorder holds the run's history when RecordHistory was set.
	Recorder *history.Recorder
}

// Run executes all programs concurrently to commit and returns the
// engine for inspection. It fails if any transaction errors or exceeds
// its step bound; such a transaction is aborted, so the others, which
// may be waiting on its locks, still run to commit before Run returns.
func Run(store *entity.Store, programs []*txn.Program, opt Options) (*Outcome, error) {
	var rec *history.Recorder
	onEvent := opt.OnEvent
	if opt.RecordHistory {
		rec = history.NewRecorder()
		onEvent = rec.Hook(onEvent)
	}
	sys := core.New(core.Config{
		Store:           store,
		Strategy:        opt.Strategy,
		Resolver:        opt.Resolver,
		HybridBudget:    opt.HybridBudget,
		HybridAllocator: opt.HybridAllocator,
		CommitLog:       opt.CommitLog,
		OnEvent:         onEvent,
		LockWait:        opt.LockWait,
	})

	ids := make([]txn.ID, 0, len(programs))
	for _, p := range programs {
		id, err := sys.Register(p)
		if err != nil {
			return nil, err
		}
		ids = append(ids, id)
	}

	var wg sync.WaitGroup
	errCh := make(chan error, len(ids))
	for _, id := range ids {
		wg.Add(1)
		go func(id txn.ID) {
			defer wg.Done()
			if err := exec.StepToCommit(context.Background(), sys, id, time.Time{}, opt.MaxStepsPerTxn); err != nil {
				errCh <- fmt.Errorf("runtime: %w", abort(sys, id, err))
			}
		}(id)
	}
	wg.Wait()
	close(errCh)
	var errs []error
	for err := range errCh {
		errs = append(errs, err)
	}
	if len(errs) > 0 {
		return nil, errors.Join(errs...)
	}
	if !sys.AllCommitted() {
		return nil, fmt.Errorf("runtime: run finished with uncommitted transactions")
	}
	return &Outcome{System: sys, Stats: sys.Stats(), IDs: ids, Recorder: rec}, nil
}

// abort releases a failed transaction's locks so the transactions
// waiting on them can finish, and returns err joined with any abort
// failure. A transaction that committed needs nothing; one in its
// shrinking phase cannot be rolled back, so it is stepped to commit.
func abort(sys *core.System, id txn.ID, err error) error {
	aerr := sys.Abort(id)
	switch {
	case aerr == nil, errors.Is(aerr, core.ErrCommitted):
		return err
	case errors.Is(aerr, core.ErrShrinking):
		return errors.Join(err, exec.StepToCommit(context.Background(), sys, id, time.Time{}, 0))
	default:
		return errors.Join(err, aerr)
	}
}
