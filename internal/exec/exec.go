// Package exec holds the shared transaction-execution machinery used
// by every driver of a core.System: the re-execute-after-rollback step
// loop (extracted from internal/runtime so the in-process runtime and
// the network server run one implementation) and the jittered
// exponential backoff used by network clients to re-run transactions
// the server rolled back — the same §2 re-execution semantics, applied
// one level up.
package exec

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"partialrollback/internal/core"
	"partialrollback/internal/txn"
)

// ctxCheckInterval bounds how many uninterrupted steps StepToCommit
// executes between context and deadline checks.
const ctxCheckInterval = 256

// maxBurst bounds how many consecutive operations one transaction runs
// per engine acquisition (core.System.StepBurst) — the fairness bound:
// no transaction holds the engine for more than 64 operations before
// the others get a turn.
const maxBurst = 64

// StepToCommit drives one transaction to commit: it steps the
// transaction while it progresses and, while it waits, parks on the
// wake channel the blocked step returned (core.StepResult.Wake). The
// engine signals that channel when it grants the request or rolls the
// transaction back, including during the blocked step itself, so the
// park needs no status re-check.
//
// When the engine rolls the transaction back (deadlock victim, wound,
// starvation escalation), its program counter has been reset and the
// loop simply keeps stepping — re-executing from the rollback point.
// That loop is the paper's re-execution semantics and is shared by
// internal/runtime (in-process) and internal/server (per network
// session).
//
// Each engine acquisition runs up to maxBurst consecutive operations.
// Conflicts still resolve at operation granularity — a step that must
// wait, commits or rolls the transaction back ends the burst — and the
// scheduler yields between bursts, so concurrent transactions
// interleave at burst boundaries.
//
// deadline bounds the run without a per-transaction context or timer:
// the zero time means no deadline. Every ctxCheckInterval steps the loop
// compares it with one clock read, and a parked transaction arms a timer
// only for as long as it waits. ctx carries cancellation (a server's
// shutdown); it may also carry a deadline of its own.
//
// It returns nil once the transaction commits, ctx.Err() if the
// context ends first, context.DeadlineExceeded once deadline passes
// (either way the transaction is left registered; callers abort or
// drain it), and an engine error otherwise. maxSteps bounds attempted
// engine operations (waiting polls count one so a livelocked
// transaction cannot spin forever against a zero budget; a burst never
// overruns the remaining budget); maxSteps <= 0 means 1,000,000.
func StepToCommit(ctx context.Context, sys *core.System, id txn.ID, deadline time.Time, maxSteps int) error {
	if maxSteps <= 0 {
		maxSteps = 1_000_000
	}
	nextCheck := 0
	for steps := 0; steps < maxSteps; {
		if steps >= nextCheck {
			if err := ctx.Err(); err != nil {
				return err
			}
			if !deadline.IsZero() && !time.Now().Before(deadline) {
				return context.DeadlineExceeded
			}
			nextCheck = steps + ctxCheckInterval
		}
		b := min(maxBurst, maxSteps-steps)
		res, n, err := sys.StepBurst(id, b)
		if n < 1 {
			n = 1 // polls of a waiting transaction still consume budget
		}
		steps += n
		if err != nil {
			return fmt.Errorf("exec: %v: %w", id, err)
		}
		switch res.Outcome {
		case core.Committed, core.AlreadyCommitted:
			// With a durability layer configured the commit is not
			// acknowledgeable until its log batch is fsynced; the wait
			// happens here, outside the engine mutex, so the engine keeps
			// committing other transactions into the same batch.
			if res.Durable != nil {
				if err := res.Durable.Wait(); err != nil {
					return fmt.Errorf("exec: %v: commit not durable: %w", id, err)
				}
			}
			return nil
		case core.Progressed, core.SelfRolledBack:
			// Yield between bursts so concurrent transactions interleave
			// — the paper's model of interleaved atomic operations.
			// Without this a driver on GOMAXPROCS=1 runs every
			// transaction to commit in one go and no two ever contend
			// for a lock.
			runtime.Gosched()
			continue
		case core.Blocked, core.BlockedDeadlock, core.StillWaiting:
			if err := park(ctx, res.Wake, deadline); err != nil {
				return err
			}
		}
	}
	return fmt.Errorf("exec: %v exceeded %d steps", id, maxSteps)
}

// park waits for a blocked transaction's wake signal, the end of ctx or
// deadline (none if zero), whichever comes first. The deadline's timer
// lives only as long as the wait.
func park(ctx context.Context, wake <-chan struct{}, deadline time.Time) error {
	var expired <-chan time.Time // nil, never ready, without a deadline
	if !deadline.IsZero() {
		t := time.NewTimer(time.Until(deadline))
		defer t.Stop()
		expired = t.C
	}
	select {
	case <-wake:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	case <-expired:
		return context.DeadlineExceeded
	}
}

// Backoff computes jittered exponential retry delays: attempt k (from
// 0) sleeps a uniformly random duration in (0, min(Base·2^k, Cap)].
// Full jitter keeps retrying clients from re-colliding in lockstep —
// the network analogue of Theorem 2's concern that uncoordinated
// re-execution can preempt forever.
type Backoff struct {
	// Base is the first attempt's maximum delay. Default 2ms.
	Base time.Duration
	// Cap bounds the delay. Default 250ms.
	Cap time.Duration
	// Jitter, when non-nil, supplies the jitter fraction in [0, 1) and
	// supersedes both the rng argument and the global source. Inject a
	// seeded (or constant) function to make retry timing deterministic
	// in tests.
	Jitter func() float64
}

// Delay returns the sleep before retry attempt k (0-based), drawing
// jitter from b.Jitter if set, else from rng (which must not be shared
// between goroutines without locking; pass nil to use the global
// source).
func (b Backoff) Delay(attempt int, rng *rand.Rand) time.Duration {
	base, cap := b.Base, b.Cap
	if base <= 0 {
		base = 2 * time.Millisecond
	}
	if cap <= 0 {
		cap = 250 * time.Millisecond
	}
	// base·2^attempt by bit-shift, saturating at cap: O(1) for any
	// attempt count, where the old doubling loop was O(attempt). The
	// shift is guarded against overflow — at 63+ bits, or when shifting
	// back does not restore base, the doubling has certainly passed any
	// positive cap.
	d := cap
	if attempt <= 0 {
		d = base
	} else if attempt < 63 {
		if shifted := base << attempt; shifted>>attempt == base && shifted < cap {
			d = shifted
		}
	}
	if d > cap {
		d = cap // a Base above Cap still clamps, as the loop did
	}
	var f float64
	switch {
	case b.Jitter != nil:
		f = b.Jitter()
	case rng != nil:
		f = rng.Float64()
	default:
		f = rand.Float64()
	}
	jittered := time.Duration(f * float64(d))
	if jittered <= 0 {
		jittered = time.Nanosecond
	}
	return jittered
}

// Sleep blocks for the attempt's jittered backoff delay, returning
// early with ctx.Err() if the context ends first. It never uses a bare
// time.Sleep, so a canceled client stops backing off immediately.
func (b Backoff) Sleep(ctx context.Context, attempt int, rng *rand.Rand) error {
	t := time.NewTimer(b.Delay(attempt, rng))
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Retry runs attempt until it succeeds, fails terminally, or the
// context ends. retryable classifies errors; attempts <= 0 means 16.
// It returns the number of attempts made alongside the final error
// (nil on success). Backoff sleeps respect context cancellation (see
// Backoff.Sleep).
func Retry(ctx context.Context, attempts int, b Backoff, rng *rand.Rand,
	attempt func(context.Context) error, retryable func(error) bool) (int, error) {
	if attempts <= 0 {
		attempts = 16
	}
	var err error
	for k := 0; k < attempts; k++ {
		if cerr := ctx.Err(); cerr != nil {
			return k, cerr
		}
		err = attempt(ctx)
		if err == nil {
			return k + 1, nil
		}
		if !retryable(err) || k == attempts-1 {
			return k + 1, err
		}
		if serr := b.Sleep(ctx, k, rng); serr != nil {
			return k + 1, serr
		}
	}
	return attempts, err
}
