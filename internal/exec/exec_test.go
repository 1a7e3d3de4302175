package exec

import (
	"context"
	"errors"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"partialrollback/internal/core"
	"partialrollback/internal/deadlock"
	"partialrollback/internal/entity"
	"partialrollback/internal/sim"
	"partialrollback/internal/txn"
)

// TestStepToCommitDeadlock runs two transactions that deadlock (a->b,
// b->a) concurrently; the engine must roll one back and both must
// commit through the shared loop.
func TestStepToCommitDeadlock(t *testing.T) {
	for _, strategy := range []core.Strategy{core.Total, core.MCS, core.SDG} {
		store := entity.NewUniformStore("e", 4, 100)
		sys := core.New(core.Config{Store: store, Strategy: strategy, Resolver: deadlock.Detect{}})
		progs := []struct{ from, to string }{{"e0", "e1"}, {"e1", "e0"}}
		var wg sync.WaitGroup
		errCh := make(chan error, len(progs))
		for _, p := range progs {
			id := sys.MustRegister(sim.TransferProgram("t", p.from, p.to, 1, 3))
			wg.Add(1)
			go func() {
				defer wg.Done()
				errCh <- StepToCommit(context.Background(), sys, id, time.Time{}, 0)
			}()
		}
		wg.Wait()
		close(errCh)
		for err := range errCh {
			if err != nil {
				t.Fatalf("%v: %v", strategy, err)
			}
		}
		if !sys.AllCommitted() {
			t.Fatalf("%v: not all committed", strategy)
		}
		if err := store.CheckConsistent(); err != nil {
			t.Fatalf("%v: %v", strategy, err)
		}
	}
}

// TestStepToCommitContextCancel parks a transaction on a held lock and
// cancels the context: the loop must return ctx.Err() promptly, leaving
// the transaction registered for the caller to abort.
func TestStepToCommitContextCancel(t *testing.T) {
	store := entity.NewUniformStore("e", 4, 100)
	sys := core.New(core.Config{Store: store})
	holder := sys.MustRegister(sim.TransferProgram("holder", "e0", "e1", 1, 0))
	if _, err := sys.Step(holder); err != nil { // holder takes e0
		t.Fatal(err)
	}
	waiter := sys.MustRegister(sim.TransferProgram("waiter", "e0", "e2", 1, 0))
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	err := StepToCommit(ctx, sys, waiter, time.Time{}, 0)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("got %v, want DeadlineExceeded", err)
	}
	if err := sys.Abort(waiter); err != nil {
		t.Fatalf("abort after cancel: %v", err)
	}
	// The holder must still be able to commit.
	if err := StepToCommit(context.Background(), sys, holder, time.Time{}, 0); err != nil {
		t.Fatal(err)
	}
}

// TestStepToCommitDeadlineParked parks a transaction on a held lock
// with a 30 ms deadline and a context that never ends: the park's timer
// must end the wait with context.DeadlineExceeded, leaving the
// transaction registered for the caller to abort.
func TestStepToCommitDeadlineParked(t *testing.T) {
	store := entity.NewUniformStore("e", 4, 100)
	sys := core.New(core.Config{Store: store})
	holder := sys.MustRegister(sim.TransferProgram("holder", "e0", "e1", 1, 0))
	if _, err := sys.Step(holder); err != nil { // holder takes e0
		t.Fatal(err)
	}
	waiter := sys.MustRegister(sim.TransferProgram("waiter", "e0", "e2", 1, 0))
	start := time.Now()
	err := StepToCommit(context.Background(), sys, waiter, start.Add(30*time.Millisecond), 0)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("got %v, want DeadlineExceeded", err)
	}
	if waited := time.Since(start); waited < 30*time.Millisecond {
		t.Errorf("returned after %v, before the deadline", waited)
	}
	if st, err := sys.Status(waiter); err != nil || st != core.StatusWaiting {
		t.Fatalf("waiter status %v, %v; want registered and waiting", st, err)
	}
	if err := sys.Abort(waiter); err != nil {
		t.Fatalf("abort after deadline: %v", err)
	}
	if err := StepToCommit(context.Background(), sys, holder, time.Time{}, 0); err != nil {
		t.Fatal(err)
	}
}

// TestStepToCommitDeadlineUnparked gives an uncontended transaction a
// deadline that has already passed: it never parks, so the step loop's
// own check must return context.DeadlineExceeded, leaving the
// transaction registered and uncommitted. A future deadline commits.
func TestStepToCommitDeadlineUnparked(t *testing.T) {
	store := entity.NewUniformStore("e", 4, 100)
	sys := core.New(core.Config{Store: store})
	late := sys.MustRegister(sim.TransferProgram("late", "e0", "e1", 1, 0))
	err := StepToCommit(context.Background(), sys, late, time.Now().Add(-time.Millisecond), 0)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("got %v, want DeadlineExceeded", err)
	}
	if st, err := sys.Status(late); err != nil || st != core.StatusRunning {
		t.Fatalf("status %v, %v; want registered and running", st, err)
	}
	if err := sys.Abort(late); err != nil {
		t.Fatalf("abort after deadline: %v", err)
	}
	onTime := sys.MustRegister(sim.TransferProgram("onTime", "e0", "e1", 1, 0))
	if err := StepToCommit(context.Background(), sys, onTime, time.Now().Add(time.Minute), 0); err != nil {
		t.Fatal(err)
	}
	if err := store.CheckConsistent(); err != nil {
		t.Fatal(err)
	}
}

// TestStepToCommitAcquisitions pins the one stepping rule: an uncontended
// transaction runs up to maxBurst operations per engine acquisition,
// counted through core.Config.LockWait (called once per StepBurst). A
// 22-op uniform-shaped program commits in one acquisition and a 150-op
// program in ceil(150/64) = 3. A waiter costs one acquisition to block
// and one after its wake: the immediate grant before the block leaves
// no wake token behind, so there is no spurious poll.
func TestStepToCommitAcquisitions(t *testing.T) {
	uniform := sim.Generate(sim.GenConfig{Txns: 50, DBSize: 4096, LocksPerTxn: 4,
		SharedProb: 0.8, PadOps: 2, Shape: sim.Scattered, Seed: 1})
	var short *txn.Program
	for _, p := range uniform.Programs {
		if len(p.Ops) == 22 {
			short = p
			break
		}
	}
	if short == nil {
		t.Fatal("no 22-op program in the uniform-shaped workload")
	}
	long := sim.TransferProgram("long", "e0", "e1", 1, 143)
	cases := []struct {
		prog  *txn.Program
		store *entity.Store
		want  int
	}{
		{short, uniform.NewStore(), 1},
		{long, entity.NewUniformStore("e", 4, 100), 3},
	}
	for _, c := range cases {
		acquisitions := 0
		sys := core.New(core.Config{Store: c.store,
			LockWait: func(int64) { acquisitions++ }})
		id := sys.MustRegister(c.prog)
		if err := StepToCommit(context.Background(), sys, id, time.Time{}, 0); err != nil {
			t.Fatal(err)
		}
		if acquisitions != c.want {
			t.Errorf("%d-op program: %d engine acquisitions, want %d", len(c.prog.Ops), acquisitions, c.want)
		}
	}

	// Contended: the holder takes e0; the waiter is granted e1, blocks
	// on e0 and parks; the holder commits in one burst.
	var acquisitions atomic.Int64
	sys := core.New(core.Config{Store: entity.NewUniformStore("e", 4, 100),
		LockWait: func(int64) { acquisitions.Add(1) }})
	holder := sys.MustRegister(sim.TransferProgram("holder", "e0", "e2", 1, 0))
	waiter := sys.MustRegister(txn.NewProgram("waiter").LockX("e1").LockX("e0").MustBuild())
	if res, err := sys.Step(holder); err != nil || res.Outcome != core.Progressed {
		t.Fatalf("holder takes e0: %v, %v", res.Outcome, err)
	}
	done := make(chan error, 1)
	go func() { done <- StepToCommit(context.Background(), sys, waiter, time.Time{}, 0) }()
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
		if st, _ := sys.Status(waiter); st == core.StatusWaiting {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("waiter never blocked on e0")
		}
	}
	if res, _, err := sys.StepBurst(holder, maxBurst); err != nil || res.Outcome != core.Committed {
		t.Fatalf("holder commit: %v, %v", res.Outcome, err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if got := acquisitions.Load() - 2; got != 2 { // less the holder's two
		t.Errorf("contended waiter: %d engine acquisitions, want 2", got)
	}
}

func TestBackoffDelayBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	b := Backoff{Base: time.Millisecond, Cap: 8 * time.Millisecond}
	for attempt := 0; attempt < 10; attempt++ {
		max := time.Millisecond << attempt
		if max > 8*time.Millisecond {
			max = 8 * time.Millisecond
		}
		for i := 0; i < 100; i++ {
			d := b.Delay(attempt, rng)
			if d <= 0 || d > max {
				t.Fatalf("attempt %d: delay %v outside (0, %v]", attempt, d, max)
			}
		}
	}
	// Defaults apply for the zero value.
	if d := (Backoff{}).Delay(0, rng); d <= 0 || d > 2*time.Millisecond {
		t.Errorf("zero-value delay %v", d)
	}
}

// TestBackoffDelayExtremeAttempts pins the O(1) shift computation at
// the edges the old doubling loop never hit in practice: attempt counts
// far past the overflow point (a retry loop left running for days),
// negative attempts, and a Base above Cap must all clamp to Cap (or
// Base-capped-to-Cap) instantly, never overflow into a negative or
// zero-length delay, and never spin O(attempt).
func TestBackoffDelayExtremeAttempts(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	b := Backoff{Base: time.Millisecond, Cap: 250 * time.Millisecond}
	for _, attempt := range []int{62, 63, 64, 1 << 20, 1 << 30, int(^uint(0) >> 1)} {
		start := time.Now()
		for i := 0; i < 100; i++ {
			d := b.Delay(attempt, rng)
			if d <= 0 || d > b.Cap {
				t.Fatalf("attempt %d: delay %v outside (0, %v]", attempt, d, b.Cap)
			}
		}
		// The old loop doubled attempt times; at 2^30 attempts that is
		// visible wall-clock. The shift must be effectively free.
		if elapsed := time.Since(start); elapsed > time.Second {
			t.Fatalf("attempt %d: 100 delays took %v; computation is not O(1)", attempt, elapsed)
		}
	}
	for _, attempt := range []int{-1, -63, -(1 << 40)} {
		if d := b.Delay(attempt, rng); d <= 0 || d > b.Base {
			t.Fatalf("attempt %d: delay %v outside (0, %v]", attempt, d, b.Base)
		}
	}
	// A Base above Cap clamps to Cap at every attempt, as the loop did.
	inv := Backoff{Base: time.Second, Cap: 100 * time.Millisecond}
	for _, attempt := range []int{0, 1, 5, 64, 1 << 30} {
		if d := inv.Delay(attempt, rng); d <= 0 || d > inv.Cap {
			t.Fatalf("base>cap attempt %d: delay %v outside (0, %v]", attempt, d, inv.Cap)
		}
	}
	// Exact saturation point: with Base 1ms and Cap 250ms the shift
	// passes the cap at attempt 8 (256ms); from there every delay draws
	// from the full (0, Cap] range.
	b.Jitter = func() float64 { return 0.999999 }
	for _, attempt := range []int{8, 9, 63, 1 << 30} {
		d := b.Delay(attempt, nil)
		if d < 249*time.Millisecond || d > b.Cap {
			t.Fatalf("attempt %d: near-1 jitter delay %v, want ~%v", attempt, d, b.Cap)
		}
	}
}

func TestBackoffSleep(t *testing.T) {
	t.Run("completes", func(t *testing.T) {
		b := Backoff{Base: time.Microsecond, Cap: time.Microsecond}
		if err := b.Sleep(context.Background(), 0, nil); err != nil {
			t.Fatalf("err = %v", err)
		}
	})
	t.Run("cancel interrupts", func(t *testing.T) {
		b := Backoff{Base: time.Hour, Cap: time.Hour}
		ctx, cancel := context.WithCancel(context.Background())
		done := make(chan error, 1)
		go func() { done <- b.Sleep(ctx, 0, nil) }()
		cancel()
		select {
		case err := <-done:
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("err = %v, want Canceled", err)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("Sleep ignored cancellation")
		}
	})
	t.Run("deadline interrupts", func(t *testing.T) {
		b := Backoff{Base: time.Hour, Cap: time.Hour}
		ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
		defer cancel()
		start := time.Now()
		err := b.Sleep(ctx, 0, nil)
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("err = %v, want DeadlineExceeded", err)
		}
		if time.Since(start) > 5*time.Second {
			t.Fatal("Sleep overshot the deadline")
		}
	})
}

// TestRetrySleepCancel cancels mid-backoff (after a failed attempt,
// before the next) and checks Retry returns the context error promptly.
func TestRetrySleepCancel(t *testing.T) {
	fail := errors.New("transient")
	ctx, cancel := context.WithCancel(context.Background())
	b := Backoff{Base: time.Hour, Cap: time.Hour}
	done := make(chan error, 1)
	attempted := make(chan struct{}, 1)
	go func() {
		_, err := Retry(ctx, 10, b, nil, func(context.Context) error {
			select {
			case attempted <- struct{}{}:
			default:
			}
			return fail
		}, func(error) bool { return true })
		done <- err
	}()
	<-attempted
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Retry did not return after cancel during backoff")
	}
}

func TestRetry(t *testing.T) {
	fail := errors.New("transient")
	fatal := errors.New("fatal")
	isTransient := func(err error) bool { return errors.Is(err, fail) }
	b := Backoff{Base: time.Microsecond, Cap: time.Microsecond}

	t.Run("succeeds after transient failures", func(t *testing.T) {
		n := 0
		attempts, err := Retry(context.Background(), 10, b, nil, func(context.Context) error {
			n++
			if n < 3 {
				return fail
			}
			return nil
		}, isTransient)
		if err != nil || attempts != 3 {
			t.Fatalf("attempts=%d err=%v", attempts, err)
		}
	})
	t.Run("stops on terminal error", func(t *testing.T) {
		attempts, err := Retry(context.Background(), 10, b, nil, func(context.Context) error {
			return fatal
		}, isTransient)
		if !errors.Is(err, fatal) || attempts != 1 {
			t.Fatalf("attempts=%d err=%v", attempts, err)
		}
	})
	t.Run("exhausts attempts", func(t *testing.T) {
		attempts, err := Retry(context.Background(), 4, b, nil, func(context.Context) error {
			return fail
		}, isTransient)
		if !errors.Is(err, fail) || attempts != 4 {
			t.Fatalf("attempts=%d err=%v", attempts, err)
		}
	})
	t.Run("honors context", func(t *testing.T) {
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		_, err := Retry(ctx, 10, b, nil, func(context.Context) error {
			return fail
		}, isTransient)
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err=%v", err)
		}
	})
}

// TestBackoffJitterDeterminism: an injected Jitter source supersedes
// both the rng argument and the global source, making retry timing
// fully reproducible.
func TestBackoffJitterDeterminism(t *testing.T) {
	delays := func(seed int64) []time.Duration {
		src := rand.New(rand.NewSource(seed))
		b := Backoff{Base: 2 * time.Millisecond, Cap: 64 * time.Millisecond,
			Jitter: src.Float64}
		// A deliberately different rng argument must be ignored.
		decoy := rand.New(rand.NewSource(seed + 1000))
		out := make([]time.Duration, 8)
		for k := range out {
			out[k] = b.Delay(k, decoy)
		}
		return out
	}
	a, b2 := delays(7), delays(7)
	for k := range a {
		if a[k] != b2[k] {
			t.Fatalf("attempt %d: %v != %v with identical jitter seeds", k, a[k], b2[k])
		}
	}
	c := delays(8)
	same := true
	for k := range a {
		if a[k] != c[k] {
			same = false
		}
	}
	if same {
		t.Error("different jitter seeds produced identical delay sequences")
	}

	// A constant jitter fraction gives exact, closed-form delays.
	half := Backoff{Base: 2 * time.Millisecond, Cap: 16 * time.Millisecond,
		Jitter: func() float64 { return 0.5 }}
	want := []time.Duration{
		1 * time.Millisecond, // 2ms * 0.5
		2 * time.Millisecond, // 4ms * 0.5
		4 * time.Millisecond,
		8 * time.Millisecond,
		8 * time.Millisecond, // capped at 16ms
	}
	for k, w := range want {
		if got := half.Delay(k, nil); got != w {
			t.Errorf("attempt %d: delay %v, want %v", k, got, w)
		}
	}
}
