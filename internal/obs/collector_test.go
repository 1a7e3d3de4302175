package obs

import (
	"testing"
	"time"

	"partialrollback/internal/core"
	"partialrollback/internal/txn"
)

// fakeClock steps a synthetic time by a fixed tick per reading, so wait
// durations are deterministic.
type fakeClock struct {
	t    time.Time
	tick time.Duration
}

func (f *fakeClock) now() time.Time {
	f.t = f.t.Add(f.tick)
	return f.t
}

func TestCollectorCounters(t *testing.T) {
	reg := NewRegistry()
	c := NewCollector(reg)

	c.OnEvent(core.Event{Kind: core.EventRegister, Txn: 1})
	c.OnEvent(core.Event{Kind: core.EventRegister, Txn: 2})
	c.OnEvent(core.Event{Kind: core.EventGrant, Txn: 1, Entity: "a"})
	c.OnEvent(core.Event{Kind: core.EventWait, Txn: 2, Entity: "a"})
	c.OnEvent(core.Event{Kind: core.EventUnlock, Txn: 1, Entity: "a"})
	c.OnEvent(core.Event{Kind: core.EventGrant, Txn: 2, Entity: "a"})
	c.OnEvent(core.Event{Kind: core.EventCommit, Txn: 1})
	c.OnEvent(core.Event{Kind: core.EventCommit, Txn: 2})

	checks := []struct {
		name string
		got  int64
		want int64
	}{
		{"registers", c.Registers.Value(), 2},
		{"grants", c.Grants.Value(), 2},
		{"waits", c.Waits.Value(), 1},
		{"unlocks", c.Unlocks.Value(), 1},
		{"commits", c.Commits.Value(), 2},
		{"wait durations", c.WaitDur.Count(), 1},
	}
	for _, ck := range checks {
		if ck.got != ck.want {
			t.Errorf("%s = %d, want %d", ck.name, ck.got, ck.want)
		}
	}
}

func TestCollectorRollbackAndDeadlock(t *testing.T) {
	reg := NewRegistry()
	c := NewCollector(reg)

	report := &core.DeadlockReport{
		Requester: 1, Entity: "a",
		Cycles:  [][]txn.ID{{1, 2}, {1, 2, 3}},
		Victims: []core.Victim{{Txn: 2}, {Txn: 3}},
	}
	c.OnEvent(core.Event{Kind: core.EventDeadlock, Txn: 1, Deadlock: report})
	// Partial rollback: 3 states undone, landing on lock state 2.
	c.OnEvent(core.Event{Kind: core.EventRollback, Txn: 2, Lost: 3, ToLockState: 2})
	// Total rollback (restart): back to lock state 0.
	c.OnEvent(core.Event{Kind: core.EventRollback, Txn: 3, Lost: 7, ToLockState: 0})

	if got := c.Deadlocks.Value(); got != 1 {
		t.Errorf("deadlocks = %d, want 1", got)
	}
	if got := c.Victims.Value(); got != 2 {
		t.Errorf("victims = %d, want 2", got)
	}
	if got := c.Rollbacks.Value(); got != 2 {
		t.Errorf("rollbacks = %d, want 2", got)
	}
	if got := c.Restarts.Value(); got != 1 {
		t.Errorf("restarts = %d, want 1", got)
	}
	if got := c.OpsLost.Value(); got != 10 {
		t.Errorf("ops lost = %d, want 10", got)
	}
	if got := c.RollbackDepth.Count(); got != 2 {
		t.Errorf("rollback depth count = %d, want 2", got)
	}
	if got := c.RollbackDepth.Sum(); got != 10 {
		t.Errorf("rollback depth sum = %d, want 10", got)
	}
	if got := c.CycleLen.Count(); got != 2 {
		t.Errorf("cycle lengths = %d, want 2", got)
	}
	if got := c.CycleLen.Sum(); got != 5 {
		t.Errorf("cycle length sum = %d, want 5", got)
	}
	if got := c.VictimsPerDL.Sum(); got != 2 {
		t.Errorf("victims per deadlock sum = %d, want 2", got)
	}
}

func TestCollectorWaitDurations(t *testing.T) {
	reg := NewRegistry()
	c := NewCollector(reg)
	clock := &fakeClock{t: time.Unix(0, 0), tick: 10 * time.Millisecond}
	c.now = clock.now

	// T1 waits then is granted: one 10ms wait (one tick between the
	// stamps).
	c.OnEvent(core.Event{Kind: core.EventWait, Txn: 1, Entity: "a"})
	c.OnEvent(core.Event{Kind: core.EventGrant, Txn: 1, Entity: "a"})
	// T2 waits then is rolled back: the rollback closes the interval.
	c.OnEvent(core.Event{Kind: core.EventWait, Txn: 2, Entity: "a"})
	c.OnEvent(core.Event{Kind: core.EventRollback, Txn: 2, Lost: 1, ToLockState: 0})
	// A grant with no recorded wait start (immediate grant) observes
	// nothing.
	c.OnEvent(core.Event{Kind: core.EventGrant, Txn: 3, Entity: "b"})

	if got := c.WaitDur.Count(); got != 2 {
		t.Fatalf("wait count = %d, want 2", got)
	}
	if got := c.WaitDur.Sum(); got != 20*time.Millisecond {
		t.Fatalf("wait sum = %v, want 20ms", got)
	}
}

func TestCollectorGauges(t *testing.T) {
	reg := NewRegistry()
	c := NewCollector(reg)

	c.OnEvent(core.Event{Kind: core.EventRegister, Txn: 1})
	c.OnEvent(core.Event{Kind: core.EventRegister, Txn: 2})
	c.OnEvent(core.Event{Kind: core.EventWait, Txn: 2, Entity: "a"})

	active, waiting := gaugeValues(t, reg)
	if active != 2 {
		t.Errorf("active = %d, want 2", active)
	}
	if waiting != 1 {
		t.Errorf("waiting = %d, want 1", waiting)
	}

	// An abort while waiting ends both the wait and the activity.
	c.OnEvent(core.Event{Kind: core.EventRollback, Txn: 2, Lost: 2, ToLockState: 0})
	c.OnEvent(core.Event{Kind: core.EventAbort, Txn: 2})
	c.OnEvent(core.Event{Kind: core.EventCommit, Txn: 1})

	active, waiting = gaugeValues(t, reg)
	if active != 0 {
		t.Errorf("active after completion = %d, want 0", active)
	}
	if waiting != 0 {
		t.Errorf("waiting after completion = %d, want 0", waiting)
	}
	if got := c.Aborts.Value(); got != 1 {
		t.Errorf("aborts = %d, want 1", got)
	}
	// The abort's second endWait is a no-op: only one wait was recorded.
	if got := c.WaitDur.Count(); got != 1 {
		t.Errorf("wait count = %d, want 1", got)
	}
}

// gaugeValues scrapes pr_txns_active and pr_txns_waiting from the
// registry's JSON view, exercising the render path as a scrape would.
func gaugeValues(t *testing.T, reg *Registry) (active, waiting int64) {
	t.Helper()
	for _, m := range reg.snapshot() {
		switch m.name() {
		case "pr_txns_active":
			active = m.jsonValue().(int64)
		case "pr_txns_waiting":
			waiting = m.jsonValue().(int64)
		}
	}
	return active, waiting
}
