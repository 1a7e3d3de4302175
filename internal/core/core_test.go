package core

import (
	"path/filepath"
	"strings"
	"testing"

	"partialrollback/internal/entity"
	"partialrollback/internal/txn"
	"partialrollback/internal/value"
)

func stepToCommit(t *testing.T, s *System, id txn.ID) {
	t.Helper()
	for i := 0; i < 10000; i++ {
		res, err := s.Step(id)
		if err != nil {
			t.Fatal(err)
		}
		switch res.Outcome {
		case Committed:
			return
		case Progressed:
		default:
			t.Fatalf("%v: unexpected outcome %v", id, res.Outcome)
		}
	}
	t.Fatalf("%v did not commit", id)
}

func TestUnlockInstallsValueEarly(t *testing.T) {
	store := entity.NewStore(map[string]int64{"a": 1})
	s := New(Config{Store: store, Strategy: Total})
	p := txn.NewProgram("T").
		Local("x", 0).
		LockX("a").
		Read("a", "x").
		Write("a", value.Add(value.L("x"), value.C(41))).
		Unlock("a").
		Compute("x", value.C(0)).
		MustBuild()
	id := s.MustRegister(p)
	// Step through the unlock (4 ops) but not commit.
	for i := 0; i < 4; i++ {
		if _, err := s.Step(id); err != nil {
			t.Fatal(err)
		}
	}
	if got := store.MustGet("a"); got != 42 {
		t.Errorf("a = %d after unlock, want 42 (installed before commit)", got)
	}
	stepToCommit(t, s, id)
}

func TestRegisterRejectsInvalidAndUnknownEntities(t *testing.T) {
	store := entity.NewStore(map[string]int64{"a": 0})
	s := New(Config{Store: store})
	bad := &txn.Program{Name: "bad", Locals: map[string]int64{}, Ops: []txn.Op{
		{Kind: txn.OpRead, Entity: "a", Local: "x"},
		{Kind: txn.OpCommit},
	}}
	if _, err := s.Register(bad); err == nil {
		t.Error("invalid program accepted")
	}
	ghost := txn.NewProgram("ghost").Local("x", 0).LockX("zz").MustBuild()
	if _, err := s.Register(ghost); err == nil || !strings.Contains(err.Error(), "undefined entity") {
		t.Errorf("want undefined-entity error, got %v", err)
	}
	if _, err := s.Step(999); err == nil {
		t.Error("step of unknown txn")
	}
}

// TestRegisterPinsLockSetOnce: on the paged backend Register pins each
// lock-set entity's page in the same pass that checks it exists, and a
// rejected program leaves no pin behind.
func TestRegisterPinsLockSetOnce(t *testing.T) {
	store, err := entity.NewUniformPagedStore("e", 100, 0, entity.PagedConfig{
		Path:      filepath.Join(t.TempDir(), "heap.dat"),
		PageSize:  128, // 15 slots per page: e0 and e50 sit on different pages
		PoolPages: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	s := New(Config{Store: store, Strategy: MCS})
	pinned := func() int64 { return store.PoolStats().PinnedPages }
	id := s.MustRegister(txn.NewProgram("T").Local("x", 0).LockX("e0").LockS("e50").MustBuild())
	if got := pinned(); got != 2 {
		t.Fatalf("pinned pages after Register = %d, want 2", got)
	}
	ghost := txn.NewProgram("ghost").LockS("e99").LockS("zz").LockS("yy").MustBuild()
	if _, err := s.Register(ghost); err == nil || err.Error() != `core: program ghost locks undefined entity "yy"` {
		t.Errorf("ghost: err = %v", err)
	}
	if got := pinned(); got != 2 {
		t.Errorf("pinned pages after a rejected Register = %d, want 2", got)
	}
	stepToCommit(t, s, id)
	if got := pinned(); got != 0 {
		t.Errorf("pinned pages after commit = %d, want 0", got)
	}
}

func TestSharedReadersProceedTogether(t *testing.T) {
	store := entity.NewStore(map[string]int64{"a": 7})
	s := New(Config{Store: store, Strategy: SDG})
	mk := func(name string) txn.ID {
		return s.MustRegister(txn.NewProgram(name).
			Local("x", 0).LockS("a").Read("a", "x").MustBuild())
	}
	r1, r2 := mk("R1"), mk("R2")
	for _, id := range []txn.ID{r1, r2} {
		res, err := s.Step(id)
		if err != nil || res.Outcome != Progressed {
			t.Fatalf("shared lock should grant: %v %v", res.Outcome, err)
		}
	}
	stepToCommit(t, s, r1)
	stepToCommit(t, s, r2)
}

func TestDeclareLastLockStopsMonitoring(t *testing.T) {
	store := entity.NewStore(map[string]int64{"a": 0, "b": 0})
	s := New(Config{Store: store, Strategy: SDG})
	p := txn.NewProgram("T").
		Local("x", 0).
		LockX("a").
		LockX("b").
		DeclareLastLock().
		Write("a", value.C(1)).
		Write("b", value.C(2)).
		Write("a", value.C(3)).
		MustBuild()
	id := s.MustRegister(p)
	for i := 0; i < 6; i++ { // through the writes
		if _, err := s.Step(id); err != nil {
			t.Fatal(err)
		}
	}
	wd, err := s.WellDefinedStates(id)
	if err != nil {
		t.Fatal(err)
	}
	// Post-declaration writes are untracked: all states stay
	// well-defined despite a@{2?,...} scattering.
	if len(wd) != 3 {
		t.Errorf("well-defined = %v, want all of 0,1,2", wd)
	}
	stepToCommit(t, s, id)
}

func TestForceRollbackGuards(t *testing.T) {
	store := entity.NewStore(map[string]int64{"a": 0, "b": 0})

	// Total: only state 0.
	s := New(Config{Store: store, Strategy: Total})
	p := txn.NewProgram("T").Local("x", 0).LockX("a").LockX("b").MustBuild()
	id := s.MustRegister(p)
	if _, err := s.Step(id); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Step(id); err != nil {
		t.Fatal(err)
	}
	if err := s.ForceRollback(id, 1); err == nil {
		t.Error("total strategy must reject q=1")
	}
	if err := s.ForceRollback(id, 0); err != nil {
		t.Error(err)
	}
	if got := s.LockIndex(id); got != 0 {
		t.Errorf("lock index = %d", got)
	}
	if held := s.Held(id); len(held) != 0 {
		t.Errorf("held = %v", held)
	}

	// SDG: must reject non-well-defined targets.
	s2 := New(Config{Store: store, Strategy: SDG})
	p2 := txn.NewProgram("T2").Local("x", 0).
		LockX("a").Write("a", value.C(1)).
		LockX("b").Write("a", value.C(2)). // destroys state 1
		MustBuild()
	id2 := s2.MustRegister(p2)
	for i := 0; i < 4; i++ {
		if _, err := s2.Step(id2); err != nil {
			t.Fatal(err)
		}
	}
	if err := s2.ForceRollback(id2, 1); err == nil {
		t.Error("state 1 is not well-defined; rollback must fail")
	}
	if err := s2.ForceRollback(id2, 0); err != nil {
		t.Error(err)
	}
}

func TestRollbackAfterUnlockForbidden(t *testing.T) {
	store := entity.NewStore(map[string]int64{"a": 0})
	s := New(Config{Store: store, Strategy: MCS})
	p := txn.NewProgram("T").Local("x", 0).
		LockX("a").Unlock("a").Compute("x", value.C(1)).MustBuild()
	id := s.MustRegister(p)
	for i := 0; i < 2; i++ { // through unlock
		if _, err := s.Step(id); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.ForceRollback(id, 0); err == nil {
		t.Error("rollback after unlocking must be rejected (paper assumption)")
	}
}

func TestEventStream(t *testing.T) {
	store := entity.NewStore(map[string]int64{"a": 0})
	var kinds []EventKind
	s := New(Config{Store: store, OnEvent: func(e Event) {
		kinds = append(kinds, e.Kind)
		_ = e.String() // must not panic
	}})
	id := s.MustRegister(txn.NewProgram("T").Local("x", 0).
		LockX("a").Unlock("a").MustBuild())
	stepToCommit(t, s, id)
	want := []EventKind{EventRegister, EventGrant, EventUnlock, EventCommit}
	if len(kinds) != len(want) {
		t.Fatalf("events = %v", kinds)
	}
	for i := range want {
		if kinds[i] != want[i] {
			t.Errorf("event %d = %v, want %v", i, kinds[i], want[i])
		}
	}
}

// TestReleaseEventsPrecedeGrants: when an unlock or a commit promotes
// a queued waiter, the EventUnlock or EventCommit comes before the
// waiter's EventGrant, so an event consumer never sees two conflicting
// holds overlap.
func TestReleaseEventsPrecedeGrants(t *testing.T) {
	store := entity.NewStore(map[string]int64{"a": 0, "b": 0})
	var events []string
	s := New(Config{Store: store, Strategy: MCS, OnEvent: func(e Event) {
		events = append(events, e.String())
	}})
	t1 := s.MustRegister(txn.NewProgram("T1").Local("x", 0).
		LockX("a").LockX("b").Write("b", value.C(1)).Unlock("a").MustBuild())
	t2 := s.MustRegister(txn.NewProgram("T2").Local("x", 0).
		LockX("a").MustBuild())
	t3 := s.MustRegister(txn.NewProgram("T3").Local("x", 0).
		LockS("b").Read("b", "x").MustBuild())
	for _, st := range []struct {
		id   txn.ID
		want Outcome
	}{
		{t1, Progressed}, {t1, Progressed}, {t1, Progressed}, // lock a, lock b, write b
		{t2, Blocked}, {t3, Blocked},
		{t1, Progressed}, // unlock a: promotes T2
		{t1, Committed},  // releases b: promotes T3
	} {
		res, err := s.Step(st.id)
		if err != nil || res.Outcome != st.want {
			t.Fatalf("step %v: %v, %v; want %v", st.id, res.Outcome, err, st.want)
		}
	}
	at := func(ev string) int {
		for i, e := range events {
			if e == ev {
				return i
			}
		}
		t.Fatalf("no %q in %v", ev, events)
		return -1
	}
	if at("unlock T1 a") > at("grant T2 a") {
		t.Errorf("T2's grant precedes the unlock that caused it: %v", events)
	}
	if at("commit T1") > at("grant T3 b") {
		t.Errorf("T3's grant precedes the commit that caused it: %v", events)
	}
}

func TestStringerCoverage(t *testing.T) {
	for _, s := range []interface{ String() string }{
		Total, MCS, SDG, Strategy(99),
		StatusRunning, StatusWaiting, StatusCommitted, Status(99),
		Progressed, Blocked, BlockedDeadlock, StillWaiting, Committed,
		AlreadyCommitted, SelfRolledBack, Outcome(99),
		EventRegister, EventGrant, EventWait, EventDeadlock,
		EventRollback, EventUnlock, EventCommit, EventKind(99),
	} {
		if s.String() == "" {
			t.Errorf("%T has empty String()", s)
		}
	}
}

// TestNoResolverLeavesCycle pins the nil-Resolver contract: the engine
// only queues waits, so two transactions that close a cycle both
// report Blocked, nothing counts a deadlock, and CheckInvariants — the
// check that the caller's no-cycle guarantee held — reports the cycle.
func TestNoResolverLeavesCycle(t *testing.T) {
	store := entity.NewStore(map[string]int64{"a": 0, "b": 0})
	s := New(Config{Store: store, Strategy: MCS})
	t1 := s.MustRegister(txn.NewProgram("T1").LockX("a").LockX("b").MustBuild())
	t2 := s.MustRegister(txn.NewProgram("T2").LockX("b").LockX("a").MustBuild())
	for _, st := range []struct {
		id   txn.ID
		want Outcome
	}{{t1, Progressed}, {t2, Progressed}, {t1, Blocked}, {t2, Blocked}} {
		if res, err := s.Step(st.id); err != nil || res.Outcome != st.want {
			t.Fatalf("step %v: %v, %v; want %v", st.id, res.Outcome, err, st.want)
		}
	}
	if d := s.Stats().Deadlocks; d != 0 {
		t.Errorf("Deadlocks = %d, want 0", d)
	}
	if err := s.CheckInvariants(); err == nil || !strings.Contains(err.Error(), "cycle") {
		t.Errorf("CheckInvariants = %v, want the cycle reported", err)
	}
}

func TestHybridCheckpointsTakenAtPlannedStates(t *testing.T) {
	store := entity.NewStore(map[string]int64{"a": 0, "b": 0, "c": 0})
	s := New(Config{Store: store, Strategy: Hybrid, HybridBudget: 4})
	// Scattered writes destroy interior states, so the allocator plans
	// checkpoints.
	p := txn.NewProgram("H").Local("x", 0).
		LockX("a").Read("a", "x").
		Write("a", value.Add(value.L("x"), value.C(1))).
		LockX("b").
		Write("a", value.Add(value.L("x"), value.C(1))). // destroys state 1
		LockX("c").
		Write("b", value.Add(value.L("x"), value.C(1))).
		MustBuild()
	id := s.MustRegister(p)
	for i := 0; i < len(p.Ops)-1; i++ {
		if _, err := s.Step(id); err != nil {
			t.Fatal(err)
		}
	}
	cps, peak, err := s.HybridStats(id)
	if err != nil {
		t.Fatal(err)
	}
	if cps == 0 || peak == 0 {
		t.Errorf("checkpoints=%d peak=%d; planned states not checkpointed", cps, peak)
	}
	// State 1 is destroyed but checkpointed: ForceRollback must accept.
	if err := s.ForceRollback(id, 1); err != nil {
		t.Errorf("checkpointed state rejected: %v", err)
	}
}
