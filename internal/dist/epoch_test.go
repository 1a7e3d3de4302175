package dist

import (
	"container/heap"
	"testing"

	"partialrollback/internal/core"
	"partialrollback/internal/lock"
	"partialrollback/internal/txn"
)

// newTestEngine builds a two-site engine with one registered agent for
// direct message-handler testing.
func newTestEngine(t *testing.T) (*msgEngine, *msgAgent, *msgSite) {
	t.Helper()
	tp := Topology{Sites: 2, EntitySite: map[string]int{"x": 0, "y": 1}}
	e := &msgEngine{
		cfg:    MsgConfig{Topology: tp, Strategy: core.MCS, Latency: 5, MaxTime: 1000},
		agents: map[txn.ID]*msgAgent{},
	}
	e.metrics.PerSiteDeadlocks = make([]int64, 2)
	for s := 0; s < 2; s++ {
		e.sites = append(e.sites, &msgSite{
			id: s, locks: lock.NewTable(),
			global: map[string]int64{}, epochOf: map[txn.ID]int{},
		})
	}
	e.sites[0].global["x"] = 7
	e.sites[1].global["y"] = 9
	prog := txn.NewProgram("A").Local("l", 0).LockX("x").LockX("y").MustBuild()
	a := &msgAgent{
		id: 1, home: 0, prog: prog, analysis: txn.Analyze(prog), entry: 1,
		locals: map[string]int64{"l": 0}, copies: map[string]int64{},
		heldAt: map[string]int{}, modes: map[string]lock.Mode{},
		grantVals: map[string]int64{},
	}
	e.agents[1] = a
	return e, a, e.sites[1]
}

func drain(t *testing.T, e *msgEngine) {
	t.Helper()
	for len(e.queue) > 0 {
		m := heap.Pop(&e.queue).(*message)
		e.now = m.at
		if err := e.dispatch(m); err != nil {
			t.Fatal(err)
		}
	}
}

// TestStaleGrantReturnsLock: a grant carrying an old epoch (the agent
// rolled back while the grant was in flight) must be returned to the
// owning site as a release, not installed.
func TestStaleGrantReturnsLock(t *testing.T) {
	e, a, siteY := newTestEngine(t)
	// The site granted y under epoch 0; meanwhile the agent's epoch
	// advanced to 1 (a rollback cancelled the request).
	if granted, _, err := siteY.locks.Acquire(a.id, "y", lock.Exclusive); err != nil || !granted {
		t.Fatal("setup: site-side grant failed")
	}
	a.epoch = 1
	a.waiting = false
	if err := e.agentGranted(a, &message{kind: msgGrant, to: 0, txn: 1, entity: "y", mode: lock.Exclusive, epoch: 0, value: 9}); err != nil {
		t.Fatal(err)
	}
	if _, held := a.heldAt["y"]; held {
		t.Fatal("stale grant must not be installed at the agent")
	}
	drain(t, e) // delivers the release back to site 1
	if holders := siteY.locks.Holders("y"); len(holders) != 0 {
		t.Fatalf("site still records holders %v after stale-grant return", holders)
	}
	if e.metrics.Releases != 1 {
		t.Errorf("expected one inter-site release, got %d", e.metrics.Releases)
	}
}

// TestStaleCancelIgnored: a cancel carrying an old epoch (the agent
// re-requested afterwards) must not retract the new request.
func TestStaleCancelIgnored(t *testing.T) {
	e, a, siteY := newTestEngine(t)
	// Another holder keeps y so the agent's request queues.
	if granted, _, err := siteY.locks.Acquire(99, "y", lock.Exclusive); err != nil || !granted {
		t.Fatal("setup")
	}
	a.epoch = 2
	if err := e.siteLockRequest(siteY, &message{kind: msgLockReq, to: 1, txn: 1, entity: "y", mode: lock.Exclusive, epoch: 2}); err != nil {
		t.Fatal(err)
	}
	if _, waiting := siteY.locks.WaitingOn(a.id); !waiting {
		t.Fatal("request should be queued")
	}
	// A cancel from epoch 1 arrives late.
	if err := e.siteCancel(siteY, &message{kind: msgCancel, to: 1, txn: 1, entity: "y", epoch: 1}); err != nil {
		t.Fatal(err)
	}
	if _, waiting := siteY.locks.WaitingOn(a.id); !waiting {
		t.Fatal("stale cancel retracted a live request")
	}
	// The matching-epoch cancel works.
	if err := e.siteCancel(siteY, &message{kind: msgCancel, to: 1, txn: 1, entity: "y", epoch: 2}); err != nil {
		t.Fatal(err)
	}
	if _, waiting := siteY.locks.WaitingOn(a.id); waiting {
		t.Fatal("matching cancel ignored")
	}
}

// TestStaleLockRequestDropped: a request from a pre-rollback epoch must
// be dropped by the site.
func TestStaleLockRequestDropped(t *testing.T) {
	e, a, siteY := newTestEngine(t)
	a.epoch = 3
	if err := e.siteLockRequest(siteY, &message{kind: msgLockReq, to: 1, txn: 1, entity: "y", mode: lock.Exclusive, epoch: 2}); err != nil {
		t.Fatal(err)
	}
	if holders := siteY.locks.Holders("y"); len(holders) != 0 {
		t.Fatal("stale request granted")
	}
	if _, waiting := siteY.locks.WaitingOn(a.id); waiting {
		t.Fatal("stale request queued")
	}
}

// TestMsgLatencyScalesMakespan: higher latency means later completion
// for the same cross-site workload.
func TestMsgLatencyScalesMakespan(t *testing.T) {
	tp := Topology{Sites: 2}
	w := msgWorkload(9, tp)
	var prev int64
	for i, lat := range []int64{1, 10, 40} {
		res, err := MsgRun(w, MsgConfig{Topology: tp, Strategy: core.MCS, Latency: lat})
		if err != nil {
			t.Fatal(err)
		}
		if i > 0 && res.Metrics.Makespan <= prev {
			t.Errorf("latency %d makespan %d did not grow past %d", lat, res.Metrics.Makespan, prev)
		}
		prev = res.Metrics.Makespan
	}
}
