package history

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"partialrollback/internal/core"
	"partialrollback/internal/txn"
)

func TestSerialHistory(t *testing.T) {
	r := NewRecorder()
	r.OnGrant(1, "a", Write)
	r.OnRelease(1, "a")
	r.OnCommit(1)
	r.OnGrant(2, "a", Write)
	r.OnCommit(2) // implicit release at commit
	edges, err := r.CheckSerializable()
	if err != nil {
		t.Fatal(err)
	}
	if len(edges) != 1 || edges[0].From != 1 || edges[0].To != 2 {
		t.Errorf("edges = %v", edges)
	}
	order, err := r.SerialOrder()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(order, []txn.ID{1, 2}) {
		t.Errorf("order = %v", order)
	}
}

func TestReadersDontConflict(t *testing.T) {
	r := NewRecorder()
	r.OnGrant(1, "a", Read)
	r.OnGrant(2, "a", Read)
	r.OnCommit(1)
	r.OnCommit(2)
	edges, err := r.CheckSerializable()
	if err != nil {
		t.Fatal(err)
	}
	if len(edges) != 0 {
		t.Errorf("read-read conflict recorded: %v", edges)
	}
}

func TestOverlapDetected(t *testing.T) {
	r := NewRecorder()
	r.OnGrant(1, "a", Write)
	r.OnGrant(2, "a", Write) // overlapping writers: locking violation
	r.OnCommit(1)
	r.OnCommit(2)
	if _, err := r.CheckSerializable(); err == nil || !strings.Contains(err.Error(), "overlap") {
		t.Errorf("want overlap error, got %v", err)
	}
}

func TestRetractErasesEpisode(t *testing.T) {
	r := NewRecorder()
	r.OnGrant(1, "a", Write)
	r.OnRetract(1, "a") // rollback released without install
	r.OnGrant(2, "a", Write)
	r.OnCommit(2)
	r.OnGrant(1, "a", Write) // re-acquired after rollback
	r.OnCommit(1)
	edges, err := r.CheckSerializable()
	if err != nil {
		t.Fatal(err)
	}
	// Only the re-acquired episode counts: 2 -> 1.
	if len(edges) != 1 || edges[0].From != 2 || edges[0].To != 1 {
		t.Errorf("edges = %v", edges)
	}
}

func TestAbortDiscardsEverything(t *testing.T) {
	r := NewRecorder()
	r.OnGrant(1, "a", Write)
	r.OnRelease(1, "a")
	r.OnAbort(1)
	if len(r.Committed()) != 0 {
		t.Error("aborted episodes leaked")
	}
}

func TestCycleDetected(t *testing.T) {
	// Construct an artificial non-serializable history: T1 before T2 on
	// a, T2 before T1 on b.
	r := NewRecorder()
	r.OnGrant(1, "a", Write)
	r.OnRelease(1, "a")
	r.OnGrant(2, "b", Write)
	r.OnRelease(2, "b")
	r.OnGrant(2, "a", Write)
	r.OnRelease(2, "a")
	r.OnGrant(1, "b", Write)
	r.OnRelease(1, "b")
	r.OnCommit(1)
	r.OnCommit(2)
	if _, err := r.CheckSerializable(); err == nil || !strings.Contains(err.Error(), "cycle") {
		t.Errorf("want cycle error, got %v", err)
	}
	if _, err := r.SerialOrder(); err == nil {
		t.Error("serial order must fail on a cycle")
	}
}

func TestReleaseWithoutGrantIgnored(t *testing.T) {
	r := NewRecorder()
	r.OnRelease(1, "ghost")
	r.OnCommit(1)
	if len(r.Committed()) != 0 {
		t.Error("phantom episode")
	}
}

func TestRWandWRConflicts(t *testing.T) {
	r := NewRecorder()
	r.OnGrant(1, "a", Read)
	r.OnRelease(1, "a")
	r.OnGrant(2, "a", Write)
	r.OnRelease(2, "a")
	r.OnGrant(3, "a", Read)
	r.OnRelease(3, "a")
	for _, id := range []txn.ID{1, 2, 3} {
		r.OnCommit(id)
	}
	edges, err := r.CheckSerializable()
	if err != nil {
		t.Fatal(err)
	}
	// 1->2 (R before W) and 2->3 (W before R); 1 and 3 don't conflict.
	if len(edges) != 2 {
		t.Errorf("edges = %v", edges)
	}
	order, err := r.SerialOrder()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(order, []txn.ID{1, 2, 3}) {
		t.Errorf("order = %v", order)
	}
}

// TestClock: every grant and release takes the next tick of the
// recorder's logical clock, and commit closes open holds in name order.
func TestClock(t *testing.T) {
	r := NewRecorder()
	r.OnGrant(1, "b", Write)
	r.OnGrant(1, "a", Read)
	r.OnGrant(1, "c", Write)
	r.OnRelease(1, "c")
	r.OnCommit(1)
	want := []Episode{
		{Txn: 1, Entity: "c", Mode: Write, Grant: 3, Release: 4},
		{Txn: 1, Entity: "a", Mode: Read, Grant: 2, Release: 5},
		{Txn: 1, Entity: "b", Mode: Write, Grant: 1, Release: 6},
	}
	if got := r.Committed(); !reflect.DeepEqual(got, want) {
		t.Errorf("episodes = %+v, want %+v", got, want)
	}
}

// TestOnEventRollbackRetractsFromLockState feeds a recorder engine
// events by hand: T1 holds a (X), b (S), c (X) and d (S) at lock
// indexes 0-3 and is rolled back to lock state 2, so exactly c and d
// are retracted; after re-acquiring d it commits. T2's episodes on b
// and c follow T1's surviving hold and retracted one.
func TestOnEventRollbackRetractsFromLockState(t *testing.T) {
	r := NewRecorder()
	grant := func(id txn.ID, ent, mode string) {
		r.OnEvent(core.Event{Kind: core.EventGrant, Txn: id, Entity: ent, Detail: mode})
	}
	grant(1, "a", "X")
	grant(1, "b", "S")
	grant(1, "c", "X")
	grant(1, "d", "S")
	r.OnEvent(core.Event{Kind: core.EventWait, Txn: 1, Entity: "e"})
	r.OnEvent(core.Event{Kind: core.EventRollback, Txn: 1, ToLockState: 2, FromState: 9, ToState: 4, Lost: 5})
	grant(2, "c", "X") // granted from T1's retracted hold
	grant(2, "b", "S") // shares T1's surviving hold
	r.OnEvent(core.Event{Kind: core.EventCommit, Txn: 2})
	grant(1, "d", "S")
	r.OnEvent(core.Event{Kind: core.EventCommit, Txn: 1})

	var got []string
	for _, ep := range r.Committed() {
		got = append(got, fmt.Sprintf("%v:%s:%v", ep.Txn, ep.Entity, ep.Mode))
	}
	want := []string{"T2:b:R", "T2:c:W", "T1:a:W", "T1:b:R", "T1:d:R"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("committed episodes = %v, want %v", got, want)
	}
	edges, err := r.CheckSerializable()
	if err != nil {
		t.Fatal(err)
	}
	// T2's c never conflicts with the retracted c of T1, and b and d
	// are shared by everyone: no edges.
	if len(edges) != 0 {
		t.Errorf("edges = %v, want none", edges)
	}
}

// TestOnEventAbortLeavesNothing: an aborted transaction's holds and
// closed episodes are discarded, and a later commit event for its ID
// records nothing.
func TestOnEventAbortLeavesNothing(t *testing.T) {
	r := NewRecorder()
	r.OnEvent(core.Event{Kind: core.EventGrant, Txn: 1, Entity: "a", Detail: "X"})
	r.OnEvent(core.Event{Kind: core.EventGrant, Txn: 1, Entity: "b", Detail: "S"})
	r.OnEvent(core.Event{Kind: core.EventRollback, Txn: 1, ToLockState: 0})
	r.OnEvent(core.Event{Kind: core.EventAbort, Txn: 1})
	r.OnEvent(core.Event{Kind: core.EventCommit, Txn: 1})
	if got := r.Committed(); len(got) != 0 {
		t.Errorf("aborted transaction left %v", got)
	}
	if len(r.open) != 0 || len(r.granted) != 0 || len(r.done) != 0 {
		t.Errorf("live state left: open %v granted %v done %v", r.open, r.granted, r.done)
	}
}
