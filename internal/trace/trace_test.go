package trace

import (
	"bytes"
	"io"
	"strings"
	"testing"

	"partialrollback/internal/core"
	"partialrollback/internal/deadlock"
	"partialrollback/internal/sim"
	"partialrollback/internal/txn"
)

func runTraced(t *testing.T, seed int64, w *bytes.Buffer) []Record {
	t.Helper()
	var sink io.Writer
	if w != nil {
		sink = w
	}
	rec := NewRecorder(sink)
	workload := sim.Generate(sim.GenConfig{
		Txns: 6, DBSize: 8, HotSet: 4, HotProb: 0.8,
		LocksPerTxn: 4, RewriteProb: 0.4, Shape: sim.Mixed, Seed: seed,
	})
	_, err := sim.Run(workload, sim.RunConfig{
		Strategy: core.MCS, Resolver: deadlock.Detect{},
		Scheduler: sim.RoundRobin, OnEvent: rec.Hook(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if rec.Err() != nil {
		t.Fatal(rec.Err())
	}
	return rec.Records()
}

func TestReplayProducesIdenticalTrace(t *testing.T) {
	a := runTraced(t, 3, nil)
	b := runTraced(t, 3, nil)
	if d := Diff(a, b); d != "" {
		t.Fatalf("deterministic replay diverged: %s", d)
	}
	c := runTraced(t, 4, nil)
	if d := Diff(a, c); d == "" {
		t.Fatal("different seeds produced identical traces")
	}
}

func TestRoundTripThroughJSON(t *testing.T) {
	var buf bytes.Buffer
	a := runTraced(t, 5, &buf)
	parsed, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if d := Diff(a, parsed); d != "" {
		t.Fatalf("serialization round trip diverged: %s", d)
	}
}

func TestReadRejectsGarbage(t *testing.T) {
	if _, err := Read(strings.NewReader("{not json}\n")); err == nil {
		t.Fatal("want parse error")
	}
	recs, err := Read(strings.NewReader("\n\n"))
	if err != nil || len(recs) != 0 {
		t.Fatalf("blank lines: %v %v", recs, err)
	}
}

func TestSummaryAndPercentiles(t *testing.T) {
	records := []Record{
		{Kind: "grant"}, {Kind: "grant"},
		{Kind: "wait"},
		{Kind: "deadlock"},
		{Kind: "rollback", Txn: 1, Lost: 4},
		{Kind: "rollback", Txn: 2, Lost: 10},
		{Kind: "rollback", Txn: 1, Lost: 2},
		{Kind: "commit"}, {Kind: "commit"},
	}
	s := Summarize(records)
	if s.Grants != 2 || s.Waits != 1 || s.Deadlocks != 1 || s.Rollbacks != 3 || s.Commits != 2 {
		t.Errorf("summary = %+v", s)
	}
	if s.PerTxnRollbacks[txn.ID(1)] != 2 {
		t.Error("per-txn counts")
	}
	if got := s.Percentile(0); got != 2 {
		t.Errorf("p0 = %d", got)
	}
	if got := s.Percentile(100); got != 10 {
		t.Errorf("p100 = %d", got)
	}
	if got := s.Percentile(50); got != 4 {
		t.Errorf("p50 = %d", got)
	}
	hist := s.Histogram([]int64{3, 5})
	if hist[0] != 1 || hist[1] != 1 || hist[2] != 1 {
		t.Errorf("histogram = %v", hist)
	}
}

func TestEmptySummary(t *testing.T) {
	s := Summarize(nil)
	if s.Percentile(50) != 0 {
		t.Error("empty percentile")
	}
	if h := s.Histogram([]int64{1}); h[0] != 0 || h[1] != 0 {
		t.Error("empty histogram")
	}
}

func TestDeadlockRecordFields(t *testing.T) {
	var found bool
	for _, r := range runTraced(t, 6, nil) {
		if r.Kind == "deadlock" {
			found = true
			if r.Requester == 0 || len(r.Cycles) == 0 || len(r.Victims) == 0 {
				t.Errorf("deadlock record incomplete: %+v", r)
			}
		}
	}
	if !found {
		t.Skip("no deadlock on this seed")
	}
}
