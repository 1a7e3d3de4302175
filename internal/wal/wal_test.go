package wal

import (
	"bytes"
	"errors"
	"io"
	"math/rand"
	"testing"

	"partialrollback/internal/core"
	"partialrollback/internal/deadlock"
	"partialrollback/internal/entity"
	"partialrollback/internal/sim"
)

func TestRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf, 0)
	wants := []Record{
		{Name: "a", Value: 42, Seq: 1},
		{Name: "long-entity-name", Value: -7, Seq: 2},
		{Name: "", Value: 0, Seq: 3},
	}
	for _, r := range wants {
		seq, err := w.Append(r.Name, r.Value)
		if err != nil {
			t.Fatal(err)
		}
		if seq != r.Seq {
			t.Errorf("seq = %d, want %d", seq, r.Seq)
		}
	}
	if w.BytesWritten() != int64(buf.Len()) {
		t.Error("byte accounting")
	}
	got, err := ReadAll(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(wants) {
		t.Fatalf("records = %d", len(got))
	}
	for i, r := range got {
		if r != wants[i] {
			t.Errorf("record %d = %+v, want %+v", i, r, wants[i])
		}
	}
}

func TestTornTailTruncates(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf, 0)
	for i := 0; i < 5; i++ {
		if _, err := w.Append("e", int64(i)); err != nil {
			t.Fatal(err)
		}
	}
	full := buf.Bytes()
	for cut := 1; cut < 20; cut++ {
		torn := full[:len(full)-cut]
		got, err := ReadAll(bytes.NewReader(torn))
		if err == nil {
			// A cut landing exactly on a record boundary reads clean.
			continue
		}
		if !errors.Is(err, io.ErrUnexpectedEOF) && !errors.Is(err, ErrCorrupt) {
			t.Fatalf("cut %d: unexpected error %v", cut, err)
		}
		if len(got) > 4 {
			t.Fatalf("cut %d: kept %d records from a torn 5-record log", cut, len(got))
		}
		for i, r := range got {
			if r.Seq != uint64(i+1) {
				t.Fatalf("cut %d: bad prefix %+v", cut, got)
			}
		}
	}
}

func TestBitFlipDetected(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf, 0)
	for i := 0; i < 4; i++ {
		if _, err := w.Append("entity", int64(100+i)); err != nil {
			t.Fatal(err)
		}
	}
	data := buf.Bytes()
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 100; trial++ {
		flipAt := rng.Intn(len(data))
		corrupted := append([]byte(nil), data...)
		corrupted[flipAt] ^= 1 << uint(rng.Intn(8))
		got, err := ReadAll(bytes.NewReader(corrupted))
		if err == nil {
			t.Fatalf("flip at %d undetected", flipAt)
		}
		// The prefix before the damaged record must be intact.
		for i, r := range got {
			if r.Seq != uint64(i+1) || r.Value != int64(100+i) {
				t.Fatalf("flip at %d: prefix damaged: %+v", flipAt, got)
			}
		}
	}
}

func TestSequenceGapDetected(t *testing.T) {
	var b1, b2 bytes.Buffer
	w1 := NewWriter(&b1, 1)
	if _, err := w1.Append("a", 1); err != nil {
		t.Fatal(err)
	}
	w3 := NewWriter(&b2, 3) // skips seq 2
	if _, err := w3.Append("a", 3); err != nil {
		t.Fatal(err)
	}
	combined := append(b1.Bytes(), b2.Bytes()...)
	got, err := ReadAll(bytes.NewReader(combined))
	if err == nil || !errors.Is(err, ErrCorrupt) {
		t.Fatalf("gap undetected: %v", err)
	}
	if len(got) != 1 {
		t.Fatalf("prefix = %d records", len(got))
	}
}

// TestRecoveryMatchesFinalState: run a deadlocking workload with the
// WAL attached, then rebuild the database from the initial snapshot
// plus the log and compare — the durability contract.
func TestRecoveryMatchesFinalState(t *testing.T) {
	for _, strat := range []core.Strategy{core.Total, core.MCS, core.SDG} {
		var buf bytes.Buffer
		w := sim.Generate(sim.GenConfig{
			Txns: 10, DBSize: 10, HotSet: 5, HotProb: 0.8,
			LocksPerTxn: 4, RewriteProb: 0.5, Shape: sim.Mixed, Seed: 6,
		})
		store := w.NewStore()
		writer := NewWriter(&buf, 1)
		errc := writer.Attach(store)

		sys := core.New(core.Config{Store: store, Strategy: strat, Resolver: deadlock.Detect{}})
		for _, p := range w.Programs {
			if _, err := sys.Register(p); err != nil {
				t.Fatal(err)
			}
		}
		for !sys.AllCommitted() {
			for _, id := range sys.Runnable() {
				if _, err := sys.Step(id); err != nil {
					t.Fatal(err)
				}
			}
		}
		select {
		case err := <-errc:
			t.Fatal(err)
		default:
		}

		// Recover onto a fresh initial store.
		recovered := w.NewStore()
		applied, nextSeq, damage := Recover(bytes.NewReader(buf.Bytes()), recovered)
		if damage != nil {
			t.Fatalf("%v: clean log reported damage: %v", strat, damage)
		}
		if applied == 0 {
			t.Fatalf("%v: nothing logged", strat)
		}
		if nextSeq != uint64(applied)+1 {
			t.Errorf("next seq = %d", nextSeq)
		}
		want := store.Snapshot()
		got := recovered.Snapshot()
		for k, v := range want {
			if got[k] != v {
				t.Errorf("%v: recovered %q = %d, want %d", strat, k, got[k], v)
			}
		}
	}
}

// TestCrashMidRunRecoversPrefix: stop the engine mid-flight, "crash"
// with a torn final record, and verify recovery reproduces a consistent
// prefix of installs.
func TestCrashMidRunRecoversPrefix(t *testing.T) {
	var buf bytes.Buffer
	w := sim.BankingWorkload(6, 30, 500, 4)
	store := w.NewStore()
	writer := NewWriter(&buf, 1)
	writer.Attach(store)
	sys := core.New(core.Config{Store: store, Strategy: core.MCS, Resolver: deadlock.Detect{}})
	for _, p := range w.Programs {
		if _, err := sys.Register(p); err != nil {
			t.Fatal(err)
		}
	}
	// Run roughly half way.
	for steps := 0; steps < 300 && !sys.AllCommitted(); steps++ {
		for _, id := range sys.Runnable() {
			if _, err := sys.Step(id); err != nil {
				t.Fatal(err)
			}
		}
	}
	logBytes := buf.Bytes()
	if len(logBytes) == 0 {
		t.Skip("no installs before crash point")
	}
	torn := logBytes[:len(logBytes)-3] // tear the tail
	recovered := w.NewStore()
	applied, _, damage := Recover(bytes.NewReader(torn), recovered)
	if damage == nil {
		t.Log("tear landed on a record boundary; prefix is the whole log")
	}
	// Whatever was applied must be a prefix of the actual install
	// stream: re-read the intact log and compare the first `applied`.
	all, err := ReadAll(bytes.NewReader(logBytes))
	if err != nil {
		t.Fatal(err)
	}
	if applied > len(all) {
		t.Fatalf("applied %d > logged %d", applied, len(all))
	}
	check := w.NewStore()
	for _, r := range all[:applied] {
		_ = check.Install(r.Name, r.Value)
	}
	for k, v := range check.Snapshot() {
		if got := recovered.MustGet(k); got != v {
			t.Errorf("recovered %q = %d, want %d", k, got, v)
		}
	}
}

func TestAttachHookOrder(t *testing.T) {
	var buf bytes.Buffer
	store := entity.NewStore(map[string]int64{"a": 1})
	writer := NewWriter(&buf, 1)
	writer.Attach(store)
	if err := store.Install("a", 9); err != nil {
		t.Fatal(err)
	}
	recs, err := ReadAll(bytes.NewReader(buf.Bytes()))
	if err != nil || len(recs) != 1 || recs[0].Value != 9 {
		t.Fatalf("hook did not log: %v %v", recs, err)
	}
	store.SetInstallHook(nil)
	if err := store.Install("a", 10); err != nil {
		t.Fatal(err)
	}
	recs, _ = ReadAll(bytes.NewReader(buf.Bytes()))
	if len(recs) != 1 {
		t.Error("cleared hook still logging")
	}
}

// FuzzReadAllNeverPanics: arbitrary bytes must never panic the reader,
// and any records returned must be a valid in-sequence prefix.
func FuzzReadAllNeverPanics(f *testing.F) {
	var buf bytes.Buffer
	w := NewWriter(&buf, 1)
	_, _ = w.Append("a", 1)
	_, _ = w.Append("b", -2)
	f.Add(buf.Bytes())
	f.Add([]byte{0x52, 0x50, 0xff, 0xff})
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		recs, _ := ReadAll(bytes.NewReader(data))
		for i, r := range recs {
			if r.Seq != uint64(i+1) {
				t.Fatalf("out-of-sequence prefix: %+v", recs)
			}
		}
	})
}
