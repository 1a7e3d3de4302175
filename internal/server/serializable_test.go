package server

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"partialrollback/internal/client"
	"partialrollback/internal/core"
	"partialrollback/internal/history"
	"partialrollback/internal/sim"
	"partialrollback/internal/txn"
)

// TestNodeHistorySerializable puts the serializability oracle on the
// real serving path: a history.Recorder subscribed to Config.OnEvent
// watches 64 concurrent client.Mux streams run a contended workload
// through the server's stream goroutines, on hotspot's generator with
// and without shared locks. Every transaction must commit with no
// deadlock and no rollback, because the server takes each program's
// locks in one entity order; the recorded history must be
// conflict-serializable with every committing run in its serial order,
// and replaying the programs one at a time in that order must
// reproduce the served database.
func TestNodeHistorySerializable(t *testing.T) {
	const streams = 64
	for _, tc := range []struct {
		name      string
		shared    float64
		pad       int
		perStream int
	}{
		{"hotspot", 0, 40, 3},
		{"shared", 0.5, 40, 3},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := sim.GenConfig{
				Txns: streams * tc.perStream, DBSize: 64, HotSet: 6, HotProb: 0.9, LocksPerTxn: 5,
				SharedProb: tc.shared, PadOps: tc.pad, Shape: sim.Clustered, Seed: 1,
			}
			w := sim.Generate(cfg)
			store := w.NewStore()
			rec := history.NewRecorder()
			srv := New(Config{
				Store:          store,
				RequestTimeout: 5 * time.Second,
				OnEvent:        rec.OnEvent,
			})
			m := muxClient(srv, client.MuxConfig{MaxAttempts: 64})

			var (
				wg   sync.WaitGroup
				mu   sync.Mutex
				byID = map[txn.ID]*txn.Program{}
			)
			errCh := make(chan error, streams)
			for i := 0; i < streams; i++ {
				progs := w.Programs[i*tc.perStream : (i+1)*tc.perStream]
				wg.Add(1)
				go func() {
					defer wg.Done()
					for _, p := range progs {
						res, err := m.Run(context.Background(), p)
						if err != nil {
							errCh <- fmt.Errorf("%s: %w", p.Name, err)
							return
						}
						mu.Lock()
						byID[txn.ID(res.Txn)] = p
						mu.Unlock()
					}
				}()
			}
			wg.Wait()
			close(errCh)
			for err := range errCh {
				t.Fatal(err)
			}
			m.Close()
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			if err := srv.Shutdown(ctx); err != nil {
				t.Fatalf("shutdown: %v", err)
			}

			st := srv.System().Stats()
			if st.Commits != int64(len(w.Programs)) {
				t.Fatalf("commits = %d, want %d", st.Commits, len(w.Programs))
			}
			if st.Deadlocks != 0 || st.Rollbacks != 0 {
				t.Fatalf("deadlocks=%d rollbacks=%d, want none: the server orders every program's locks",
					st.Deadlocks, st.Rollbacks)
			}
			order, err := rec.SerialOrder()
			if err != nil {
				t.Fatal(err)
			}
			if len(order) != len(byID) {
				t.Fatalf("serial order has %d transactions, %d committed", len(order), len(byID))
			}
			replay := w.NewStore()
			serial := core.New(core.Config{Store: replay})
			for _, id := range order {
				p, ok := byID[id]
				if !ok {
					t.Fatalf("serial order names %v, which no client saw commit", id)
				}
				sid := serial.MustRegister(p.Clone())
				for {
					res, err := serial.Step(sid)
					if err != nil {
						t.Fatal(err)
					}
					if res.Outcome == core.Committed {
						break
					}
				}
			}
			for e, want := range replay.Snapshot() {
				if got := store.MustGet(e); got != want {
					t.Errorf("%s = %d served, %d in the serial replay", e, got, want)
				}
			}
		})
	}
}
