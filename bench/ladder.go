package main

import (
	"fmt"
	"path/filepath"
	"sort"
	"time"

	"partialrollback/internal/core"
	"partialrollback/internal/durable"
	"partialrollback/internal/entity"
	"partialrollback/internal/intern"
	"partialrollback/internal/lock"
	"partialrollback/internal/page"
	"partialrollback/internal/txn"
	"partialrollback/internal/waitfor"
	"partialrollback/internal/wire"
)

// The ladder measures each layer alone: a span around a direct call
// into the layer's public function, on the workload's own programs,
// single-threaded. A rung's number is the median of its spans, so it
// can be set against the one-stream end-to-end median (the budget row).
const (
	ladderPrograms = 2000
	// ladderDurable is shorter because every durable commit waits out
	// the 2 ms group window.
	ladderDurable = 300
	// ladderBurst mirrors prserver's shipped -burst default.
	ladderBurst = 1
)

type ladder struct {
	tr    *tracer
	spans []span
	durs  map[string][]float64 // ns per unit, clock cost removed
	clock time.Duration        // cost of an empty span
	err   error                // first failure inside a timed call
}

// span times f, charges the duration to rung name divided over units,
// and records it as a trace span of transaction txn.
func (l *ladder) span(name string, txn, units int, f func()) {
	t0 := time.Now()
	f()
	t1 := time.Now()
	l.durs[name] = append(l.durs[name], float64(max(0, t1.Sub(t0)-l.clock))/float64(units))
	l.spans = append(l.spans, span{Name: name, Start: l.tr.at(t0), End: l.tr.at(t1), Txn: int64(txn)})
}

func (l *ladder) check(err error) {
	if err != nil && l.err == nil {
		l.err = err
	}
}

// p50 is the rung's median in nanoseconds per unit; 0 for a rung that
// did not run on this workload.
func (l *ladder) p50(name string) float64 { return median(l.durs[name]) }

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// runLadder measures every rung that applies to w. progs is stream 0's
// pool; dir is scratch space; crashDir is the killed durable node's WAL
// directory (empty otherwise).
func runLadder(tr *tracer, w *workload, progs []*txn.Program, dir, crashDir string) (*ladder, error) {
	l := &ladder{tr: tr, durs: map[string][]float64{}}
	root := tr.open("ladder." + w.name)
	defer func() {
		tr.close(root)
		tr.addAll(root, l.spans)
	}()
	prog := func(i int) *txn.Program { return progs[i%len(progs)] }

	// An empty span costs two clock reads and a call; the rungs below are
	// as short as a hundred nanoseconds, so that cost is measured first
	// and taken off every span.
	for i := 0; i < ladderPrograms; i++ {
		l.span("clock", i, 1, func() {})
	}
	l.clock = time.Duration(l.p50("clock"))
	delete(l.durs, "clock")
	l.spans = l.spans[:0]

	// wire: request and reply, both directions.
	frames := make([][]byte, ladderPrograms)
	replies := make([][]byte, ladderPrograms)
	var buf []byte
	for i := range frames {
		p := prog(i)
		l.span("wire.encode_req", i, 1, func() {
			bp, err := wire.ProgramFrame(p)
			l.check(err)
			buf, err = wire.AppendTagged(buf[:0], 7, bp)
			l.check(err)
		})
		frames[i] = append([]byte(nil), buf...)
	}
	for i, fr := range frames {
		var bp wire.BeginProgram
		l.span("wire.decode_req", i, 1, func() {
			f, err := wire.DecodeFrame(fr[4:]) // past the length prefix
			l.check(err)
			var ok bool
			if bp, ok = f.Msg.(wire.BeginProgram); !ok {
				l.check(fmt.Errorf("decoded %T, want BeginProgram", f.Msg))
				return
			}
			_, err = bp.Program()
			l.check(err)
		})
		reply := wire.Committed{Txn: int64(i), Locals: bp.Locals, Stats: wire.TxnOutcome{OpsExecuted: int64(len(bp.Ops))}}
		l.span("wire.encode_reply", i, 1, func() {
			var err error
			buf, err = wire.AppendTagged(buf[:0], 7, reply)
			l.check(err)
		})
		replies[i] = append([]byte(nil), buf...)
	}
	for i, fr := range replies {
		l.span("wire.decode_reply", i, 1, func() {
			_, err := wire.DecodeFrame(fr[4:])
			l.check(err)
		})
	}

	// core: registration, then the program run to its commit on an
	// otherwise empty engine — the uncontended grant path.
	runTxn := func(sys *core.System, id txn.ID) (ack core.CommitAck) {
		for {
			res, _, err := sys.StepBurst(id, ladderBurst)
			l.check(err)
			if err != nil || res.Outcome == core.Committed {
				return res.Durable
			}
		}
	}
	sys := core.New(core.Config{Store: entity.NewUniformStore("e", w.entities, 0), Strategy: core.MCS})
	for i := 0; i < ladderPrograms; i++ {
		p := prog(i)
		var id txn.ID
		l.span("core.register", i, 1, func() {
			var err error
			id, err = sys.Register(p)
			l.check(err)
		})
		if l.err != nil {
			return nil, l.err
		}
		l.span("core.run", i, 1, func() { runTxn(sys, id) })
		l.durs["core.run_per_op"] = append(l.durs["core.run_per_op"],
			l.durs["core.run"][i]/float64(len(p.Ops)))
		l.check(sys.Forget(id))
	}

	// lock: the table alone, over the programs' lock sequences.
	names := intern.NewTable()
	tab := lock.NewTableInterned(names)
	type req struct {
		ent  intern.ID
		mode lock.Mode
	}
	var grants []lock.GrantID
	for i := 0; i < ladderPrograms; i++ {
		var reqs []req
		for _, op := range prog(i).Ops {
			switch op.Kind {
			case txn.OpLockS:
				reqs = append(reqs, req{names.Intern(op.Entity), lock.Shared})
			case txn.OpLockX:
				reqs = append(reqs, req{names.Intern(op.Entity), lock.Exclusive})
			}
		}
		id := txn.ID(i + 1)
		l.span("lock.acquire_release", i, len(reqs), func() {
			for _, r := range reqs {
				granted, _, err := tab.AcquireID(id, r.ent, r.mode, nil)
				l.check(err)
				if !granted {
					l.check(fmt.Errorf("lock rung: %v not granted on an empty table", r.ent))
				}
			}
			for _, r := range reqs {
				var err error
				grants, err = tab.ReleaseID(id, r.ent, grants[:0])
				l.check(err)
			}
		})
	}

	// waitfor: the check made on every wait — add the waiter's arc, look
	// for cycles through it — at the end of a 16-transaction chain.
	g := waitfor.NewInterned(names)
	ent := names.Intern("e0")
	const chain = 16
	for i := 1; i < chain; i++ {
		g.AddWaitID(txn.ID(i), txn.ID(i+1), ent)
	}
	for i := 0; i < ladderPrograms; i++ {
		l.span("waitfor.cycles", i, 1, func() {
			g.AddWaitID(txn.ID(chain+1), 1, ent)
			if c := g.CyclesThrough(txn.ID(chain+1), 64); len(c) != 0 {
				l.check(fmt.Errorf("waitfor rung: unexpected cycle %v", c))
			}
		})
		g.RemoveWaitID(txn.ID(chain+1), 1, ent)
	}

	if w.wal {
		if err := l.durableRungs(w, prog, dir, crashDir, runTxn); err != nil {
			return nil, err
		}
	}
	if w.paged {
		if err := l.pageRungs(w, dir); err != nil {
			return nil, err
		}
	}
	return l, l.err
}

// durableRungs measures what the WAL adds to a commit (the same
// single-threaded engine run with and without a commit log: the
// difference is the group-commit wait) and how fast the killed node's
// log replays.
func (l *ladder) durableRungs(w *workload, prog func(int) *txn.Program, dir, crashDir string,
	runTxn func(*core.System, txn.ID) core.CommitAck) error {
	for _, logged := range []bool{false, true} {
		cfg := core.Config{Store: entity.NewUniformStore("e", w.entities, 0), Strategy: core.MCS}
		name := "durable.txn_unlogged"
		var set *durable.Set
		if logged {
			var err error
			// Zero Options are prserver's shipped defaults: group commit,
			// 2 ms window, 64-commit batches.
			if set, _, err = durable.Open(filepath.Join(dir, "ladder-wal"), 1, cfg.Store, durable.Options{}); err != nil {
				return err
			}
			cfg.CommitLog = set
			name = "durable.txn_logged"
		}
		sys := core.New(cfg)
		for i := 0; i < ladderDurable; i++ {
			p := prog(i)
			l.span(name, i, 1, func() {
				id, err := sys.Register(p)
				l.check(err)
				if err != nil {
					return
				}
				if ack := runTxn(sys, id); ack != nil {
					l.check(ack.Wait())
				}
				l.check(sys.Forget(id))
			})
		}
		if set != nil {
			if err := set.Close(); err != nil {
				return err
			}
		}
	}
	if crashDir == "" {
		return nil
	}
	store := entity.NewUniformStore("e", w.entities, 0)
	var info *durable.RecoveryInfo
	var set *durable.Set
	l.span("durable.recover", 0, 1, func() {
		var err error
		set, info, err = durable.Open(crashDir, 1, store, durable.Options{})
		l.check(err)
	})
	if l.err != nil {
		return l.err
	}
	l.durs["durable.replay_records"] = []float64{float64(info.Records)}
	return set.Close()
}

// pageRungs measures the buffer pool alone: reads of a resident page,
// and reads that cycle through more pages than the pool has frames, so
// that every one faults (with flush-before-evict, as the pages are
// dirty from their definition).
func (l *ladder) pageRungs(w *workload, dir string) error {
	pool, err := page.Open(filepath.Join(dir, "ladder-heap.dat"), page.Options{PageSize: pageSize, PoolPages: poolPages})
	if err != nil {
		return err
	}
	defer pool.Close()
	for id := 0; id < w.entities; id++ {
		if _, err := pool.Define(uint32(id), 0); err != nil {
			return err
		}
	}
	last := uint32(w.entities - 1) // its page is resident: it was defined last
	for i := 0; i < ladderPrograms; i++ {
		l.span("page.read_hit", i, 1, func() {
			_, _, err := pool.Read(last - uint32(i%64))
			l.check(err)
		})
	}
	per := pool.SlotsPerPage()
	pages := (w.entities + per - 1) / per
	before := pool.Stats().Misses
	for i := 0; i < ladderPrograms; i++ {
		l.span("page.read_miss", i, 1, func() {
			_, _, err := pool.Read(uint32(i % pages * per))
			l.check(err)
		})
	}
	if got := pool.Stats().Misses - before; got != ladderPrograms {
		return fmt.Errorf("page rung: %d of %d cyclic reads missed", got, ladderPrograms)
	}
	return l.err
}
