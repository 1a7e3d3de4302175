package main

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"time"

	"partialrollback/internal/client"
	"partialrollback/internal/exec"
	"partialrollback/internal/txn"
)

// txnRec is one committed transaction as the caller saw it: when the
// commit reply arrived (since the run started) and how long the caller
// waited for it, retries included.
type txnRec struct {
	end, lat time.Duration
}

// load is what a closed-loop run observed on the client side.
type load struct {
	recs      [][]txnRec // per stream, in completion order
	committed int64
	failed    int64
	attempts  int64 // submissions, first tries and retries
	ops       int64 // program operations of committed transactions
	elapsed   time.Duration
	lastErr   error
}

// newMuxes opens the shared sockets of one run (connections are made on
// first use).
func newMuxes(addr string, n int) []*client.Mux {
	ms := make([]*client.Mux, n)
	for i := range ms {
		ms[i] = client.NewMux(client.MuxConfig{
			Addr:        addr,
			MaxAttempts: 16,
			Backoff:     exec.Backoff{Base: 2 * time.Millisecond, Cap: 250 * time.Millisecond},
		})
	}
	return ms
}

func closeMuxes(ms []*client.Mux) {
	for _, m := range ms {
		m.Close()
	}
}

// drive runs one closed loop: stream i sends progs[i] back to back over
// muxes[i%len(muxes)], each waiting for its commit reply before the
// next, cycling through its pool. A stream stops after count
// transactions (count > 0) or once `seconds` have passed (count == 0).
// With tr non-nil every transaction is recorded as a client.txn span
// under parent.
func drive(muxes []*client.Mux, progs [][]*txn.Program, count int, seconds float64, tr *tracer, parent int) *load {
	type streamOut struct {
		recs                             []txnRec
		committed, failed, attempts, ops int64
		spans                            []span
		lastErr                          error
	}
	outs := make([]streamOut, len(progs))
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(time.Duration(seconds * float64(time.Second)))
	for i := range progs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			o := &outs[i]
			run := muxes[i%len(muxes)].Run
			for k := 0; ; k++ {
				if count > 0 && k == count {
					return
				}
				t0 := time.Now()
				if count == 0 && !t0.Before(deadline) {
					return
				}
				p := progs[i][k%len(progs[i])]
				res, err := run(context.Background(), p)
				t1 := time.Now()
				if err != nil {
					// No operation of these workloads should fail; when one
					// does (a dead node, say) the stream stops instead of
					// burning its retry budget on every remaining program.
					o.failed++
					o.lastErr = err
					return
				}
				o.committed++
				o.attempts += int64(res.Attempts)
				o.ops += int64(len(p.Ops))
				o.recs = append(o.recs, txnRec{end: t1.Sub(start), lat: t1.Sub(t0)})
				if tr != nil {
					o.spans = append(o.spans, span{Name: "client.txn", Start: tr.at(t0), End: tr.at(t1), Txn: res.Txn})
				}
			}
		}(i)
	}
	wg.Wait()
	l := &load{elapsed: time.Since(start)}
	for i := range outs {
		o := &outs[i]
		l.recs = append(l.recs, o.recs)
		l.committed += o.committed
		l.failed += o.failed
		l.attempts += o.attempts
		l.ops += o.ops
		if o.lastErr != nil {
			l.lastErr = o.lastErr
		}
		if tr != nil {
			tr.addAll(parent, o.spans)
		}
	}
	return l
}

// latencies returns the sorted caller-side latencies of transactions
// whose reply arrived in [from, to).
func (l *load) latencies(from, to time.Duration) []time.Duration {
	var out []time.Duration
	for _, rs := range l.recs {
		for _, r := range rs {
			if r.end >= from && r.end < to {
				out = append(out, r.lat)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// percentile reads quantile q off sorted durations (nearest rank).
func percentile(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[int(q*float64(len(sorted)-1))]
}

// sumCounters reads e0..e{n-1} back through shared-lock transactions of
// at most 512 entities and returns their sum. It runs after load has
// stopped, so the values are stable and the chunked sum is exact.
func sumCounters(m *client.Mux, n int) (int64, error) {
	const chunk = 512
	var sum int64
	for lo := 0; lo < n; lo += chunk {
		hi := min(lo+chunk, n)
		b := txn.NewProgram(fmt.Sprintf("sum-%d", lo))
		for i := lo; i < hi; i++ {
			b.Local(fmt.Sprintf("c%d", i), 0)
		}
		for i := lo; i < hi; i++ {
			ent := fmt.Sprintf("e%d", i)
			b.LockS(ent).Read(ent, fmt.Sprintf("c%d", i))
		}
		p, err := b.Build()
		if err != nil {
			return 0, err
		}
		res, err := m.Run(context.Background(), p)
		if err != nil {
			return 0, fmt.Errorf("read-back of e%d..e%d: %w", lo, hi-1, err)
		}
		for _, v := range res.Locals {
			sum += v
		}
	}
	return sum, nil
}
