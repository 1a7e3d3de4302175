package main

import (
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"time"

	"partialrollback/internal/client"
	"partialrollback/internal/txn"
)

// harness holds what every measurement of one invocation shares.
type harness struct {
	serverBin string
	seed      int64
	seconds   float64
	logf      func(format string, args ...any)
}

// gate is one correctness check; a run with a failed gate is incorrect
// whatever its timings say.
type gate struct {
	Name   string `json:"name"`
	OK     bool   `json:"ok"`
	Detail string `json:"detail"`
}

func gateDigest(seed int64, pinned, got string) gate {
	if seed != pinnedSeed {
		return gate{"workload_digest", true, fmt.Sprintf("%s (recorded; only seed %d is pinned)", got, pinnedSeed)}
	}
	return gate{"workload_digest", got == pinned, fmt.Sprintf("got %s, pinned %s", got, pinned)}
}

// gateSum checks the counters' sum against the acknowledged commits:
// exactly equal on a node that never crashed, at least equal after a
// crash (an unacknowledged commit may have survived; an acknowledged
// one may not be missing).
func gateSum(name string, sum, acked int64, exact bool) gate {
	ok := sum >= acked
	if exact {
		ok = sum == acked
	}
	return gate{name, ok, fmt.Sprintf("sum %d, acknowledged %d", sum, acked)}
}

func gateZero(name string, v int64) gate {
	return gate{name, v == 0, fmt.Sprintf("%d", v)}
}

// sample is one reading of the node at a slice boundary.
type sample struct {
	counters map[string]int64
	cpu      time.Duration
}

func (n *node) sample() (sample, error) {
	cs, err := n.stats()
	if err != nil {
		return sample{}, err
	}
	cpu, err := n.cpu()
	return sample{cs, cpu}, err
}

// phaseOpts selects what one phase does beyond the closed-loop run.
type phaseOpts struct {
	tag     string
	seconds float64
	// setups is how many times the node is spawned and warmed up; all
	// but the last are shut down again, and the timed run uses the last.
	setups int
	// tr non-nil makes this the traced phase: the node runs with -admin,
	// every transaction is recorded as a span, the admin endpoint is
	// scraped around the run, and the idle STATS round trip and a
	// one-stream run are measured afterwards.
	tr          *tracer
	soloSeconds float64
	// verify runs the read-back gates and, on the durable workload, the
	// kill -9 / recovery path.
	verify bool
}

// phase is everything one spawn-warm-run-verify-stop cycle observed.
type phase struct {
	argv    []string
	setups  []float64 // seconds, one per setup
	load    *load
	samples []sample // slices+1 boundary readings; samples[0] precedes the run
	// after is read once every stream has finished, so deltas against
	// samples[0] cover exactly the transactions the load counted.
	after              sample
	selfCPU            time.Duration // load generator's CPU over the run
	adminBefore, admin adminSnap
	rssPeakMB          float64
	statsRTT           []time.Duration
	solo               *load
	gates              []gate

	// durable workload
	diskBytes int64
	recovery  time.Duration
	lostAcks  int64
	crashDir  string // copy of the WAL directory as kill -9 left it
	// paged workload
	heapFileMB float64
}

func (p *phase) delta(name string) int64 {
	return p.after.counters[name] - p.samples[0].counters[name]
}

// runPhase spawns the node for w under root, warms it up, drives the
// timed closed loop while sampling the node at slice boundaries, runs
// the gates and stops the node. No node outlives the call.
func (h *harness) runPhase(w *workload, root string, progs, warm, solo [][]*txn.Program, o phaseOpts) (ph *phase, err error) {
	ph = &phase{}
	var n *node
	var muxes []*client.Mux
	defer func() {
		closeMuxes(muxes)
		if n != nil {
			n.kill()
		}
	}()

	var warmed *load
	var dir string
	for s := 0; s < o.setups; s++ {
		dir = filepath.Join(root, fmt.Sprintf("%s-%d", o.tag, s))
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, err
		}
		var ready time.Duration
		if n, ready, err = startNode(h.serverBin, w.serverArgs(dir), o.tr != nil); err != nil {
			return nil, err
		}
		muxes = newMuxes(n.addr, sockets)
		t0 := time.Now()
		warmed = drive(muxes, warm, w.warm, 0, nil, -1)
		ph.setups = append(ph.setups, (ready + time.Since(t0)).Seconds())
		if warmed.failed > 0 {
			return nil, fmt.Errorf("%s: warm-up transaction failed: %w", w.name, warmed.lastErr)
		}
		if s < o.setups-1 {
			closeMuxes(muxes)
			muxes = nil
			_, err := n.stop()
			n = nil
			if err != nil {
				return nil, fmt.Errorf("%s: setup %d: %w", w.name, s, err)
			}
		}
	}
	ph.argv = n.argv

	// Timed run. The sampler reads the node at every slice boundary over
	// its own socket; STATS is answered inline by the connection's
	// reader and does not queue behind transactions.
	if o.tr != nil {
		if ph.adminBefore, err = scrapeAdmin(n.admin); err != nil {
			return nil, err
		}
	}
	first, err := n.sample()
	if err != nil {
		return nil, err
	}
	ph.samples = []sample{first}
	self0 := selfCPU()
	sliceLen := time.Duration(o.seconds / slices * float64(time.Second))
	sampled := make(chan error, 1)
	start := time.Now()
	go func() {
		for k := 1; k <= slices; k++ {
			time.Sleep(time.Until(start.Add(time.Duration(k) * sliceLen)))
			s, err := n.sample()
			if err != nil {
				sampled <- err
				return
			}
			ph.samples = append(ph.samples, s)
		}
		sampled <- nil
	}()
	parent := -1
	if o.tr != nil {
		parent = o.tr.open("run." + w.name)
	}
	ph.load = drive(muxes, progs, 0, o.seconds, o.tr, parent)
	if o.tr != nil {
		o.tr.close(parent)
	}
	if err := <-sampled; err != nil {
		return nil, err
	}
	ph.selfCPU = selfCPU() - self0
	if ph.after, err = n.sample(); err != nil {
		return nil, err
	}
	if o.tr != nil {
		if ph.admin, err = scrapeAdmin(n.admin); err != nil {
			return nil, err
		}
	}
	if ph.rssPeakMB, err = n.rssPeakMB(); err != nil {
		return nil, err
	}
	acked := warmed.committed + ph.load.committed
	failed := ph.load.failed

	if o.tr != nil {
		// The node is idle now: a STATS round trip costs the socket and
		// the dispatch, with no engine work. A thousand back to back, so
		// that the median is taken with both processes awake again.
		for i := 0; i < 1000; i++ {
			t0 := time.Now()
			if _, err := n.ctl.Stats(); err != nil {
				return nil, err
			}
			ph.statsRTT = append(ph.statsRTT, time.Since(t0))
		}
		// One stream on one socket: no queueing and no contention, the
		// latency the ladder's rungs should add up to.
		one := newMuxes(n.addr, 1)
		parent := o.tr.open("solo." + w.name)
		ph.solo = drive(one, solo[:1], 0, o.soloSeconds, o.tr, parent)
		o.tr.close(parent)
		closeMuxes(one)
		acked += ph.solo.committed
		failed += ph.solo.failed
	}

	ph.gates = append(ph.gates, gateZero("failed_transactions", failed))
	closeMuxes(muxes)
	muxes = nil
	if o.verify {
		if n, err = h.verify(w, ph, n, dir, root, acked, o.tr != nil); err != nil {
			return nil, err
		}
	}
	log, err := n.stop()
	n = nil
	g := gate{"clean_shutdown", err == nil, "store consistent; bye"}
	if err != nil {
		g.Detail = fmt.Sprintf("%v; node log:\n%s", err, log)
	}
	ph.gates = append(ph.gates, g)
	return ph, nil
}

// verify reads the node's state back against what the load generator
// was told: counters, the counters' sum and, on the durable workload,
// the sum again after kill -9 and a restart on the same directory. It
// returns the node that is running afterwards.
func (h *harness) verify(w *workload, ph *phase, n *node, dir, root string, acked int64, keepCrash bool) (*node, error) {
	end, err := n.stats()
	if err != nil {
		return n, err
	}
	ph.gates = append(ph.gates, gateZero("proto_errors", end["proto_errors"]))
	if w.counter {
		// Single-lock transactions cannot deadlock.
		ph.gates = append(ph.gates, gateZero("deadlocks", end["deadlocks"]))
		sum, err := sumCounters(n.ctl, w.entities)
		if err != nil {
			return n, err
		}
		ph.gates = append(ph.gates, gateSum("sum_equals_acked", sum, acked, true))
	}
	if w.paged {
		fi, err := os.Stat(w.heapPath(dir))
		if err != nil {
			return n, err
		}
		ph.heapFileMB = float64(fi.Size()) / (1 << 20)
	}
	if !w.wal {
		return n, nil
	}

	// Crash: kill -9 leaves whatever reached the OS; restart on the same
	// directory and read the counters back.
	if ph.diskBytes, err = dirSize(w.walDir(dir)); err != nil {
		return n, err
	}
	n.kill()
	if keepCrash {
		ph.crashDir = filepath.Join(root, "crash")
		if err := copyDir(w.walDir(dir), ph.crashDir); err != nil {
			return n, err
		}
	}
	if n, ph.recovery, err = startNode(h.serverBin, w.serverArgs(dir), false); err != nil {
		return nil, fmt.Errorf("restart after kill -9: %w", err)
	}
	sum, err := sumCounters(n.ctl, w.entities)
	if err != nil {
		return n, err
	}
	ph.lostAcks = max(0, acked-sum)
	ph.gates = append(ph.gates, gateSum("no_lost_acks_after_recovery", sum, acked, false))
	return n, nil
}

func dirSize(dir string) (int64, error) {
	var total int64
	err := filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil {
			// The checkpointer deletes sealed segments while we walk.
			if errors.Is(err, fs.ErrNotExist) {
				return nil
			}
			return err
		}
		if info, err := d.Info(); err == nil && info.Mode().IsRegular() {
			total += info.Size()
		}
		return nil
	})
	return total, err
}

// copyDir copies the regular files of the flat directory src into dst.
func copyDir(src, dst string) error {
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	ents, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, e := range ents {
		if !e.Type().IsRegular() {
			continue
		}
		if err := copyFile(filepath.Join(src, e.Name()), filepath.Join(dst, e.Name())); err != nil {
			return err
		}
	}
	return nil
}

func copyFile(src, dst string) error {
	in, err := os.Open(src)
	if err != nil {
		return err
	}
	defer in.Close()
	out, err := os.Create(dst)
	if err != nil {
		return err
	}
	if _, err := io.Copy(out, in); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}
