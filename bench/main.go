// Command bench is the repository's one benchmark: it builds
// cmd/prserver, runs it as a subprocess per workload, drives it in a
// closed loop through internal/client.Mux (wire v3, 16 streams over 2
// sockets), prints every metric by name with its unit and sample count,
// and fails when a correctness gate is broken. See README.md.
//
// Full report (all workloads, end-to-end then traced):
//
//	cd bench && go run . -seed 1 -out /tmp/bench.json
//
// One measurement, as BENCHMARK.json's command runs it (through
// run.sh, from the repository root):
//
//	bash bench/run.sh --workload hotspot --seed 3 --seconds 20 --trace 0
//
// Two reports side by side, judged by BENCHMARK.json's bounds:
//
//	cd bench && go run . compare A.json B.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
)

// defaultSeconds is BENCHMARK.json's run_seconds.
const defaultSeconds = 20

// result is one workload's measurement, the unit of the report file.
type result struct {
	Workload  string            `json:"workload"`
	Digest    string            `json:"digest"`
	Argv      []string          `json:"server_argv"`
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Gates     []gate            `json:"gates"`
	EndToEnd  map[string]metric `json:"end_to_end,omitempty"`
	PerLayer  map[string]metric `json:"per_layer,omitempty"`
}

// report is the file -out writes: where, how and what was measured.
type report struct {
	Commit      string  `json:"commit"`
	GoVersion   string  `json:"go_version"`
	MachineCPUs int     `json:"machine_cpus"`
	GOMAXPROCS  int     `json:"gomaxprocs"`
	Seed        int64   `json:"seed"`
	Seconds     float64 `json:"seconds"`
	Quick       bool    `json:"quick"`
	// Unmeasured names what this machine cannot test.
	Unmeasured []string  `json:"unmeasured"`
	Results    []*result `json:"results"`
}

func main() {
	code := run(os.Args[1:], os.Stdout, os.Stderr)
	killChildren()
	os.Exit(code)
}

func run(args []string, stdout, stderr io.Writer) int {
	if len(args) > 0 && args[0] == "compare" {
		return compare(args[1:], stdout, stderr)
	}
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "all", "workload to run: uniform|hotspot|durable|paged|all")
	seed := fs.Int64("seed", 1, "workload seed (stream i uses seed+i)")
	seconds := fs.Float64("seconds", defaultSeconds, "length of one timed run")
	trace := fs.String("trace", "both", "0 = end-to-end metrics (tracing off), 1 = per-layer metrics (traced run and ladder), both")
	quick := fs.Bool("quick", false, "2 s runs and a single set-up: gates on, numbers not comparable")
	out := fs.String("out", "", "write the report to this file, and the traced run's spans to <out>.trace.json")
	server := fs.String("server", "", "prserver binary (built from source into a temp dir when empty)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	logf := func(format string, a ...any) { fmt.Fprintf(stderr, "bench: "+format+"\n", a...) }

	var todo []*workload
	if *name == "all" {
		todo = workloads
	} else if w := findWorkload(*name); w != nil {
		todo = []*workload{w}
	} else {
		logf("unknown workload %q", *name)
		return 2
	}
	if *trace != "0" && *trace != "1" && *trace != "both" {
		logf("-trace must be 0, 1 or both")
		return 2
	}
	if *quick {
		*seconds = 2
	}

	// The load generator gets at most two cores: on this 2-core class of
	// machine it shares them with the node, and loadgen.cpu_share says
	// when the generator, not the node, is the limit.
	runtime.GOMAXPROCS(min(runtime.NumCPU(), 2))

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		killChildren()
		os.Exit(130)
	}()

	tmp, err := os.MkdirTemp("", "prbench-")
	if err != nil {
		logf("%v", err)
		return 1
	}
	defer os.RemoveAll(tmp)

	h := &harness{serverBin: *server, seed: *seed, seconds: *seconds, logf: logf}
	if h.serverBin == "" {
		h.serverBin = filepath.Join(tmp, "prserver")
		logf("building cmd/prserver")
		build := exec.Command("go", "build", "-o", h.serverBin, "partialrollback/cmd/prserver")
		if b, err := build.CombinedOutput(); err != nil {
			logf("go build cmd/prserver (run from the bench directory): %v\n%s", err, b)
			return 1
		}
	}

	rep := &report{
		Commit:      commit(),
		GoVersion:   runtime.Version(),
		MachineCPUs: runtime.NumCPU(),
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
		Seed:        *seed,
		Seconds:     *seconds,
		Quick:       *quick,
	}
	if runtime.NumCPU() < 8 {
		rep.Unmeasured = []string{"shard scaling (E16) and stripe scaling (E22) need >= 8 cores; server tuning flags stay at their defaults here"}
	}
	var tr *tracer
	if *trace != "0" {
		tr = newTracer()
	}
	setups := 5
	if *quick {
		setups = 1
	}
	ok := true
	for _, w := range todo {
		res, err := h.measure(w, filepath.Join(tmp, w.name), *trace != "1", setups, tr)
		if err != nil {
			logf("%s: %v", w.name, err)
			return 1
		}
		rep.Results = append(rep.Results, res)
		printResult(stdout, res)
		ok = ok && res.Correct
	}

	if *out != "" {
		if err := writeJSON(*out, rep); err != nil {
			logf("%v", err)
			return 1
		}
		if tr != nil {
			if err := tr.writeFile(*out + ".trace.json"); err != nil {
				logf("%v", err)
				return 1
			}
		}
	}
	if len(todo) == 1 && *trace != "both" {
		// The contract's result line: last on standard output.
		res := rep.Results[0]
		ms := res.EndToEnd
		if *trace == "1" {
			ms = res.PerLayer
		}
		type mv struct {
			Value float64 `json:"value"`
			Unit  string  `json:"unit"`
		}
		line := struct {
			Correct   bool          `json:"correct"`
			Attempted int64         `json:"attempted"`
			Failed    int64         `json:"failed"`
			Metrics   map[string]mv `json:"metrics"`
		}{res.Correct, res.Attempted, res.Failed, map[string]mv{}}
		for k, m := range ms {
			line.Metrics[k] = mv{m.Value, m.Unit}
		}
		b, err := json.Marshal(line)
		if err != nil {
			logf("%v", err)
			return 1
		}
		fmt.Fprintf(stdout, "%s\n", b)
	}
	if !ok {
		logf("a correctness gate failed")
		return 1
	}
	return 0
}

// measure runs one workload: the untraced end-to-end measurement when
// e2e is set, and the traced per-layer measurement when tr is non-nil.
func (h *harness) measure(w *workload, root string, e2e bool, setups int, tr *tracer) (*result, error) {
	if err := os.MkdirAll(root, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(root)
	h.logf("%s: generating programs (seed %d)", w.name, h.seed)
	progs := w.programs(h.seed, w.pool)
	warm := w.programs(h.seed+warmSeedOffset, w.warm)
	digest, err := digestOf(progs)
	if err != nil {
		return nil, err
	}
	res := &result{Workload: w.name, Digest: digest, Correct: true}
	res.Gates = append(res.Gates, gateDigest(h.seed, w.digest, digest))
	add := func(tag string, ph *phase) {
		res.Argv = ph.argv
		res.Attempted += ph.load.committed + ph.load.failed
		res.Failed += ph.load.failed
		for _, g := range ph.gates {
			g.Name = tag + "." + g.Name
			res.Gates = append(res.Gates, g)
		}
	}

	if e2e {
		h.logf("%s: end-to-end run, %d set-ups then %.0f s", w.name, setups, h.seconds)
		ph, err := h.runPhase(w, root, progs, warm, nil, phaseOpts{
			tag: "e2e", seconds: h.seconds, setups: setups, verify: true})
		if err != nil {
			return nil, err
		}
		add("e2e", ph)
		res.EndToEnd = endToEndMetrics(ph, h.seconds)
	}
	if tr != nil {
		// The traced measurement splits its time between an untraced
		// reference (for the tracing overhead), the traced run, and the
		// one-stream budget run; the ladder comes last. Which of the two
		// runs goes first alternates with the seed, so that order does not
		// bias the overhead.
		h.logf("%s: traced run and ladder", w.name)
		solo := w.programs(h.seed+soloSeedOffset, w.pool/4)
		refOpts := phaseOpts{tag: "ref", seconds: 0.4 * h.seconds, setups: 1}
		trOpts := phaseOpts{tag: "traced", seconds: 0.4 * h.seconds, setups: 1, tr: tr,
			soloSeconds: 0.1 * h.seconds, verify: true}
		order := []phaseOpts{refOpts, trOpts}
		if h.seed%2 == 0 {
			order[0], order[1] = order[1], order[0]
		}
		phases := map[string]*phase{}
		for _, o := range order {
			if phases[o.tag], err = h.runPhase(w, root, progs, warm, solo, o); err != nil {
				return nil, err
			}
		}
		ref, ph := phases["ref"], phases["traced"]
		add("ref", ref)
		add("traced", ph)
		l, err := runLadder(tr, w, progs[0], root, ph.crashDir)
		if err != nil {
			return nil, fmt.Errorf("ladder: %w", err)
		}
		res.PerLayer = perLayerMetrics(ph, ref, l)
	}
	for _, g := range res.Gates {
		res.Correct = res.Correct && g.OK
	}
	return res, nil
}

// commit names the measured source: the git commit when the benchmark
// runs inside a work tree, "unknown" otherwise (the driver's checkout
// is not a repository).
func commit() string {
	b, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(b))
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func printResult(w io.Writer, res *result) {
	fmt.Fprintf(w, "== %s  digest=%s  attempted=%d failed=%d correct=%v\n",
		res.Workload, res.Digest, res.Attempted, res.Failed, res.Correct)
	fmt.Fprintf(w, "   %s\n", strings.Join(res.Argv, " "))
	for _, g := range res.Gates {
		verdict := "ok"
		if !g.OK {
			verdict = "FAILED"
		}
		fmt.Fprintf(w, "   gate %-36s %-6s %s\n", g.Name, verdict, g.Detail)
	}
	table := func(defs []def, ms map[string]metric) {
		for _, d := range defs {
			if m, ok := ms[d.name]; ok {
				fmt.Fprintf(w, "   %-36s %14.4f %-10s [q1 %.4f, q3 %.4f, n=%d]\n",
					d.name, m.Value, m.Unit, m.Q1, m.Q3, m.Samples)
			}
		}
	}
	table(endToEnd, res.EndToEnd)
	table(perLayer, res.PerLayer)
}
