package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// testServer is cmd/prserver, built once for the tests that run a node.
var testServer string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "prbench-test-")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	testServer = filepath.Join(dir, "prserver")
	if out, err := exec.Command("go", "build", "-o", testServer, "partialrollback/cmd/prserver").CombinedOutput(); err != nil {
		fmt.Fprintf(os.Stderr, "go build cmd/prserver: %v\n%s", err, out)
		os.Exit(1)
	}
	code := m.Run()
	killChildren()
	os.RemoveAll(dir)
	os.Exit(code)
}

// TestBenchmarkJSONAgrees pins BENCHMARK.json to the tables the harness
// reports from: same workloads, same metric names and units, same run
// length.
func TestBenchmarkJSONAgrees(t *testing.T) {
	var spec struct {
		Paths      []string `json:"paths"`
		RunSeconds float64  `json:"run_seconds"`
		Workloads  []struct{ Name string }
		EndToEnd   []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer   []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := readJSON("../BENCHMARK.json", &spec); err != nil {
		t.Fatal(err)
	}
	if spec.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %v, harness default %v", spec.RunSeconds, defaultSeconds)
	}
	if len(spec.Paths) != 1 || spec.Paths[0] != "bench" {
		t.Errorf("paths %v, want [bench]", spec.Paths)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	var want []string
	for _, w := range workloads {
		want = append(want, w.name)
	}
	if fmt.Sprint(names) != fmt.Sprint(want) {
		t.Errorf("workloads %v, harness has %v", names, want)
	}
	same := func(kind string, got []struct{ Name, Unit string }, defs []def) {
		if len(got) != len(defs) {
			t.Errorf("%s: %d metrics in BENCHMARK.json, %d in the harness", kind, len(got), len(defs))
			return
		}
		for i, d := range defs {
			if got[i].Name != d.name || got[i].Unit != d.unit {
				t.Errorf("%s[%d]: BENCHMARK.json has %s (%s), harness has %s (%s)",
					kind, i, got[i].Name, got[i].Unit, d.name, d.unit)
			}
		}
	}
	same("end_to_end", spec.EndToEnd, endToEnd)
	same("per_layer", spec.PerLayer, perLayer)
}

// TestPinnedDigests fails when a generator, the program builder or the
// request encoding changes what the node is sent for the pinned seed.
func TestPinnedDigests(t *testing.T) {
	for _, w := range workloads {
		got, err := digestOf(w.programs(pinnedSeed, w.pool))
		if err != nil {
			t.Fatal(err)
		}
		if g := gateDigest(pinnedSeed, w.digest, got); !g.OK {
			t.Errorf("%s: %s", w.name, g.Detail)
		}
	}
}

func TestGatesRejectWrongValues(t *testing.T) {
	if g := gateDigest(pinnedSeed, "0123456789abcdef", "fedcba9876543210"); g.OK {
		t.Error("digest gate passed a wrong digest")
	}
	if g := gateDigest(pinnedSeed+1, "0123456789abcdef", "fedcba9876543210"); !g.OK {
		t.Error("digest gate judged an unpinned seed")
	}
	if g := gateSum("sum", 99, 100, true); g.OK {
		t.Error("exact sum gate passed a lost commit")
	}
	if g := gateSum("sum", 101, 100, true); g.OK {
		t.Error("exact sum gate passed a duplicated commit")
	}
	if g := gateSum("sum", 99, 100, false); g.OK {
		t.Error("recovery sum gate passed a lost acknowledged commit")
	}
	if g := gateSum("sum", 101, 100, false); !g.OK {
		t.Error("recovery sum gate rejected a surviving unacknowledged commit")
	}
}

// TestQuartilesMatchPython: the values statistics.quantiles(v, n=4)
// gives, since the reader of the results computes spreads with it.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		v         []float64
		q1, m, q3 float64
	}{
		{[]float64{5, 1, 4, 2, 3}, 1.5, 3, 4.5},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{2, 7, 4}, 2, 4, 7},
		{[]float64{3, 9}, 1.5, 6, 10.5},
	} {
		q1, m, q3 := quartiles(c.v)
		if q1 != c.q1 || m != c.m || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", c.v, q1, m, q3, c.q1, c.m, c.q3)
		}
	}
}

func TestHistogramQuantile(t *testing.T) {
	var h hist
	if err := json.Unmarshal([]byte(`{"buckets":[{"le":"10","count":0},{"le":"20","count":50},
		{"le":"40","count":100},{"le":"+Inf","count":100}],"sum":2500,"count":100}`), &h); err != nil {
		t.Fatal(err)
	}
	if got := h.quantile(0.5); got != 20 {
		t.Errorf("p50 = %v, want 20", got)
	}
	if got := h.quantile(0.75); got != 30 {
		t.Errorf("p75 = %v, want 30", got)
	}
	if got := h.maxBound(); got != 40 {
		t.Errorf("maxBound = %v, want 40", got)
	}
	if got := h.mean(); got != 25 {
		t.Errorf("mean = %v, want 25", got)
	}
}

// resultLine is the contract's last line of standard output.
type resultLine struct {
	Correct   bool  `json:"correct"`
	Attempted int64 `json:"attempted"`
	Failed    int64 `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	} `json:"metrics"`
}

// quickRun runs one workload in -quick mode through the same entry
// point as the command line and parses its result line.
func quickRun(t *testing.T, workload, trace string) (int, resultLine, string) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	code := run([]string{"-quick", "-server", testServer, "-workload", workload, "-trace", trace}, &stdout, &stderr)
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var line resultLine
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil {
		t.Fatalf("last line of stdout is not a result: %v\nstdout:\n%s\nstderr:\n%s", err, stdout.String(), stderr.String())
	}
	children.Lock()
	left := len(children.m)
	children.Unlock()
	if left != 0 {
		t.Errorf("%d prserver process(es) left behind", left)
	}
	return code, line, stdout.String() + stderr.String()
}

func TestQuickUniformEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a node")
	}
	code, line, out := quickRun(t, "uniform", "0")
	if code != 0 || !line.Correct || line.Failed != 0 || line.Attempted < 1 {
		t.Fatalf("exit %d, %+v\n%s", code, line, out)
	}
	if len(line.Metrics) != len(endToEnd) {
		t.Errorf("%d metrics reported, want %d", len(line.Metrics), len(endToEnd))
	}
	for _, d := range endToEnd {
		if m, ok := line.Metrics[d.name]; !ok || m.Value <= 0 || m.Unit != d.unit {
			t.Errorf("%s = %+v (present %v), want a positive value in %s", d.name, m, ok, d.unit)
		}
	}
}

// TestQuickDurableTraced covers the traced run, the ladder and the
// crash path: kill -9, restart on the same directory, every
// acknowledged commit still there.
func TestQuickDurableTraced(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a node")
	}
	code, line, out := quickRun(t, "durable", "1")
	if code != 0 || !line.Correct || line.Failed != 0 {
		t.Fatalf("exit %d, %+v\n%s", code, line, out)
	}
	if len(line.Metrics) != len(perLayer) {
		t.Errorf("%d metrics reported, want %d", len(line.Metrics), len(perLayer))
	}
	for _, name := range []string{"durable.recovery_s", "durable.wal_bytes_per_commit", "durable.commit_wait_us",
		"durable.replay_records_per_s", "checkpoint.count", "core.run_ns_per_op", "wire.decode_req_ns",
		"server.stats_rtt_us", "budget.e2e_p50_us"} {
		if line.Metrics[name].Value <= 0 {
			t.Errorf("%s = %v, want > 0", name, line.Metrics[name].Value)
		}
	}
	for _, name := range []string{"durable.lost_acks", "deadlock.per_kcommit", "rollback.rolled_back_ops_per_commit"} {
		if v := line.Metrics[name].Value; v != 0 {
			t.Errorf("%s = %v, want 0", name, v)
		}
	}
	if !strings.Contains(out, "traced.no_lost_acks_after_recovery") {
		t.Errorf("the recovery gate did not run:\n%s", out)
	}
}

// TestWrongPinFailsTheRun feeds a run a wrong pinned digest: it must
// report correct=false and exit non-zero.
func TestWrongPinFailsTheRun(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a node")
	}
	w := findWorkload("uniform")
	pinned := w.digest
	w.digest = "0000000000000000"
	defer func() { w.digest = pinned }()
	code, line, out := quickRun(t, "uniform", "0")
	if code == 0 || line.Correct {
		t.Fatalf("exit %d, correct=%v with a wrong pinned digest\n%s", code, line.Correct, out)
	}
}

func TestCompareVerdicts(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, v any) string {
		path := filepath.Join(dir, name)
		if err := writeJSON(path, v); err != nil {
			t.Fatal(err)
		}
		return path
	}
	spec := write("BENCHMARK.json", map[string]any{"end_to_end": []map[string]any{
		{"name": "tput_txn_s", "better": "higher", "bound": 0.1},
		{"name": "lat_p95_ms", "better": "lower", "bound": 0.1},
	}})
	rep := func(tput, p99, p99q3 float64) *report {
		return &report{Results: []*result{{Workload: "uniform", EndToEnd: map[string]metric{
			"tput_txn_s": {Value: tput, Unit: "txn/s", Q1: tput, Q3: tput, Samples: 5},
			"lat_p95_ms": {Value: p99, Unit: "ms", Q1: p99, Q3: p99q3, Samples: 5},
		}}}}
	}
	base := write("a.json", rep(1000, 10, 10))
	for _, c := range []struct {
		name     string
		b        *report
		code     int
		verdicts []string
	}{
		{"same", rep(950, 10.5, 10.5), 0, []string{"same", "same"}},
		{"better", rep(2000, 5, 5), 0, []string{"same", "same"}},
		{"worse", rep(850, 10, 10), 1, []string{"worse", "same"}},
		{"unresolved", rep(1000, 12, 14), 0, []string{"same", "unresolved"}},
	} {
		var stdout, stderr bytes.Buffer
		code := run([]string{"compare", base, write(c.name+".json", c.b), spec}, &stdout, &stderr)
		if code != c.code {
			t.Errorf("%s: exit %d, want %d\n%s%s", c.name, code, c.code, stdout.String(), stderr.String())
		}
		var got []string
		for _, l := range strings.Split(stdout.String(), "\n") {
			if f := strings.Fields(l); len(f) > 0 && (f[0] == "tput_txn_s" || f[0] == "lat_p95_ms") {
				got = append(got, f[len(f)-1])
			}
		}
		if fmt.Sprint(got) != fmt.Sprint(c.verdicts) {
			t.Errorf("%s: verdicts %v, want %v\n%s", c.name, got, c.verdicts, stdout.String())
		}
	}
}
