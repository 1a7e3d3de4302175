package main

import (
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// Golden outputs: the expected files under testdata were produced by an
// earlier prsim binary, so any change in what a setting prints — a
// different victim, one more rollback, a reordered event — fails here.
// Regenerate them only for a change that means to alter the output.

// buildPrsim builds the command into a temporary directory.
func buildPrsim(t *testing.T) string {
	t.Helper()
	if testing.Short() {
		t.Skip("builds and runs the prsim binary")
	}
	bin := filepath.Join(t.TempDir(), "prsim")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("build: %v\n%s", err, out)
	}
	return bin
}

// runPrsim runs bin with args in dir and returns its stdout; a non-zero
// exit fails the test.
func runPrsim(t *testing.T, bin, dir string, args ...string) string {
	t.Helper()
	var stdout, stderr bytes.Buffer
	cmd := exec.Command(bin, args...)
	cmd.Dir, cmd.Stdout, cmd.Stderr = dir, &stdout, &stderr
	if err := cmd.Run(); err != nil {
		t.Fatalf("prsim %s: %v\n%s", strings.Join(args, " "), err, stderr.String())
	}
	return stdout.String()
}

// compareGolden fails unless got equals testdata/name, naming the first
// line that differs.
func compareGolden(t *testing.T, name, got string) {
	t.Helper()
	want, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	if got == string(want) {
		return
	}
	g, w := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(g) || i < len(w); i++ {
		var gl, wl string
		if i < len(g) {
			gl = g[i]
		}
		if i < len(w) {
			wl = w[i]
		}
		if gl != wl {
			t.Fatalf("%s: line %d differs\n got: %q\nwant: %q", name, i+1, gl, wl)
		}
	}
}

// livelocked lists the grid settings that run into the simulator's
// 10 M-step bound at seed 7: Figure 2's mutual preemption under the
// policies that do not order their victims, not a defect. Each takes
// seconds to fail, so the grid leaves them out.
var livelocked = map[string]bool{
	"total min-cost detect 0.3 round-robin":   true,
	"total requester detect 0 round-robin":    true,
	"total requester detect 0.3 round-robin":  true,
	"mcs min-cost detect 0 round-robin":       true,
	"mcs min-cost detect 0.3 round-robin":     true,
	"mcs requester detect 0 round-robin":      true,
	"mcs requester detect 0 random":           true,
	"mcs requester detect 0.3 round-robin":    true,
	"sdg min-cost detect 0.3 round-robin":     true,
	"sdg requester detect 0 round-robin":      true,
	"sdg requester detect 0.3 round-robin":    true,
	"hybrid min-cost detect 0.3 round-robin":  true,
	"hybrid requester detect 0 round-robin":   true,
	"hybrid requester detect 0.3 round-robin": true,
}

// TestGrid runs strategy × policy × prevention × shared × scheduler at
// seed 7 and compares every run's stdout with testdata/grid.golden,
// where each run's output follows a "$ prsim ARGS" line.
func TestGrid(t *testing.T) {
	bin := buildPrsim(t)
	var out strings.Builder
	runs := 0
	for _, st := range []string{"total", "mcs", "sdg", "hybrid"} {
		for _, pol := range []string{"min-cost", "ordered-min-cost", "requester", "youngest-victim"} {
			for _, prev := range []string{"detect", "wound-wait", "wait-die"} {
				for _, sh := range []string{"0", "0.3"} {
					for _, sc := range []string{"round-robin", "random"} {
						if livelocked[strings.Join([]string{st, pol, prev, sh, sc}, " ")] {
							continue
						}
						args := []string{"-seed", "7", "-strategy", st, "-policy", pol}
						if prev != "detect" {
							args = append(args, "-prevention", prev)
						}
						args = append(args, "-shared", sh, "-scheduler", sc)
						fmt.Fprintf(&out, "$ prsim %s\n", strings.Join(args, " "))
						out.WriteString(runPrsim(t, bin, ".", args...))
						runs++
					}
				}
			}
		}
	}
	if runs != 178 {
		t.Fatalf("ran %d settings, want 178", runs)
	}
	compareGolden(t, "grid.golden", out.String())
}

// TestEventsCheckTrace pins the three optional outputs: the -events
// lines, the -check verdict and serial order, and the -trace summary
// line together with the trace file itself.
func TestEventsCheckTrace(t *testing.T) {
	bin := buildPrsim(t)
	compareGolden(t, "events.golden",
		runPrsim(t, bin, ".", "-seed", "7", "-strategy", "mcs", "-shared", "0.3", "-events"))
	compareGolden(t, "check.golden",
		runPrsim(t, bin, ".", "-seed", "7", "-strategy", "sdg", "-prevention", "wound-wait",
			"-scheduler", "random", "-check"))
	dir := t.TempDir()
	compareGolden(t, "trace.golden",
		runPrsim(t, bin, dir, "-seed", "7", "-strategy", "hybrid", "-policy", "youngest-victim",
			"-shared", "0.3", "-trace", "trace.jsonl"))
	trace, err := os.ReadFile(filepath.Join(dir, "trace.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	compareGolden(t, "trace.jsonl", string(trace))
}
