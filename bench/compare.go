package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// benchmarkSpec is the part of BENCHMARK.json that compare needs: which
// direction is better for each end-to-end metric, and by what share of
// the base it may worsen before that counts as a regression.
type benchmarkSpec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

func readJSON(path string, v any) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(b, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// spread is a metric's slice spread as a share of its median.
func (m metric) spread() float64 {
	if m.Value == 0 {
		return 0
	}
	return (m.Q3 - m.Q1) / m.Value
}

// compare prints one row per (end-to-end metric, workload) of two
// reports — A is the base, B the candidate — and returns 1 when any row
// is worse. A row whose slice spread, on either side, is wider than the
// metric's bound is unresolved: the run cannot tell a regression of
// that size from noise, whichever way the medians point.
func compare(args []string, stdout, stderr io.Writer) int {
	if len(args) < 2 || len(args) > 3 {
		fmt.Fprintln(stderr, "usage: bench compare A.json B.json [BENCHMARK.json]")
		return 2
	}
	specPath := "../BENCHMARK.json" // as seen from the bench directory
	if len(args) == 3 {
		specPath = args[2]
	}
	var spec benchmarkSpec
	var a, b report
	for _, in := range []struct {
		path string
		v    any
	}{{specPath, &spec}, {args[0], &a}, {args[1], &b}} {
		if err := readJSON(in.path, in.v); err != nil {
			fmt.Fprintln(stderr, "compare:", err)
			return 2
		}
	}
	candidate := map[string]*result{}
	for _, r := range b.Results {
		candidate[r.Workload] = r
	}

	fmt.Fprintf(stdout, "A: %s commit %s seed %d\nB: %s commit %s seed %d\n",
		args[0], a.Commit, a.Seed, args[1], b.Commit, b.Seed)
	fmt.Fprintf(stdout, "%-26s %-8s %14s %14s  %-22s %6s %7s  %s\n",
		"metric", "workload", "A median", "B median", "B/A (base A)", "bound", "spread", "verdict")
	worse := 0
	for _, e := range spec.EndToEnd {
		for _, ra := range a.Results {
			rb := candidate[ra.Workload]
			if rb == nil {
				continue
			}
			ma, okA := ra.EndToEnd[e.Name]
			mb, okB := rb.EndToEnd[e.Name]
			if !okA || !okB {
				continue
			}
			worsening := ratio(mb.Value-ma.Value, ma.Value)
			if e.Better == "higher" {
				worsening = -worsening
			}
			spread := max(ma.spread(), mb.spread())
			verdict := "same"
			switch {
			case spread > e.Bound:
				verdict = "unresolved"
			case worsening > e.Bound:
				verdict = "worse"
				worse++
			}
			fmt.Fprintf(stdout, "%-26s %-8s %14.4f %14.4f  %-22s %6.2f %7.3f  %s\n",
				e.Name, ra.Workload, ma.Value, mb.Value,
				fmt.Sprintf("%.3f of %.4g %s", ratio(mb.Value, ma.Value), ma.Value, ma.Unit),
				e.Bound, spread, verdict)
		}
	}
	if worse > 0 {
		fmt.Fprintf(stderr, "compare: %d row(s) worse\n", worse)
		return 1
	}
	return 0
}
