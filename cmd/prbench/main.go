// Command prbench runs the full reproduction suite E1-E15 (DESIGN.md
// §4) and prints every table recorded in EXPERIMENTS.md.
//
// Usage:
//
//	prbench [-exp E9] [-seed 42] [-rounds 10] [-json dir]
//
// With -json, each experiment's table is additionally written to
// <dir>/BENCH_<ID>.json (machine-readable: the table plus the run
// parameters), for diffing runs or feeding plots.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"strings"

	"partialrollback/internal/experiments"
	"partialrollback/internal/render"
)

var (
	expFlag    = flag.String("exp", "", "comma-separated experiment IDs to run (e.g. E1,E9); empty = all")
	seedFlag   = flag.Int64("seed", 42, "base seed for randomized sweeps")
	roundsFlag = flag.Int("rounds", 10, "rounds for the Figure 2 preemption scenario")
	jsonDir    = flag.String("json", "", "directory to write BENCH_<ID>.json files to (empty = off)")
)

// benchJSON is the machine-readable form of one experiment run.
type benchJSON struct {
	ID     string     `json:"id"`
	Title  string     `json:"title"`
	Seed   int64      `json:"seed"`
	Rounds int        `json:"rounds"`
	Header []string   `json:"header"`
	Rows   [][]string `json:"rows"`
	Notes  []string   `json:"notes,omitempty"`
}

func writeJSON(t *experiments.Table) error {
	out := benchJSON{
		ID:     t.ID,
		Title:  t.Title,
		Seed:   *seedFlag,
		Rounds: *roundsFlag,
		Header: t.Header,
		Rows:   t.Rows,
		Notes:  t.Notes,
	}
	buf, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return err
	}
	path := filepath.Join(*jsonDir, "BENCH_"+t.ID+".json")
	return os.WriteFile(path, append(buf, '\n'), 0o644)
}

func main() {
	log.SetFlags(0)
	flag.Parse()
	want := map[string]bool{}
	for _, id := range strings.Split(*expFlag, ",") {
		if id = strings.TrimSpace(strings.ToUpper(id)); id != "" {
			want[id] = true
		}
	}
	run := func(id string) bool { return len(want) == 0 || want[id] }
	if *jsonDir != "" {
		if err := os.MkdirAll(*jsonDir, 0o755); err != nil {
			log.Fatal(err)
		}
	}

	type exp struct {
		id string
		fn func() (*experiments.Table, error)
	}
	suite := []exp{
		{"E1", func() (*experiments.Table, error) { _, t, err := experiments.E1Figure1(); return t, err }},
		{"E2", func() (*experiments.Table, error) { _, t, err := experiments.E2Figure2(*roundsFlag); return t, err }},
		{"E3", experiments.E3Figure3},
		{"E4", func() (*experiments.Table, error) { _, t, err := experiments.E4Figure4(); return t, err }},
		{"E5", func() (*experiments.Table, error) { _, t, err := experiments.E5Figure5(); return t, err }},
		{"E6", func() (*experiments.Table, error) { _, t, err := experiments.E6Forest(10); return t, err }},
		{"E7", func() (*experiments.Table, error) {
			_, t, err := experiments.E7MCSBound([]int{2, 4, 8, 16, 32, 64})
			return t, err
		}},
		{"E8", func() (*experiments.Table, error) {
			_, t, err := experiments.E8Cutset([]int{3, 5, 8, 12, 16}, 50, *seedFlag)
			return t, err
		}},
		{"E9", func() (*experiments.Table, error) { _, t, err := experiments.E9Strategies(*seedFlag); return t, err }},
		{"E10", func() (*experiments.Table, error) { _, t, err := experiments.E10Structure(*seedFlag); return t, err }},
		{"E11", func() (*experiments.Table, error) { _, t, err := experiments.E11Distributed(*seedFlag); return t, err }},
		{"E12", func() (*experiments.Table, error) { _, t, err := experiments.E12Avoidance(*seedFlag); return t, err }},
		{"E13", func() (*experiments.Table, error) { _, t, err := experiments.E13Hybrid(*seedFlag); return t, err }},
		{"E14", func() (*experiments.Table, error) { _, t, err := experiments.E14Optimizer(*seedFlag); return t, err }},
		{"E15", func() (*experiments.Table, error) {
			_, t, err := experiments.E15MessagePassing(*seedFlag)
			return t, err
		}},
	}
	for _, e := range suite {
		if !run(e.id) {
			continue
		}
		t, err := e.fn()
		if err != nil {
			log.Fatalf("%s: %v", e.id, err)
		}
		fmt.Printf("== %s: %s ==\n", t.ID, t.Title)
		fmt.Print(render.Table(t.Header, t.Rows))
		for _, n := range t.Notes {
			fmt.Printf("  * %s\n", n)
		}
		fmt.Println()
		if *jsonDir != "" {
			if err := writeJSON(t); err != nil {
				log.Fatalf("%s: write json: %v", t.ID, err)
			}
		}
	}
}
