// Command prfigures regenerates the paper's five figures on the real
// engine and prints them with the asserted paper facts.
//
// Usage:
//
//	prfigures [-figure N]
package main

import (
	"flag"
	"fmt"
	"log"

	"partialrollback/internal/experiments"
	"partialrollback/internal/figures"
	"partialrollback/internal/render"
	"partialrollback/internal/txn"
)

var figureFlag = flag.Int("figure", 0, "figure to print (1-5; 0 = all)")

func main() {
	log.SetFlags(0)
	flag.Parse()
	want := func(n int) bool { return *figureFlag == 0 || *figureFlag == n }
	if want(1) {
		figure1()
	}
	if want(2) {
		figure2()
	}
	if want(3) {
		figure3()
	}
	if want(4) {
		figure4()
	}
	if want(5) {
		figure5()
	}
}

func printTable(t *experiments.Table) {
	fmt.Printf("== %s: %s ==\n", t.ID, t.Title)
	fmt.Print(render.Table(t.Header, t.Rows))
	for _, n := range t.Notes {
		fmt.Printf("  * %s\n", n)
	}
	fmt.Println()
}

func figure1() {
	res, table, err := experiments.E1Figure1()
	if err != nil {
		log.Fatal(err)
	}
	names := func(id txn.ID) string { return res.Sys.ProgramName(id) }
	fmt.Print(render.ConcurrencyGraph("Figure 1(a): concurrency graph before T4 requests c", res.ArcsBefore, names))
	fmt.Println()
	printTable(table)
	fmt.Print(render.ConcurrencyGraph("Figure 1(b): after rolling T2 back to its lock state for b", res.ArcsAfter, names))
	fmt.Println()
}

func figure2() {
	_, table, err := experiments.E2Figure2(10)
	if err != nil {
		log.Fatal(err)
	}
	printTable(table)
}

func figure3() {
	a, err := figures.RunFigure3a()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(render.ConcurrencyGraph("Figure 3(a): shared locks make the deadlock-free graph a DAG, not a forest", a.AArcs, nil))
	fmt.Printf("  forest=%v, deadlock=%v\n\n", a.AForest, a.ADeadlock)
	table, err := experiments.E3Figure3()
	if err != nil {
		log.Fatal(err)
	}
	printTable(table)
}

func figure4() {
	res, table, err := experiments.E4Figure4()
	if err != nil {
		log.Fatal(err)
	}
	for _, variant := range []struct {
		title string
		prog  bool
		wd    []int
	}{
		{"Figure 4(a-c): T with scattered writes", true, res.WellDefinedT},
		{"Figure 4(d): T' with the D-write deleted", false, res.WellDefinedTPrime},
	} {
		p := figures.Figure4T(variant.prog)
		a := txn.Analyze(p)
		var ivs [][2]int
		for _, idxs := range txn.AnalyzeWrites(p).WriteLockIndexes {
			if len(idxs) > 1 {
				ivs = append(ivs, [2]int{idxs[0], idxs[len(idxs)-1]})
			}
		}
		fmt.Print(render.StateDependencyGraph(variant.title, a.NumLocks(), ivs, variant.wd))
		fmt.Println()
	}
	printTable(table)
}

func figure5() {
	_, table, err := experiments.E5Figure5()
	if err != nil {
		log.Fatal(err)
	}
	for _, v := range []struct {
		title string
		prog  *txn.Program
	}{
		{"Figure 5: clustered T2", figures.Figure5Clustered()},
		{"Figure 5 (variant): three-phase form", figures.Figure5ThreePhase()},
	} {
		a := txn.Analyze(v.prog)
		w := txn.AnalyzeWrites(v.prog)
		var wd []int
		for q, ok := range w.StaticWellDefined() {
			if ok {
				wd = append(wd, q)
			}
		}
		var ivs [][2]int
		for _, idxs := range w.WriteLockIndexes {
			if len(idxs) > 1 {
				ivs = append(ivs, [2]int{idxs[0], idxs[len(idxs)-1]})
			}
		}
		fmt.Print(render.StateDependencyGraph(v.title, a.NumLocks(), ivs, wd))
		fmt.Println()
	}
	printTable(table)
}
