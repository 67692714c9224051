// Command dlbench regenerates every figure and measurable claim of the
// paper's evaluation (the per-experiment index lives in DESIGN.md and the
// recorded outcomes in EXPERIMENTS.md):
//
//	E1  Figure 1   dataflow graph of p(U,V,W) :- p(V,W,Z), q(U,Z)
//	E2  Figure 2   dataflow graph of the ancestor rule
//	E3  Figure 3   network graph of Example 6
//	E4  Figure 4   network graph of Example 7 (linear system over {0,1})
//	E5  Examples 1–3: communication / placement / redundancy profile
//	E6  Theorems 2 & 6: semi-naive non-redundancy counts
//	E7  Section 6 trade-off: locality sweep
//	E8  Theorem 3: derived communication-free schemes
//	E9  speedup and processor utilization (Section 8 future work)
//	E10 Section 7 general scheme on the non-linear ancestor (Example 8)
//	E11 Section 5 minimality: witness search over random databases
//	E12 Section 5 adaptation: execution on the derived interconnect
//	E13 Theorems 1, 4, 5: least-model equality of the rewritten programs
//	E14 extension: load balancing via weighted discriminating functions
//
// Wall-clock performance is measured by perfbench (BENCHMARK.json), not here.
//
// Usage: dlbench [-experiment E5] [-quick]
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
)

type experiment struct {
	id    string
	title string
	run   func(quick bool) error
}

var experiments = []experiment{
	{"E1", "Figure 1 — dataflow graph of p(U,V,W) :- p(V,W,Z), q(U,Z)", runE1},
	{"E2", "Figure 2 — dataflow graph of the ancestor rule", runE2},
	{"E3", "Figure 3 — network graph of Example 6", runE3},
	{"E4", "Figure 4 — network graph of Example 7", runE4},
	{"E5", "Examples 1–3 — communication, placement, redundancy", runE5},
	{"E6", "Theorems 2 & 6 — semi-naive non-redundancy", runE6},
	{"E7", "Section 6 — redundancy/communication trade-off sweep", runE7},
	{"E8", "Theorem 3 — derived communication-free schemes", runE8},
	{"E9", "Speedup and utilization (Section 8 future work)", runE9},
	{"E10", "Section 7 — general scheme on the non-linear ancestor", runE10},
	{"E11", "Section 5 — network minimality witness search", runE11},
	{"E12", "Section 5 — execution on the derived interconnect", runE12},
	{"E13", "Theorems 1, 4, 5 — least-model equality of rewritten programs", runE13},
	{"E14", "Extension — load balancing via weighted discriminating functions", runE14},
}

func main() {
	var (
		which = flag.String("experiment", "all", "experiment id (E1..E14) or 'all'")
		quick = flag.Bool("quick", false, "smaller workloads for a fast pass")
	)
	flag.Parse()

	ids := map[string]bool{}
	for _, e := range strings.Split(*which, ",") {
		ids[strings.ToUpper(strings.TrimSpace(e))] = true
	}
	ran := 0
	for _, e := range experiments {
		if !ids["ALL"] && !ids[e.id] {
			continue
		}
		ran++
		fmt.Printf("== %s: %s ==\n", e.id, e.title)
		if err := e.run(*quick); err != nil {
			fmt.Fprintf(os.Stderr, "dlbench: %s failed: %v\n", e.id, err)
			os.Exit(1)
		}
		fmt.Println()
	}
	if ran == 0 {
		known := make([]string, len(experiments))
		for i, e := range experiments {
			known[i] = e.id
		}
		sort.Strings(known)
		fmt.Fprintf(os.Stderr, "dlbench: unknown experiment %q (known: %s, all)\n", *which, strings.Join(known, " "))
		os.Exit(2)
	}
}
