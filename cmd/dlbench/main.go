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
//	E15 Examples 1–3 rerun with the counting sink; per-iteration deltas,
//	    per-channel tuple counts and per-worker busy/idle totals are written
//	    to BENCH_parallel.json (see -bench-out)
//	E16 extension: bounded recovery — a mid-run worker kill recovered from a
//	    checkpoint plus log suffix vs a full log replay; replay counts and
//	    wall times are written to BENCH_recovery.json (see -recovery-out)
//	E17 core kernels: insert/probe/indexed-join/delta-enumerate microbenches
//	    plus a 4-worker Example 3 end-to-end run; ns/op, B/op and allocs/op
//	    are written to BENCH_core.json (see -core-out)
//	E18 query planning: goal-directed reachability with the magic-sets
//	    (demand) rewrite vs full materialization, and Example 3's full
//	    evaluation per firing; written to BENCH_plan.json (see -plan-out)
//	E19 incremental maintenance: single-edge insert/delete batches absorbed
//	    by the counting/DRed engine vs from-scratch refixpoints; fails
//	    unless refixpointing does at least 5x the derived work; written to
//	    BENCH_ivm.json (see -ivm-out)
//	E20 durable storage: per-batch WAL apply cost under the always /
//	    interval / never fsync policies, plus cold-start recovery of an
//	    existing state directory vs recomputing the final model from
//	    scratch; written to BENCH_durability.json (see -durability-out)
//	E21 adaptive load balancing: skew-triggered hot-bucket migration on an
//	    engineered-skew chain workload vs static partitioning, plus a
//	    mid-migration worker kill; self-gates on a ≥1.5x critical-path
//	    (max per-worker busy time) improvement and model/firing equality;
//	    written to BENCH_rebalance.json (see -rebalance-out)
//	E22 runtime profiler overhead: interleaved profile-off / profile-on
//	    repetitions of E17's 4-worker Example 3 end-to-end run; medians,
//	    the on/off ratio and (full mode) a ≤2% disabled-path self-gate
//	    against BENCH_core.json are written to BENCH_profile.json (see
//	    -profile-out)
//
// Usage: dlbench [-experiment E5] [-quick] [-bench-out BENCH_parallel.json]
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"

	"parlog/internal/metrics"
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
	{"E15", "Examples 1–3 — metrics snapshot to BENCH_parallel.json", runE15},
	{"E16", "Bounded recovery — checkpointed vs full-replay worker kill", runE16},
	{"E17", "Core kernels — insert/probe/join/delta + Example 3 to BENCH_core.json", runE17},
	{"E18", "Query planning — demand rewrite + Example 3 join kernel to BENCH_plan.json", runE18},
	{"E19", "Incremental maintenance — counting/DRed deltas vs refixpoint to BENCH_ivm.json", runE19},
	{"E20", "Durable storage — fsync-policy WAL tax + cold start vs recompute to BENCH_durability.json", runE20},
	{"E21", "Adaptive rebalancing — skew-triggered hot-bucket migration to BENCH_rebalance.json", runE21},
	{"E22", "Runtime profiler — profile-on vs profile-off Example 3 to BENCH_profile.json", runE22},
}

func main() {
	var (
		which = flag.String("experiment", "all", "experiment id (E1..E22) or 'all'")
		quick = flag.Bool("quick", false, "smaller workloads for a fast pass")

		metricsAddr = flag.String("metrics-addr", "", "serve a process-level metrics endpoint while experiments run")
		pprofF      = flag.Bool("pprof", false, "mount net/http/pprof on the -metrics-addr server (profile the benchmarks)")
	)
	flag.StringVar(&benchOut, "bench-out", benchOut, "output path of E15's JSON benchmark document")
	flag.StringVar(&recoveryOut, "recovery-out", recoveryOut, "output path of E16's JSON benchmark document")
	flag.StringVar(&coreOut, "core-out", coreOut, "output path of E17's JSON benchmark document")
	flag.StringVar(&planOut, "plan-out", planOut, "output path of E18's JSON benchmark document")
	flag.StringVar(&ivmOut, "ivm-out", ivmOut, "output path of E19's JSON benchmark document")
	flag.StringVar(&durOut, "durability-out", durOut, "output path of E20's JSON benchmark document")
	flag.StringVar(&rebalanceOut, "rebalance-out", rebalanceOut, "output path of E21's JSON benchmark document")
	flag.StringVar(&profileOut, "profile-out", profileOut, "output path of E22's JSON benchmark document")
	flag.Parse()

	if *metricsAddr != "" {
		srv, err := metrics.NewServer(*metricsAddr, metrics.New(), metrics.ServerOptions{Pprof: *pprofF})
		if err != nil {
			fmt.Fprintln(os.Stderr, "dlbench:", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "dlbench: serving metrics on http://%s/metrics\n", srv.Addr())
		defer func() {
			ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
			defer cancel()
			srv.Close(ctx)
		}()
	}

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
