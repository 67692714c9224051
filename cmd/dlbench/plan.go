package main

// E18 — goal-directed query benchmark: demand rewriting and the join
// kernel.
//
// Two measurements into BENCH_plan.json. First, goal-directed reachability:
// anc(src, X) on a random digraph, answered once from a full materialization
// and once through the magic-sets (demand) rewrite — the experiment fails
// unless demand derives at least 2x fewer tuples while returning the same
// answers, so the rewrite's point (evaluate only what the goal can reach)
// is asserted, not just reported. The ancestor program here is the
// left-linear variant: under a bf goal its magic set stays {src}, which is
// the shape demand rewriting rewards. Second, the full evaluation of
// Example 3's right-linear ancestor, reported per firing. The timing and
// allocation kernels feed cmd/benchguard, which gates allocs/op on the query
// kernels like it gates E17's storage kernels.

import (
	"encoding/json"
	"fmt"
	"os"

	"parlog/internal/ast"
	"parlog/internal/parser"
	"parlog/internal/relation"
	"parlog/internal/rewrite"
	"parlog/internal/seminaive"
	"parlog/internal/workload"
)

// planOut is where runE18 writes its JSON document; the -plan-out flag (and
// the test harness) override it.
var planOut = "BENCH_plan.json"

// planDoc is the top-level shape of BENCH_plan.json.
type planDoc struct {
	Benchmark string       `json:"benchmark"`
	Quick     bool         `json:"quick"`
	Kernels   []coreKernel `json:"kernels"`
	// DemandOnDerived / DemandOffDerived are the new-tuple counts of the
	// two reachability runs; Reduction is their ratio.
	DemandOnDerived  int64   `json:"demand_on_derived"`
	DemandOffDerived int64   `json:"demand_off_derived"`
	Reduction        float64 `json:"reduction"`
	Answers          int     `json:"answers"`
}

// leftLinearAncestor keeps the magic set at the goal constant: the
// recursive call inherits anc's first argument unchanged.
const leftLinearAncestor = `
anc(X, Y) :- par(X, Y).
anc(X, Y) :- anc(X, Z), par(Z, Y).
`

// planAnswers collects the tuples of rel matching the goal's bound first
// argument.
func planAnswers(rel *relation.Relation, src ast.Value) map[string]bool {
	out := map[string]bool{}
	if rel == nil {
		return out
	}
	for _, tup := range rel.Rows() {
		if tup[0] == src {
			out[tup.Key()] = true
		}
	}
	return out
}

func runE18(quick bool) error {
	nodes, edges := 120, 480
	if quick {
		nodes, edges = 40, 160
	}
	par := workload.RandomGraph(nodes, edges, 7)
	src := ast.Value(0)

	doc := planDoc{Benchmark: "query-planner", Quick: quick}

	// --- demand OFF: full materialization, post-hoc filter ---
	prog, err := parser.Parse(leftLinearAncestor)
	if err != nil {
		return err
	}
	var offStore relation.Store
	var offStats *seminaive.Stats
	offKernel := coreMeasure("query-demand-off", 1, func() {
		offStore, offStats, err = seminaive.Eval(prog, relation.Store{"par": par}, seminaive.Options{})
	})
	if err != nil {
		return err
	}
	want := planAnswers(offStore["anc"], src)

	// --- demand ON: magic-sets rewrite, goal-directed fixpoint ---
	goal := ast.NewAtom("anc", ast.C(src), ast.V("X"))
	d, err := rewrite.DemandRewrite(prog, goal)
	if err != nil {
		return err
	}
	if d == nil {
		return fmt.Errorf("E18: demand rewrite did not apply to %s", goal)
	}
	var onStore relation.Store
	var onStats *seminaive.Stats
	onKernel := coreMeasure("query-demand-on", 1, func() {
		seed := relation.New(len(d.SeedTuple))
		seed.Insert(relation.Tuple(d.SeedTuple))
		onStore, onStats, err = seminaive.Eval(d.Program, relation.Store{
			"par": par, d.SeedPred: seed,
		}, seminaive.Options{})
	})
	if err != nil {
		return err
	}
	got := planAnswers(onStore[d.Goal.Pred], src)
	if len(got) != len(want) {
		return fmt.Errorf("E18: demand answers %d, full answers %d", len(got), len(want))
	}
	for k := range want {
		if !got[k] {
			return fmt.Errorf("E18: demand evaluation missing answer %s", k)
		}
	}
	doc.Answers = len(want)
	doc.DemandOnDerived = onStats.New
	doc.DemandOffDerived = offStats.New
	if onStats.New > 0 {
		doc.Reduction = round2(float64(offStats.New) / float64(onStats.New))
	}
	if 2*doc.DemandOnDerived > doc.DemandOffDerived {
		return fmt.Errorf("E18: demand derived %d tuples vs %d undirected — less than the required 2x reduction",
			doc.DemandOnDerived, doc.DemandOffDerived)
	}
	// Per-answer cost is the comparable unit: both kernels measured one
	// evaluation, report them per answer tuple.
	for _, k := range []*coreKernel{&offKernel, &onKernel} {
		k.Ops = int64(doc.Answers)
		k.NsPerOp = round2(k.NsPerOp / float64(doc.Answers))
		k.BPerOp = round2(k.BPerOp / float64(doc.Answers))
		k.AllocsPerOp = round2(k.AllocsPerOp / float64(doc.Answers))
	}
	doc.Kernels = append(doc.Kernels, offKernel, onKernel)

	// --- Example 3's ancestor, per firing ---
	ex3 := workload.AncestorProgram()
	edb := relation.Store{"par": workload.RandomGraph(nodes, edges, 11)}
	var stats *seminaive.Stats
	k := coreMeasure("ex3", 1, func() {
		_, stats, err = seminaive.Eval(ex3, edb, seminaive.Options{})
	})
	if err != nil {
		return err
	}
	k.Ops = stats.Firings
	k.NsPerOp = round2(k.NsPerOp / float64(stats.Firings))
	k.BPerOp = round2(k.BPerOp / float64(stats.Firings))
	k.AllocsPerOp = round2(k.AllocsPerOp / float64(stats.Firings))
	doc.Kernels = append(doc.Kernels, k)

	for _, kr := range doc.Kernels {
		fmt.Printf("%-16s ops=%-8d %10.1f ns/op %10.1f B/op %8.2f allocs/op\n",
			kr.Name, kr.Ops, kr.NsPerOp, kr.BPerOp, kr.AllocsPerOp)
	}
	fmt.Printf("demand: %d derived vs %d undirected (%.1fx reduction), %d answers\n",
		doc.DemandOnDerived, doc.DemandOffDerived, doc.Reduction, doc.Answers)

	f, err := os.Create(planOut)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(doc); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Printf("wrote %s\n", planOut)
	return nil
}
