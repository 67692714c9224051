package randprog

import (
	"fmt"
	"testing"

	"parlog/internal/analysis"
	"parlog/internal/ast"
	"parlog/internal/hashpart"
	"parlog/internal/parallel"
	"parlog/internal/parser"
	"parlog/internal/relation"
	"parlog/internal/rewrite"
	"parlog/internal/seminaive"
)

const diffSeeds = 80

func TestGeneratedProgramsAreSafeAndParseable(t *testing.T) {
	for seed := int64(0); seed < diffSeeds; seed++ {
		g := Generate(Config{}, seed)
		if err := analysis.CheckSafety(g.Prog); err != nil {
			t.Fatalf("seed %d: generated unsafe program: %v\n%s", seed, err, g.Prog)
		}
		// The textual rendering must parse back to an equivalent program.
		again, err := parser.Parse(g.Prog.String())
		if err != nil {
			t.Fatalf("seed %d: program does not re-parse: %v\n%s", seed, err, g.Prog)
		}
		if again.String() != g.Prog.String() {
			t.Fatalf("seed %d: round trip changed the program", seed)
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a := Generate(Config{}, 7)
	b := Generate(Config{}, 7)
	if a.Prog.String() != b.Prog.String() {
		t.Error("same seed produced different programs")
	}
	c := Generate(Config{}, 8)
	if a.Prog.String() == c.Prog.String() {
		t.Error("different seeds produced identical programs")
	}
}

// TestNaiveMatchesSemiNaive is the engine cross-check: both fixpoint
// strategies must compute the same least model on every random program.
func TestNaiveMatchesSemiNaive(t *testing.T) {
	for seed := int64(0); seed < diffSeeds; seed++ {
		g := Generate(Config{}, seed)
		sn, snStats, err := seminaive.Eval(g.Prog, g.EDB, seminaive.Options{})
		if err != nil {
			t.Fatalf("seed %d: semi-naive: %v", seed, err)
		}
		nv, nvStats, err := seminaive.Eval(g.Prog, g.EDB, seminaive.Options{Naive: true})
		if err != nil {
			t.Fatalf("seed %d: naive: %v", seed, err)
		}
		for _, pred := range g.IDB() {
			if !storesEqual(sn, nv, pred) {
				t.Fatalf("seed %d: %s differs between naive and semi-naive\nprogram:\n%s",
					seed, pred, g.Prog)
			}
		}
		if snStats.Firings > nvStats.Firings {
			t.Errorf("seed %d: semi-naive fired more (%d) than naive (%d)",
				seed, snStats.Firings, nvStats.Firings)
		}
	}
}

// generalSpec builds a Section 7 spec for a generated program: each rule
// discriminates on the first variable of its first recursive atom when one
// exists, else its first body variable.
func generalSpec(g *Program, n int, seed uint64) (rewrite.GeneralSpec, error) {
	rules, _ := g.Prog.FactTuples()
	spec := rewrite.GeneralSpec{Procs: hashpart.RangeProcs(n)}
	h := hashpart.ModHash{N: n, Seed: seed}
	for _, r := range rules {
		var seq []string
		if recs := analysis.RecursiveAtoms(g.Prog, r); len(recs) > 0 {
			if vars := r.Body[recs[0]].Vars(nil); len(vars) > 0 {
				seq = vars[:1]
			}
		}
		if seq == nil {
			vars := r.BodyVars()
			if len(vars) == 0 {
				return spec, fmt.Errorf("rule without body variables: %s", g.Prog.FormatRule(r))
			}
			seq = vars[:1]
		}
		spec.Rules = append(spec.Rules, rewrite.RuleSpec{Seq: seq, H: h})
	}
	return spec, nil
}

// TestParallelGeneralMatchesSequential is the central differential test: the
// Section 7 runtime must compute the sequential least model on every random
// program, for several processor counts, with
// exactly the sequential number of generation firings (Theorem 6 met with
// equality for common per-rule h).
func TestParallelGeneralMatchesSequential(t *testing.T) {
	for seed := int64(0); seed < diffSeeds; seed++ {
		g := Generate(Config{}, seed)
		want, seqStats, err := seminaive.Eval(g.Prog, g.EDB, seminaive.Options{})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		n := 2 + int(seed%3)
		spec, err := generalSpec(g, n, uint64(seed))
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		p, err := parallel.BuildGeneral(g.Prog, spec)
		if err != nil {
			t.Fatalf("seed %d: build: %v\n%s", seed, err, g.Prog)
		}
		res, err := parallel.Run(p, g.EDB, parallel.RunConfig{})
		if err != nil {
			t.Fatalf("seed %d: run: %v", seed, err)
		}
		for _, pred := range g.IDB() {
			if !storesEqual(want, res.Output, pred) {
				t.Fatalf("seed %d (N=%d): %s differs\nprogram:\n%s",
					seed, n, pred, g.Prog)
			}
		}
		if got := res.Stats.TotalFirings(); got != seqStats.Firings {
			t.Errorf("seed %d: parallel firings %d != sequential %d\nprogram:\n%s",
				seed, got, seqStats.Firings, g.Prog)
		}
	}
}

// TestRewriteGeneralDeclarative checks Theorem 5 on random programs: the
// union program T = ∪T_i, evaluated by the *sequential* engine, has the same
// least model as the original for every derived predicate.
func TestRewriteGeneralDeclarative(t *testing.T) {
	for seed := int64(0); seed < diffSeeds/2; seed++ {
		g := Generate(Config{}, seed)
		want, _, err := seminaive.Eval(g.Prog, g.EDB, seminaive.Options{})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		spec, err := generalSpec(g, 3, uint64(seed))
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		rw, err := rewrite.General(g.Prog, rewrite.GeneralSpec{Procs: spec.Procs, Rules: spec.Rules})
		if err != nil {
			t.Fatalf("seed %d: rewrite: %v", seed, err)
		}
		got, _, err := seminaive.Eval(rw.Program, g.EDB, seminaive.Options{})
		if err != nil {
			t.Fatalf("seed %d: eval rewritten: %v", seed, err)
		}
		for _, pred := range g.IDB() {
			if !storesEqual(want, got, pred) {
				t.Fatalf("seed %d: Theorem 5 violated for %s\nprogram:\n%s", seed, pred, g.Prog)
			}
		}
	}
}

// TestLargerRandomPrograms stresses bigger configurations.
func TestLargerRandomPrograms(t *testing.T) {
	cfg := Config{
		IDBPreds: 5, EDBPreds: 4, MaxArity: 3, MaxRulesPerPred: 4,
		MaxBodyAtoms: 4, ConstPool: 8, MaxFactsPerPred: 20, RecursionBias: 0.5,
	}
	for seed := int64(100); seed < 108; seed++ {
		g := Generate(cfg, seed)
		want, _, err := seminaive.Eval(g.Prog, g.EDB, seminaive.Options{})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		spec, err := generalSpec(g, 4, uint64(seed))
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		p, err := parallel.BuildGeneral(g.Prog, spec)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		res, err := parallel.Run(p, g.EDB, parallel.RunConfig{})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		for _, pred := range g.IDB() {
			if !storesEqual(want, res.Output, pred) {
				t.Fatalf("seed %d: %s differs\nprogram:\n%s", seed, pred, g.Prog)
			}
		}
	}
}

func storesEqual(a, b relation.Store, pred string) bool {
	ra, rb := a[pred], b[pred]
	switch {
	case ra == nil && rb == nil:
		return true
	case ra == nil:
		return rb.Len() == 0
	case rb == nil:
		return ra.Len() == 0
	default:
		return ra.Equal(rb)
	}
}

// TestFiringsEqualDistinctSubstitutions validates the exact semi-naive delta
// decomposition: the number of firings accumulated during evaluation must
// equal the number of distinct successful ground substitutions with respect
// to the least model — obtained independently by enumerating each rule once
// over the final store. (Definition 4's quantity; this equality is what
// makes the Theorem 2/6 comparisons meaningful.)
func TestFiringsEqualDistinctSubstitutions(t *testing.T) {
	for seed := int64(0); seed < diffSeeds; seed++ {
		g := Generate(Config{}, seed)
		final, stats, err := seminaive.Eval(g.Prog, g.EDB, seminaive.Options{})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		rules, _ := g.Prog.FactTuples()
		var oracle int64
		for _, r := range rules {
			plan := seminaive.Compile(r, nil)
			oracle += plan.Enumerate(final, nil, func([]ast.Value) bool { return true })
		}
		if stats.Firings != oracle {
			t.Errorf("seed %d: semi-naive fired %d, distinct substitutions %d\nprogram:\n%s",
				seed, stats.Firings, oracle, g.Prog)
		}
	}
}
