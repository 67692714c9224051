package parlog

// Tests for the stratified-negation extension: the paper addresses pure
// Datalog, but the framework extends naturally — negation-as-absence is
// sound once strata run as sequenced parallel phases, because the negated
// relation is complete (and replicated) before any processor probes it.

import (
	"context"
	"strings"
	"testing"

	"parlog/internal/randprog"
	"parlog/internal/workload"
)

// unreachableSrc: classic two-stratum program — reach is computed first,
// then its complement relative to node.
const unreachableSrc = `
reach(X) :- source(X).
reach(Y) :- reach(X), edge(X, Y).
unreachable(X) :- node(X), !reach(X).
`

func TestNegationSequential(t *testing.T) {
	p := MustParse(unreachableSrc + `
source(a).
edge(a, b). edge(b, c). edge(d, e).
node(a). node(b). node(c). node(d). node(e).
`)
	res, err := Eval(context.Background(), p, nil, EvalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	store := res.Output
	if got := store["reach"].Len(); got != 3 { // a b c
		t.Errorf("|reach| = %d, want 3", got)
	}
	if got := store["unreachable"].Len(); got != 2 { // d e
		t.Errorf("|unreachable| = %d, want 2", got)
	}
	out := p.Format(store, "unreachable")
	if !strings.Contains(out, "unreachable(d).") || !strings.Contains(out, "unreachable(e).") {
		t.Errorf("unreachable = %s", out)
	}
	if strings.Contains(out, "unreachable(a).") {
		t.Errorf("a wrongly unreachable:\n%s", out)
	}
}

func TestNegationParallelMatchesSequential(t *testing.T) {
	// Random graph; compare three-stratum pipeline across worker counts.
	g := workload.RandomGraph(20, 40, 3)
	var facts strings.Builder
	for _, e := range g.Rows() {
		facts.WriteString("edge(n")
		facts.WriteString(itoa(int(e[0])))
		facts.WriteString(", n")
		facts.WriteString(itoa(int(e[1])))
		facts.WriteString(").\n")
	}
	for i := 0; i < 20; i++ {
		facts.WriteString("node(n" + itoa(i) + ").\n")
	}
	facts.WriteString("source(n0).\n")
	src := unreachableSrc + facts.String()

	seqP := MustParse(src)
	wantRes, err := Eval(context.Background(), seqP, nil, EvalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	want := wantRes.Output
	for _, workers := range []int{1, 2, 4} {
		p := MustParse(src)
		res, err := EvalParallel(context.Background(), p, nil, EvalOptions{Workers: workers})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for _, pred := range []string{"reach", "unreachable"} {
			if !want[pred].Equal(res.Output[pred]) {
				t.Fatalf("workers=%d: %s differs from sequential", workers, pred)
			}
		}
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var b []byte
	for n > 0 {
		b = append([]byte{byte('0' + n%10)}, b...)
		n /= 10
	}
	return string(b)
}

// TestNegationThreeStrata: negation of a negation-derived predicate.
func TestNegationThreeStrata(t *testing.T) {
	src := `
reach(X) :- source(X).
reach(Y) :- reach(X), edge(X, Y).
unreachable(X) :- node(X), !reach(X).
connected(X) :- node(X), !unreachable(X).
source(a).
edge(a, b). edge(c, d).
node(a). node(b). node(c). node(d).
`
	p := MustParse(src)
	wantRes, err := Eval(context.Background(), p, nil, EvalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	want := wantRes.Output
	if want["connected"].Len() != 2 { // a, b
		t.Errorf("|connected| = %d, want 2", want["connected"].Len())
	}
	res, err := EvalParallel(context.Background(), MustParse(src), nil, EvalOptions{Workers: 3})
	if err != nil {
		t.Fatal(err)
	}
	if !want["connected"].Equal(res.Output["connected"]) {
		t.Error("parallel three-strata result differs")
	}
}

func TestNegationNotStratifiedRejected(t *testing.T) {
	// win(X) :- move(X, Y), !win(Y). — negation inside win's own component.
	src := `
win(X) :- move(X, Y), !win(Y).
move(a, b). move(b, c).
`
	p := MustParse(src)
	if _, err := Eval(context.Background(), p, nil, EvalOptions{}); err == nil {
		t.Error("non-stratified program accepted sequentially")
	}
	if _, err := EvalParallel(context.Background(), p, nil, EvalOptions{Workers: 2}); err == nil {
		t.Error("non-stratified program accepted in parallel")
	}
}

func TestNegationUnsafeRejected(t *testing.T) {
	// X in the negated atom does not occur positively.
	if _, err := Parse(`p(Y) :- q(Y), !r(X).`); err == nil {
		t.Error("unsafe negation accepted by the parser")
	}
}

func TestNegationNaiveModeRejected(t *testing.T) {
	p := MustParse(unreachableSrc + "node(a). source(a).")
	if _, err := Eval(context.Background(), p, nil, EvalOptions{Naive: true}); err == nil {
		t.Error("naive mode accepted a negation program")
	}
}

func TestNegationSirupStrategyRejected(t *testing.T) {
	p := MustParse(`
p(X) :- base(X).
p(Y) :- p(X), edge(X, Y), !blocked(Y).
base(a). edge(a, b). blocked(b).
`)
	// Sirup strategies must reject negation programs cleanly…
	if _, err := EvalParallel(context.Background(), p, nil, EvalOptions{Workers: 2, Strategy: StrategyHashPartition}); err == nil {
		t.Error("hash-partition strategy accepted a negation program")
	}
	// …while the general (auto) route runs them.
	wantRes, err := Eval(context.Background(), p, nil, EvalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	want := wantRes.Output
	res, err := EvalParallel(context.Background(), p, nil, EvalOptions{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !want["p"].Equal(res.Output["p"]) {
		t.Error("negation-in-recursion (stratified) differs in parallel")
	}
	// b is blocked: p = {a} only.
	if res.Output["p"].Len() != 1 {
		t.Errorf("|p| = %d, want 1", res.Output["p"].Len())
	}
}

func TestNegationRoundTripPrinting(t *testing.T) {
	p := MustParse(`unreach(X) :- node(X), !reach(X).` + "\n" + `reach(X) :- src(X).`)
	s := p.String()
	if !strings.Contains(s, "!reach(X)") {
		t.Errorf("printed program lost negation:\n%s", s)
	}
	again, err := Parse(s)
	if err != nil {
		t.Fatalf("re-parse: %v", err)
	}
	if again.String() != s {
		t.Error("print/parse not a fixpoint with negation")
	}
}

// TestNegationRandomProgramsDifferential: layered random programs with
// negation — sequential stratified evaluation vs the parallel per-stratum
// driver must agree on every derived predicate.
func TestNegationRandomProgramsDifferential(t *testing.T) {
	cfg := randprog.Defaults()
	cfg.Layered = true
	cfg.NegationProb = 0.5
	for seed := int64(0); seed < 25; seed++ {
		g := randprog.Generate(cfg, seed)
		prog := &Program{}
		// Re-parse through the public API so the test exercises the same
		// path users do.
		p, err := Parse(g.Prog.String())
		if err != nil {
			t.Fatalf("seed %d: generated program does not parse: %v\n%s", seed, err, g.Prog)
		}
		*prog = *p
		// The generator interns constants in its own order; rebuild the EDB
		// under the re-parsed program's interner.
		edb := Store{}
		for pred, rel := range g.EDB {
			dst := edb.Get(pred, rel.Arity())
			for _, tu := range rel.Rows() {
				nt := make(Tuple, len(tu))
				for i, v := range tu {
					nt[i] = prog.Intern(g.Prog.Interner.Name(v))
				}
				dst.Insert(nt)
			}
		}
		wantRes, err := Eval(context.Background(), prog, edb, EvalOptions{})
		if err != nil {
			t.Fatalf("seed %d: sequential: %v\n%s", seed, err, g.Prog)
		}
		want := wantRes.Output
		res, err := EvalParallel(context.Background(), prog, edb, EvalOptions{Workers: 2 + int(seed%3)})
		if err != nil {
			t.Fatalf("seed %d: parallel: %v\n%s", seed, err, g.Prog)
		}
		for _, pred := range prog.IDB() {
			a, b := want[pred], res.Output[pred]
			aEmpty := a == nil || a.Len() == 0
			bEmpty := b == nil || b.Len() == 0
			if aEmpty && bEmpty {
				continue
			}
			if aEmpty != bEmpty || !a.Equal(b) {
				t.Fatalf("seed %d: %s differs between sequential and parallel\n%s", seed, pred, g.Prog)
			}
		}
	}
}
