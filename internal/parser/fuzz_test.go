package parser

import (
	"os"
	"path/filepath"
	"testing"

	"parlog/internal/relation"
	"parlog/internal/seminaive"
)

// addCorpusSeeds feeds every .dl program under testdata/programs to the
// fuzzer, so mutation starts from realistic inputs (recursion, negated-free
// sirups, comments) rather than only the hand-written snippets below.
func addCorpusSeeds(f *testing.F) {
	f.Helper()
	paths, err := filepath.Glob(filepath.Join("..", "..", "testdata", "programs", "*.dl"))
	if err != nil {
		f.Fatalf("globbing seed corpus: %v", err)
	}
	if len(paths) == 0 {
		f.Fatal("no .dl seed programs found under testdata/programs")
	}
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			f.Fatalf("reading seed %s: %v", p, err)
		}
		f.Add(string(data))
	}
}

// FuzzParse checks that the parser never panics and that accepted programs
// re-parse to themselves through the printer (print/parse is a fixpoint).
// Without -fuzz this runs the seed corpus as ordinary tests.
func FuzzParse(f *testing.F) {
	seeds := []string{
		"",
		"p(a).",
		"anc(X, Y) :- par(X, Y).\nanc(X, Y) :- par(X, Z), anc(Z, Y).",
		`p(X) :- q(X, "str \" esc", -42, _).`,
		"% comment only",
		"p(",
		"p(X) :- .",
		"p(a) :- q(a), r(b).",
		"p(X,Y):-q(Y,X).",
		"p(_,_) :- q(_).",
		"päö(X) :- qüü(X).",                         // non-ASCII identifiers
		"found :- reach(X), goal(X), !done.\ndone.", // zero-arity atoms
	}
	for _, s := range seeds {
		f.Add(s)
	}
	addCorpusSeeds(f)
	f.Fuzz(func(t *testing.T, src string) {
		prog, err := Parse(src)
		if err != nil {
			return // rejection is fine; panics are not
		}
		printed := prog.String()
		again, err := Parse(printed)
		if err != nil {
			t.Fatalf("accepted program does not re-parse: %v\nsource: %q\nprinted: %q", err, src, printed)
		}
		if again.String() != printed {
			t.Fatalf("print/parse not a fixpoint:\nfirst:  %q\nsecond: %q", printed, again.String())
		}
	})
}

// FuzzEval checks that evaluation of any accepted program terminates within
// the iteration bound without panicking, and that a program evaluated
// within it has the model naive evaluation (the reference) computes and,
// when incremental maintenance accepts the program, the model NewIVM
// materializes, with its counting invariant intact.
func FuzzEval(f *testing.F) {
	f.Add("anc(X, Y) :- par(X, Y).\nanc(X, Y) :- par(X, Z), anc(Z, Y).\npar(a, b). par(b, a).")
	f.Add("p(X) :- q(X), p2(X).\np2(X) :- q(X).\nq(a). q(b).")
	f.Add("p(X, X) :- q(X).\nq(c).")
	f.Add("r(X) :- e(X).\nu(X) :- e(X), !r(X).\ne(a).")
	addCorpusSeeds(f)
	f.Fuzz(func(t *testing.T, src string) {
		if len(src) > 4096 {
			return
		}
		prog, err := Parse(src)
		if err != nil {
			return
		}
		// MaxIterations bounds runaway fixpoints; errors are acceptable,
		// panics are not.
		want, _, err := seminaive.Eval(prog, relation.Store{}, seminaive.Options{MaxIterations: 60})
		if err != nil {
			return
		}
		negation := false
		for _, r := range prog.Rules {
			negation = negation || len(r.Negated) > 0
		}
		if negation {
			return // neither the naive reference nor NewIVM supports negation
		}
		naive, _, err := seminaive.Eval(prog, relation.Store{}, seminaive.Options{Naive: true})
		if err != nil {
			t.Fatalf("naive evaluation failed where semi-naive succeeded: %v\n%s", err, src)
		}
		sameModel(t, "naive", want, naive, src)
		m, _, err := seminaive.NewIVM(prog, relation.Store{}, seminaive.Options{MaxIterations: 60})
		if err != nil {
			t.Fatalf("NewIVM rejected a negation-free program Eval accepted: %v\n%s", err, src)
		}
		sameModel(t, "NewIVM", want, m.SnapshotStore(), src)
		if err := m.Audit(); err != nil {
			t.Fatalf("%v\n%s", err, src)
		}
	})
}

// sameModel fails unless got holds every relation of want with the same
// tuples.
func sameModel(t *testing.T, engine string, want, got relation.Store, src string) {
	t.Helper()
	for pred, w := range want {
		g, ok := got[pred]
		if !ok && w.Len() == 0 {
			continue
		}
		if !ok || !g.Equal(w) {
			t.Fatalf("%s model differs on %s: want %v\n%s", engine, pred, w.SortedRows(), src)
		}
	}
}
