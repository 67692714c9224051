package parser

import (
	"strings"
	"testing"

	"parlog/internal/ast"
)

const ancestorSrc = `
% the running example of the paper
anc(X, Y) :- par(X, Y).
anc(X, Y) :- par(X, Z), anc(Z, Y).
par(a, b).
par(b, c).
`

func TestParseAncestor(t *testing.T) {
	prog, err := Parse(ancestorSrc)
	if err != nil {
		t.Fatal(err)
	}
	if len(prog.Rules) != 4 {
		t.Fatalf("rules = %d, want 4", len(prog.Rules))
	}
	r := prog.Rules[1]
	if r.Head.Pred != "anc" || len(r.Body) != 2 {
		t.Errorf("second rule parsed wrong: %s", prog.FormatRule(r))
	}
	if got := prog.FormatRule(r); got != "anc(X, Y) :- par(X, Z), anc(Z, Y)." {
		t.Errorf("FormatRule = %q", got)
	}
	rules, facts := prog.FactTuples()
	if len(rules) != 2 || len(facts["par"]) != 2 {
		t.Errorf("split: %d rules, %d par facts", len(rules), len(facts["par"]))
	}
}

// TestParseZeroArity checks that a bare identifier is a zero-arity atom in
// a head, a positive or negated body and a fact, and that the printer
// renders it bare so the program re-parses to itself.
func TestParseZeroArity(t *testing.T) {
	src := "found :- reach(X), goal(X).\nlost :- start, !found.\nstart.\n"
	prog, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	r := prog.Rules[0]
	if r.Head.Pred != "found" || r.Head.Arity() != 0 || len(r.Body) != 2 {
		t.Errorf("found rule parsed wrong: %s", prog.FormatRule(r))
	}
	if r := prog.Rules[1]; len(r.Negated) != 1 || r.Negated[0].Arity() != 0 || r.Body[0].Arity() != 0 {
		t.Errorf("lost rule parsed wrong: %s", prog.FormatRule(r))
	}
	if _, facts := prog.FactTuples(); len(facts["start"]) != 1 || len(facts["start"][0]) != 0 {
		t.Errorf("start fact = %v, want one empty tuple", facts["start"])
	}
	if got := prog.String(); got != src {
		t.Errorf("printed %q, want %q", got, src)
	}
	if _, err := Parse("p.\np(a)."); err == nil || !strings.Contains(err.Error(), "arities 0 and 1") {
		t.Errorf("mixed arities: err = %v", err)
	}
}

func TestParseTermKinds(t *testing.T) {
	prog, err := Parse(`p(X) :- q(X, abc, 42, -7, "hello world", _, _).`)
	if err != nil {
		t.Fatal(err)
	}
	args := prog.Rules[0].Body[0].Args
	if !args[0].IsVar() || args[0].VarName != "X" {
		t.Errorf("arg0 = %v", args[0])
	}
	for i, want := range map[int]string{1: "abc", 2: "42", 3: "-7", 4: "hello world"} {
		if args[i].IsVar() {
			t.Errorf("arg%d is a variable", i)
			continue
		}
		if got := prog.Interner.Name(args[i].Value); got != want {
			t.Errorf("arg%d = %q, want %q", i, got, want)
		}
	}
	// Two anonymous variables must be distinct.
	if !args[5].IsVar() || !args[6].IsVar() || args[5].VarName == args[6].VarName {
		t.Errorf("anonymous variables: %v %v", args[5], args[6])
	}
}

func TestParseStringEscapes(t *testing.T) {
	prog, err := Parse(`p("a\nb\t\"c\\").`)
	if err != nil {
		t.Fatal(err)
	}
	got := prog.Interner.Name(prog.Rules[0].Head.Args[0].Value)
	if got != "a\nb\t\"c\\" {
		t.Errorf("string = %q", got)
	}
}

func TestParseComments(t *testing.T) {
	prog, err := Parse("% leading\np(a). % trailing\n% final\n")
	if err != nil {
		t.Fatal(err)
	}
	if len(prog.Rules) != 1 {
		t.Errorf("rules = %d", len(prog.Rules))
	}
}

func TestParseErrors(t *testing.T) {
	cases := []struct {
		name string
		src  string
		want string // substring of the error
	}{
		{"missing dot", `p(a)`, "expected '.'"},
		{"missing paren", `p(a.`, "expected"},
		{"bad colon", `p(X) : q(X).`, "expected ':-'"},
		{"unterminated string", `p("abc`, "unterminated"},
		{"bad escape", `p("a\q").`, "unknown escape"},
		{"dangling minus", `p(-).`, "digit"},
		{"unexpected char", `p(a); q(b).`, "unexpected character"},
		{"unsafe rule", `p(X, Y) :- q(X).`, "unsafe rule"},
		{"arity conflict", "p(a).\np(a, b).", "arities 1 and 2"},
		{"zero-arg atom", `p().`, "expected term"},
		{"empty body atom", `p(a) :- .`, "expected"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Parse(tc.src)
			if err == nil {
				t.Fatalf("Parse(%q) succeeded, want error containing %q", tc.src, tc.want)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error = %q, want substring %q", err, tc.want)
			}
		})
	}
}

func TestParseErrorPositions(t *testing.T) {
	_, err := Parse("p(a).\nq(b)\nr(c).")
	if err == nil {
		t.Fatal("want error")
	}
	pe, ok := err.(*Error)
	if !ok {
		t.Fatalf("error type %T", err)
	}
	if pe.Line != 3 { // the '.' is missing, discovered at r on line 3
		t.Errorf("error line = %d, want 3 (got %v)", pe.Line, err)
	}
}

func TestParseIntoSharesInterner(t *testing.T) {
	prog := MustParse(`p(a).`)
	if _, err := ParseInto(`q(a). q(b).`, prog); err != nil {
		t.Fatal(err)
	}
	va, _ := prog.Interner.Lookup("a")
	// "a" must have been interned once: both rules' first args equal.
	if prog.Rules[0].Head.Args[0].Value != va || prog.Rules[1].Head.Args[0].Value != va {
		t.Error("interner not shared across ParseInto")
	}
	if len(prog.Rules) != 3 {
		t.Errorf("rules = %d", len(prog.Rules))
	}
}

func TestMustParsePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustParse on bad input did not panic")
		}
	}()
	MustParse("p(")
}

func TestRoundTripThroughString(t *testing.T) {
	prog := MustParse(ancestorSrc)
	again, err := Parse(prog.String())
	if err != nil {
		t.Fatalf("reparse failed: %v\nsource:\n%s", err, prog.String())
	}
	if again.String() != prog.String() {
		t.Errorf("round trip changed program:\n%s\nvs\n%s", prog.String(), again.String())
	}
}

func TestVariableLexing(t *testing.T) {
	prog := MustParse(`p(Xs, _under, Y2, lower, CamelCase) :- q(Xs, _under, Y2, CamelCase).`)
	args := prog.Rules[0].Head.Args
	wantVar := []bool{true, true, true, false, true}
	for i, w := range wantVar {
		if args[i].IsVar() != w {
			t.Errorf("arg %d: IsVar=%v, want %v", i, args[i].IsVar(), w)
		}
	}
	_ = ast.Subst{} // keep ast import for clarity of test intent
}

// TestPrintParseFixpointWithOddConstants is the regression test for the
// quoting bug the fuzzer found: constants that do not lex as bare tokens
// must be quoted when printed.
func TestPrintParseFixpointWithOddConstants(t *testing.T) {
	cases := []string{
		`p("str \" esc").`,
		`p("").`,
		`p("UpperCase").`,
		`p("has space").`,
		`p("42abc").`,
		`p("-").`,
		`p("tab\tnl\nback\\").`,
		`p("päö").`,
		`p(-7).`,
		`p(abc'quote).`,
	}
	for _, src := range cases {
		prog, err := Parse(src)
		if err != nil {
			t.Fatalf("Parse(%q): %v", src, err)
		}
		printed := prog.String()
		again, err := Parse(printed)
		if err != nil {
			t.Fatalf("re-parse of %q failed: %v", printed, err)
		}
		if again.String() != printed {
			t.Errorf("not a fixpoint: %q -> %q", printed, again.String())
		}
		// The constant must intern back to the same spelling.
		v1 := prog.Rules[0].Head.Args[0].Value
		v2 := again.Rules[0].Head.Args[0].Value
		if prog.Interner.Name(v1) != again.Interner.Name(v2) {
			t.Errorf("constant changed: %q vs %q", prog.Interner.Name(v1), again.Interner.Name(v2))
		}
	}
}

func TestParseNegation(t *testing.T) {
	prog, err := Parse(`unreach(X) :- node(X), !reach(X), !bad(X, c).`)
	if err != nil {
		t.Fatal(err)
	}
	r := prog.Rules[0]
	if len(r.Body) != 1 || len(r.Negated) != 2 {
		t.Fatalf("body=%d negated=%d", len(r.Body), len(r.Negated))
	}
	if r.Negated[0].Pred != "reach" || r.Negated[1].Pred != "bad" {
		t.Errorf("negated = %v", r.Negated)
	}
	// Negation order can interleave with positive atoms.
	prog2, err := Parse(`p(X) :- !a(X), q(X), !b(X), r(X).`)
	if err != nil {
		t.Fatal(err)
	}
	if len(prog2.Rules[0].Body) != 2 || len(prog2.Rules[0].Negated) != 2 {
		t.Error("interleaved negation parsed wrong")
	}
}

func TestParseNegationErrors(t *testing.T) {
	for _, src := range []string{
		`p(X) :- !`,         // dangling bang
		`p(X) :- !!q(X).`,   // double bang
		`!p(a).`,            // negated head
		`p(X) :- q(X), !X.`, // bang before variable
	} {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) accepted", src)
		}
	}
}
