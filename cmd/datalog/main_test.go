package main

import (
	"context"
	"os"
	"strings"

	"parlog"
	"path/filepath"
	"testing"
)

func TestSplitList(t *testing.T) {
	if got := splitList(""); got != nil {
		t.Errorf("splitList(\"\") = %v, want nil", got)
	}
	got := splitList("Z, Y")
	if len(got) != 2 || got[0] != "Z" || got[1] != "Y" {
		t.Errorf("splitList = %v", got)
	}
}

func TestReadSourcesFiles(t *testing.T) {
	dir := t.TempDir()
	p1 := filepath.Join(dir, "a.dl")
	p2 := filepath.Join(dir, "b.dl")
	if err := os.WriteFile(p1, []byte("p(a)."), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(p2, []byte("q(b)."), 0o644); err != nil {
		t.Fatal(err)
	}
	src, err := readSources([]string{p1, p2})
	if err != nil {
		t.Fatal(err)
	}
	if src != "p(a).\nq(b).\n" {
		t.Errorf("src = %q", src)
	}
	if _, err := readSources([]string{filepath.Join(dir, "missing.dl")}); err == nil {
		t.Error("missing file accepted")
	}
}

func TestCSVFlags(t *testing.T) {
	var c csvFlags
	if err := c.Set("par=/tmp/x.csv"); err != nil {
		t.Fatal(err)
	}
	if len(c) != 1 || c[0].pred != "par" || c[0].path != "/tmp/x.csv" {
		t.Errorf("csvFlags = %+v", c)
	}
	for _, bad := range []string{"", "par", "=x", "par="} {
		if err := c.Set(bad); err == nil {
			t.Errorf("Set(%q) accepted", bad)
		}
	}
	if c.String() == "" {
		t.Error("String empty")
	}
}

func TestREPL(t *testing.T) {
	prog, err := parlog.Parse(`
anc(X, Y) :- par(X, Y).
anc(X, Y) :- par(X, Z), anc(Z, Y).
par(a, b). par(b, c).
`)
	if err != nil {
		t.Fatal(err)
	}
	// A bare "anc" parses as a zero-arity atom, which anc's arity 2 rejects;
	// "badquery" and the typo "ancc" name predicates the program never
	// mentions.
	in := strings.NewReader("anc(a, X)\nanc\nbadquery\nancc(a, X)\nanc(X, X).\n\n")
	var out strings.Builder
	repl(context.Background(), prog, nil, in, &out)
	got := out.String()
	for _, want := range []string{"anc(a, b).", "anc(a, c).", "% 2 answers", "has arity 2", "goal badquery: unknown predicate", "goal ancc: unknown predicate", "% 0 answers"} {
		if !strings.Contains(got, want) {
			t.Errorf("REPL output missing %q:\n%s", want, got)
		}
	}
	if n := strings.Count(got, "error:"); n != 3 {
		t.Errorf("REPL printed %d errors, want 3:\n%s", n, got)
	}
	if n := strings.Count(got, "answers"); n != 2 {
		t.Errorf("REPL answered %d queries, want 2:\n%s", n, got)
	}
}
