package parlog_test

import (
	"context"
	"errors"
	"fmt"
	"regexp"
	"strings"
	"testing"

	parlog "parlog"
)

// chainProgram returns Example 3's ancestor program over an n-node chain.
func chainProgram(t *testing.T, n int) *parlog.Program {
	t.Helper()
	var b strings.Builder
	b.WriteString("anc(X, Y) :- par(X, Y).\n")
	b.WriteString("anc(X, Y) :- par(X, Z), anc(Z, Y).\n")
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, "par(v%d, v%d).\n", i, i+1)
	}
	prog, err := parlog.Parse(b.String())
	if err != nil {
		t.Fatal(err)
	}
	return prog
}

func tupleSet(ts []parlog.Tuple) map[string]bool {
	out := map[string]bool{}
	for _, tup := range ts {
		out[tup.Key()] = true
	}
	return out
}

// TestQueryDemandMatchesNoDemand checks that the goal-directed evaluation
// returns exactly the answers of the undirected one, while materializing
// fewer derived tuples.
func TestQueryDemandMatchesNoDemand(t *testing.T) {
	ctx := context.Background()
	prog := chainProgram(t, 60)
	goal := "anc(v50, X)?"

	off, err := parlog.Query(ctx, prog, nil, goal, parlog.EvalOptions{NoDemand: true})
	if err != nil {
		t.Fatal(err)
	}
	on, err := parlog.Query(ctx, prog, nil, goal, parlog.EvalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	wantSet, gotSet := tupleSet(off.All()), tupleSet(on.All())
	if len(wantSet) != 10 {
		t.Fatalf("chain sanity: %d answers, want 10", len(wantSet))
	}
	if len(gotSet) != len(wantSet) {
		t.Fatalf("demand answers = %d, undirected = %d", len(gotSet), len(wantSet))
	}
	for k := range wantSet {
		if !gotSet[k] {
			t.Fatalf("demand evaluation missing %s", k)
		}
	}
	// Goal-directed runs must do less work: the undirected fixpoint derives
	// every anc pair of the chain, the demand-directed one only the suffix.
	if onNew, offNew := on.SeqStats.New, off.SeqStats.New; onNew*2 > offNew {
		t.Fatalf("demand derived %d tuples, undirected %d: want >=2x reduction", onNew, offNew)
	}
	if on.Plan == nil || on.Plan.Demand == nil {
		t.Fatal("demand query lost its PlanReport")
	}
	if on.Plan.Demand.Adornment != "bf" {
		t.Fatalf("adornment = %q", on.Plan.Demand.Adornment)
	}
}

// TestQueryStreaming checks the single-use iterator contract.
func TestQueryStreaming(t *testing.T) {
	prog := chainProgram(t, 5)
	qr, err := parlog.Query(context.Background(), prog, nil, "anc(v2, X)", parlog.EvalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var n int
	seen := map[string]bool{}
	for {
		tup, ok := qr.Next()
		if !ok {
			break
		}
		if len(tup) != 2 {
			t.Fatalf("answer arity = %d", len(tup))
		}
		if seen[tup.Key()] {
			t.Fatalf("duplicate answer %v", tup)
		}
		seen[tup.Key()] = true
		n++
	}
	if n != 3 {
		t.Fatalf("streamed %d answers, want 3 (v3, v4, v5)", n)
	}
	if _, ok := qr.Next(); ok {
		t.Fatal("exhausted stream yielded again")
	}
}

// TestQueryEDBGoal queries a base relation directly.
func TestQueryEDBGoal(t *testing.T) {
	prog := chainProgram(t, 4)
	qr, err := parlog.Query(context.Background(), prog, nil, "par(v1, X)?", parlog.EvalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if got := qr.All(); len(got) != 1 {
		t.Fatalf("EDB goal answers = %v", got)
	}
}

// TestQueryParallelEngine routes a goal through the shared-memory parallel
// engine.
func TestQueryParallelEngine(t *testing.T) {
	prog := chainProgram(t, 20)
	qr, err := parlog.Query(context.Background(), prog, nil, "anc(v15, X)", parlog.EvalOptions{
		Engine:  parlog.EngineParallel,
		Workers: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := len(qr.All()); got != 5 {
		t.Fatalf("parallel query answers = %d, want 5", got)
	}
	if qr.Plan == nil || qr.Plan.Demand == nil {
		t.Fatalf("parallel query plan report = %+v", qr.Plan)
	}
}

// TestQueryBadGoal covers the error paths.
func TestQueryBadGoal(t *testing.T) {
	prog := chainProgram(t, 3)
	for _, goal := range []string{"", "anc(X", "anc(v1)", "!anc(v1, X)"} {
		if _, err := parlog.Query(context.Background(), prog, nil, goal, parlog.EvalOptions{}); err == nil {
			t.Errorf("goal %q: want error", goal)
		}
	}
}

// TestQueryExplainGolden pins the Explain rendering for Example 3 — the text is part of the public API surface (cmd/datalog
// -explain prints it verbatim).
func TestQueryExplainGolden(t *testing.T) {
	prog := chainProgram(t, 10)
	qr, err := parlog.Query(context.Background(), prog, nil, "anc(v0, X)?", parlog.EvalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	got := qr.Explain()
	want := `demand: goal=anc(v0, X) adornment=bf rules=14 magic=2
rule anc@m@bf(B0) :- anc@seed@bf(B0).
  order: anc@seed@bf(B0)
rule anc@m@bf(Z) :- anc@m@bf(X), par(X, Z).
  order: anc@m@bf(X), par(X, Z)
rule anc@bf(X, Y) :- anc@m@bf(X), par(X, Y).
  order: anc@m@bf(X), par(X, Y)
rule anc@bf(X, Y) :- anc@m@bf(X), par(X, Z), anc@bf(Z, Y).
  order: anc@bf(Z, Y), par(X, Z), anc@m@bf(X)  (reordered)
`
	if got != want {
		t.Fatalf("Explain() drifted.\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
}

// TestQueryExplainAnalyzeGolden pins the full explain-analyze transcript
// for Example 3 with profiling on. The sequential
// engine is deterministic, so every counter — firings, probes, rows,
// matches, planned cardinalities — is exact; only the wall-time tokens are
// normalized. A drift here means the profiler's accounting changed.
func TestQueryExplainAnalyzeGolden(t *testing.T) {
	prog := chainProgram(t, 10)
	qr, err := parlog.Query(context.Background(), prog, nil, "anc(v0, X)?", parlog.EvalOptions{
		Profile: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if n := len(qr.All()); n != 10 {
		t.Fatalf("answers = %d, want 10", n)
	}
	got := regexp.MustCompile(`wall=\S+`).ReplaceAllString(qr.Explain(), "wall=<t>")
	want := `demand: goal=anc(v0, X) adornment=bf rules=14 magic=2
rule anc@m@bf(B0) :- anc@seed@bf(B0).
  order: anc@seed@bf(B0)
rule anc@m@bf(Z) :- anc@m@bf(X), par(X, Z).
  order: anc@m@bf(X), par(X, Z)
rule anc@bf(X, Y) :- anc@m@bf(X), par(X, Y).
  order: anc@m@bf(X), par(X, Y)
rule anc@bf(X, Y) :- anc@m@bf(X), par(X, Z), anc@bf(Z, Y).
  order: anc@bf(Z, Y), par(X, Z), anc@m@bf(X)  (reordered)
analyze: engine=seminaive wall=<t>
rule anc@m@bf(B0) :- anc@seed@bf(B0).
  firings=1 new=1 dup=0 iterations=1 wall=<t>
  atom 0 anc@seed@bf: probes=1 rows=1 matches=1 planned=1
rule anc@m@bf(Z) :- anc@m@bf(X), par(X, Z).
  firings=10 new=10 dup=0 iterations=11 wall=<t>
  atom 0 anc@m@bf: probes=11 rows=11 matches=11 planned=1
  atom 1 par: probes=11 rows=10 matches=10 planned=10
rule anc@bf(X, Y) :- anc@m@bf(X), par(X, Y).
  firings=10 new=10 dup=0 iterations=1 wall=<t>
  atom 0 anc@m@bf: probes=1 rows=11 matches=11 planned=11
  atom 1 par: probes=11 rows=10 matches=10 planned=10
rule anc@bf(X, Y) :- anc@m@bf(X), par(X, Z), anc@bf(Z, Y).
  firings=45 new=45 dup=0 iterations=10 wall=<t>
  atom 0 anc@m@bf: probes=45 rows=45 matches=45 planned=11
  atom 1 par: probes=55 rows=45 matches=45 planned=10
  atom 2 anc@bf: probes=10 rows=55 matches=55 planned=10
`
	if got != want {
		t.Fatalf("explain-analyze drifted.\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
}

// TestQueryResultMisuse pins the iterator's behavior under awkward but
// legal call sequences: Next past exhaustion, All after partial Next, a
// second iteration, and context cancellation mid-stream.
func TestQueryResultMisuse(t *testing.T) {
	ctx := context.Background()
	run := func(t *testing.T) *parlog.QueryResult {
		t.Helper()
		qr, err := parlog.Query(ctx, chainProgram(t, 12), nil, "anc(v0, X)", parlog.EvalOptions{})
		if err != nil {
			t.Fatal(err)
		}
		return qr
	}

	t.Run("next after exhaustion", func(t *testing.T) {
		qr := run(t)
		if n := len(qr.All()); n != 12 {
			t.Fatalf("answers = %d, want 12", n)
		}
		for i := 0; i < 3; i++ {
			if tup, ok := qr.Next(); ok || tup != nil {
				t.Fatalf("Next after exhaustion returned %v, %v", tup, ok)
			}
		}
		if qr.Err() != nil {
			t.Errorf("exhausted stream reports error %v", qr.Err())
		}
	})

	t.Run("all after partial next", func(t *testing.T) {
		qr := run(t)
		seen := map[string]bool{}
		for i := 0; i < 5; i++ {
			tup, ok := qr.Next()
			if !ok {
				t.Fatalf("stream dried up at %d", i)
			}
			seen[tup.Key()] = true
		}
		rest := qr.All()
		if len(seen)+len(rest) != 12 {
			t.Fatalf("5 via Next + %d via All != 12", len(rest))
		}
		for _, tup := range rest {
			if seen[tup.Key()] {
				t.Fatalf("All replayed %v already returned by Next", tup)
			}
		}
	})

	t.Run("double iteration", func(t *testing.T) {
		qr := run(t)
		if n := len(qr.All()); n != 12 {
			t.Fatalf("first All = %d", n)
		}
		if again := qr.All(); again != nil {
			t.Fatalf("second All returned %d answers, want nil", len(again))
		}
	})

	t.Run("cancellation mid-stream", func(t *testing.T) {
		cctx, cancel := context.WithCancel(context.Background())
		qr, err := parlog.Query(cctx, chainProgram(t, 12), nil, "anc(v0, X)", parlog.EvalOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := qr.Next(); !ok {
			t.Fatal("no first answer")
		}
		cancel()
		if tup, ok := qr.Next(); ok {
			t.Fatalf("Next after cancel returned %v", tup)
		}
		if !errors.Is(qr.Err(), context.Canceled) {
			t.Errorf("Err() = %v, want context.Canceled", qr.Err())
		}
		if rest := qr.All(); rest != nil {
			t.Errorf("All after cancel returned %d answers", len(rest))
		}
	})

	t.Run("snapshot query cancellation", func(t *testing.T) {
		cctx, cancel := context.WithCancel(context.Background())
		view, err := parlog.Open(ctx, chainProgram(t, 12), nil, parlog.EvalOptions{})
		if err != nil {
			t.Fatal(err)
		}
		defer view.Close()
		snap, err := view.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		qr, err := snap.Query(cctx, "anc(v0, X)")
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := qr.Next(); !ok {
			t.Fatal("no first answer")
		}
		cancel()
		if _, ok := qr.Next(); ok {
			t.Fatal("Next after cancel succeeded")
		}
		if !errors.Is(qr.Err(), context.Canceled) {
			t.Errorf("Err() = %v, want context.Canceled", qr.Err())
		}
	})
}
