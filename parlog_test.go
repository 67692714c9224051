package parlog

import (
	"context"
	"errors"
	"fmt"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"

	"parlog/internal/workload"
)

const ancestorSrc = `
anc(X, Y) :- par(X, Y).
anc(X, Y) :- par(X, Z), anc(Z, Y).
par(a, b). par(b, c). par(c, d).
`

func TestParseAndEval(t *testing.T) {
	p, err := Parse(ancestorSrc)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Eval(context.Background(), p, nil, EvalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	store, stats := res.Output, res.SeqStats
	if store["anc"].Len() != 6 {
		t.Errorf("|anc| = %d, want 6", store["anc"].Len())
	}
	if stats.Firings != 6 {
		t.Errorf("firings = %d, want 6", stats.Firings)
	}
	out := p.Format(store, "anc")
	if !strings.Contains(out, "anc(a, d).") {
		t.Errorf("Format output missing anc(a, d):\n%s", out)
	}
	if p.Format(store, "nosuch") != "" {
		t.Error("Format of a missing predicate should be empty")
	}
}

func TestParseError(t *testing.T) {
	if _, err := Parse("p("); err == nil {
		t.Error("bad source accepted")
	}
}

func TestMustParsePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustParse did not panic")
		}
	}()
	MustParse("p(")
}

func TestAddFacts(t *testing.T) {
	p := MustParse("anc(X, Y) :- par(X, Y).\nanc(X, Y) :- par(X, Z), anc(Z, Y).")
	if err := p.AddFacts("par(a, b). par(b, c)."); err != nil {
		t.Fatal(err)
	}
	res, err := Eval(context.Background(), p, nil, EvalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	store := res.Output
	if store["anc"].Len() != 3 {
		t.Errorf("|anc| = %d, want 3", store["anc"].Len())
	}
}

func TestProgramIntrospection(t *testing.T) {
	p := MustParse(ancestorSrc)
	if got := p.IDB(); len(got) != 1 || got[0] != "anc" {
		t.Errorf("IDB = %v", got)
	}
	if got := p.EDB(); len(got) != 1 || got[0] != "par" {
		t.Errorf("EDB = %v", got)
	}
	if !p.IsLinearSirup() {
		t.Error("ancestor not recognized as linear sirup")
	}
	nl := MustParse("anc(X, Y) :- par(X, Y).\nanc(X, Y) :- anc(X, Z), anc(Z, Y).")
	if nl.IsLinearSirup() {
		t.Error("nonlinear program recognized as linear sirup")
	}
}

func TestEvalNaiveOption(t *testing.T) {
	p := MustParse(ancestorSrc)
	r1, err := Eval(context.Background(), p, nil, EvalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Eval(context.Background(), p, nil, EvalOptions{Naive: true})
	if err != nil {
		t.Fatal(err)
	}
	s1, st1 := r1.Output, r1.SeqStats
	s2, st2 := r2.Output, r2.SeqStats
	if !s1["anc"].Equal(s2["anc"]) {
		t.Error("naive differs")
	}
	if st2.Firings < st1.Firings {
		t.Error("naive fired less than semi-naive")
	}
}

func TestEvalParallelStrategies(t *testing.T) {
	edb := Store{"par": workload.RandomGraph(12, 26, 3)}
	seqP := MustParse(`
anc(X, Y) :- par(X, Y).
anc(X, Y) :- par(X, Z), anc(Z, Y).
`)
	wantRes, err := Eval(context.Background(), seqP, edb, EvalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	want := wantRes.Output
	for _, tc := range []struct {
		name string
		opts EvalOptions
	}{
		{"auto", EvalOptions{Workers: 4}},
		{"hash-Y", EvalOptions{Workers: 4, Strategy: StrategyHashPartition, VR: []string{"Y"}, VE: []string{"Y"}}},
		{"hash-Z", EvalOptions{Workers: 3, Strategy: StrategyHashPartition, VR: []string{"Z"}, VE: []string{"X"}}},
		{"nocomm", EvalOptions{Workers: 4, Strategy: StrategyNoComm}},
		{"tradeoff-0", EvalOptions{Workers: 3, Strategy: StrategyTradeoff, Locality: 0}},
		{"tradeoff-half", EvalOptions{Workers: 3, Strategy: StrategyTradeoff, Locality: 0.5}},
		{"tradeoff-1", EvalOptions{Workers: 3, Strategy: StrategyTradeoff, Locality: 1}},
		{"general", EvalOptions{Workers: 4, Strategy: StrategyGeneral}},
		{"two-workers", EvalOptions{Workers: 2}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p := MustParse(`
anc(X, Y) :- par(X, Y).
anc(X, Y) :- par(X, Z), anc(Z, Y).
`)
			res, err := EvalParallel(context.Background(), p, edb, tc.opts)
			if err != nil {
				t.Fatal(err)
			}
			if !want["anc"].Equal(res.Output["anc"]) {
				t.Error("parallel result differs from sequential")
			}
		})
	}
}

func TestEvalParallelAutoUsesTheorem3(t *testing.T) {
	// The ancestor dataflow graph has a cycle, so Auto must pick a
	// communication-free scheme.
	p := MustParse(ancestorSrc)
	if err := p.AddFacts(chainFactsSrc(40)); err != nil {
		t.Fatal(err)
	}
	res, err := EvalParallel(context.Background(), p, nil, EvalOptions{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Stats.TotalTuplesSent(); got != 0 {
		t.Errorf("Auto strategy sent %d tuples on a cyclic-dataflow sirup, want 0", got)
	}
}

func chainFactsSrc(n int) string {
	var b strings.Builder
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, "par(w%d, w%d).\n", i, i+1)
	}
	return b.String()
}

func TestEvalParallelNonlinearAuto(t *testing.T) {
	p := MustParse(`
anc(X, Y) :- par(X, Y).
anc(X, Y) :- anc(X, Z), anc(Z, Y).
`)
	edb := Store{"par": workload.Chain(12)}
	res, err := EvalParallel(context.Background(), p, edb, EvalOptions{Workers: 3})
	if err != nil {
		t.Fatal(err)
	}
	if res.Output["anc"].Len() != 12*13/2 {
		t.Errorf("|anc| = %d, want %d", res.Output["anc"].Len(), 12*13/2)
	}
}

func TestEvalParallelSirupStrategiesRejectNonSirup(t *testing.T) {
	p := MustParse(`
anc(X, Y) :- par(X, Y).
anc(X, Y) :- anc(X, Z), anc(Z, Y).
`)
	for _, s := range []Strategy{StrategyHashPartition, StrategyNoComm, StrategyTradeoff} {
		if _, err := EvalParallel(context.Background(), p, Store{"par": workload.Chain(3)}, EvalOptions{Workers: 2, Strategy: s}); err == nil {
			t.Errorf("strategy %d accepted a non-sirup program", s)
		}
	}
}

func TestEvalParallelLocalityValidation(t *testing.T) {
	p := MustParse(ancestorSrc)
	if _, err := EvalParallel(context.Background(), p, nil, EvalOptions{Workers: 2, Strategy: StrategyTradeoff, Locality: 1.5}); err == nil {
		t.Error("Locality 1.5 accepted")
	}
}

func TestDataflowFacade(t *testing.T) {
	p := MustParse(ancestorSrc)
	df, err := p.Dataflow()
	if err != nil {
		t.Fatal(err)
	}
	if df != "2 → 2" {
		t.Errorf("Dataflow = %q, want \"2 → 2\"", df)
	}
	cyc, err := p.DataflowHasCycle()
	if err != nil || !cyc {
		t.Errorf("DataflowHasCycle = %v, %v", cyc, err)
	}

	fig1 := MustParse(`
p(U, V, W) :- s(U, V, W).
p(U, V, W) :- p(V, W, Z), q(U, Z).
`)
	df, err = fig1.Dataflow()
	if err != nil {
		t.Fatal(err)
	}
	if df != "1 → 2 → 3" {
		t.Errorf("Dataflow = %q", df)
	}
}

func TestDeriveNetworkFacade(t *testing.T) {
	p := MustParse(`
p(X, Y) :- q(X, Y).
p(X, Y) :- p(Y, Z), r(X, Z).
`)
	g, err := DeriveNetwork(p, []string{"Y", "Z"}, []string{"X", "Y"},
		BitVectorHash(2), BitVectorHash(2), []int{0, 1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	if g.HasEdge(0, 1) {
		t.Error("Example 6: (00)→(01) must be absent")
	}
	if !g.HasEdge(0, 2) {
		t.Error("Example 6: (00)→(10) must be present")
	}
	if len(g.CrossEdges()) != 6 {
		t.Errorf("cross edges = %d, want 6", len(g.CrossEdges()))
	}
}

func TestLinearHashFacade(t *testing.T) {
	f := LinearHash(1, -1, 1)
	if f([]int{1, 0, 1}) != 2 || f([]int{0, 1, 0}) != -1 {
		t.Error("LinearHash wrong")
	}
}

func TestInternAndConstName(t *testing.T) {
	p := MustParse("q(a).")
	v := p.Intern("zzz")
	if p.ConstName(v) != "zzz" {
		t.Error("Intern/ConstName round trip failed")
	}
}

func TestEvalDistributed(t *testing.T) {
	edb := Store{"par": workload.RandomGraph(12, 26, 9)}
	p := MustParse(`
anc(X, Y) :- par(X, Y).
anc(X, Y) :- par(X, Z), anc(Z, Y).
`)
	wantRes, err := Eval(context.Background(), p, edb, EvalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	want := wantRes.Output
	res, err := EvalDistributed(context.Background(), p, edb, EvalOptions{
		Workers:  3,
		Strategy: StrategyHashPartition,
		VR:       []string{"Z"}, VE: []string{"X"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !want["anc"].Equal(res.Output["anc"]) {
		t.Error("EvalDistributed differs from sequential")
	}
	if len(res.Stats.Procs) != 3 {
		t.Errorf("stats for %d procs", len(res.Stats.Procs))
	}
	// Topology restriction is not supported over TCP.
	if _, err := EvalDistributed(context.Background(), p, edb, EvalOptions{
		Workers: 2, Topology: NewTopology(nil),
	}); err == nil {
		t.Error("topology restriction accepted on the TCP transport")
	}

	// Finer partition than the worker count, with the rebalancer armed:
	// 4 buckets on 2 workers must still reach the sequential model, and
	// stats stay per bucket.
	res, err = EvalDistributed(context.Background(), p, edb, EvalOptions{
		Workers: 2, Buckets: 4,
		Strategy: StrategyHashPartition,
		VR:       []string{"Z"}, VE: []string{"X"},
		Rebalance: RebalanceOptions{Enabled: true, Interval: time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !want["anc"].Equal(res.Output["anc"]) {
		t.Error("EvalDistributed with Buckets>Workers differs from sequential")
	}
	if len(res.Stats.Procs) != 4 {
		t.Errorf("stats for %d buckets, want 4", len(res.Stats.Procs))
	}
	if _, err := EvalDistributed(context.Background(), p, edb, EvalOptions{
		Workers: 4, Buckets: 2,
	}); err == nil {
		t.Error("Buckets < Workers accepted")
	}
}

// TestEdgeStatsAgreeAcrossRuntimes checks that both worker runtimes report
// per-edge traffic from the same node counters: on Example 3 the tuples
// each channel carries are fixed by the scheme (a tuple's generator and
// destination do not depend on the schedule), so the goroutine and TCP
// runtimes must agree per edge, and both must count messages.
func TestEdgeStatsAgreeAcrossRuntimes(t *testing.T) {
	edb := Store{"par": workload.RandomGraph(12, 26, 9)}
	p := MustParse(`
anc(X, Y) :- par(X, Y).
anc(X, Y) :- par(X, Z), anc(Z, Y).
`)
	opts := EvalOptions{Workers: 2, Strategy: StrategyHashPartition, VR: []string{"Z"}, VE: []string{"X"}}
	par, err := EvalParallel(context.Background(), p, edb, opts)
	if err != nil {
		t.Fatal(err)
	}
	dist, err := EvalDistributed(context.Background(), p, edb, opts)
	if err != nil {
		t.Fatal(err)
	}
	for name, st := range map[string]*ParallelStats{"parallel": par.Stats, "dist": dist.Stats} {
		if st.TotalMessages() == 0 {
			t.Errorf("%s: no messages reported", name)
		}
		var tuples int64
		for _, es := range st.Edges {
			tuples += es.Tuples
		}
		if tuples != st.TotalTuplesSent() {
			t.Errorf("%s: edges carry %d tuples, processors sent %d", name, tuples, st.TotalTuplesSent())
		}
	}
	if len(par.Stats.Edges) != len(dist.Stats.Edges) {
		t.Errorf("parallel reports %d edges, dist %d", len(par.Stats.Edges), len(dist.Stats.Edges))
	}
	for e, es := range par.Stats.Edges {
		if d := dist.Stats.Edges[e]; d == nil || d.Tuples != es.Tuples {
			t.Errorf("edge %v: parallel carried %d tuples, dist %v", e, es.Tuples, d)
		}
	}
	if !reflect.DeepEqual(par.Stats.Placements, dist.Stats.Placements) {
		t.Errorf("placements differ: parallel %v, dist %v", par.Stats.Placements, dist.Stats.Placements)
	}
}

func TestSnapshotQuery(t *testing.T) {
	ctx := context.Background()
	p := MustParse(ancestorSrc)
	view, err := Open(ctx, p, nil, EvalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer view.Close()
	snap, err := view.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	ask := func(goal string) []Tuple {
		t.Helper()
		qr, err := snap.Query(ctx, goal)
		if err != nil {
			t.Fatal(err)
		}
		return qr.All()
	}
	// Descendants of a.
	if got := ask("anc(a, X)"); len(got) != 3 {
		t.Errorf("anc(a, X) matched %d tuples, want 3", len(got))
	}
	// Specific ground query.
	if got := ask("anc(a, d)"); len(got) != 1 {
		t.Errorf("anc(a, d) matched %d", len(got))
	}
	// Repeated variables: anc(X, X) is empty on a chain.
	if got := ask("anc(X, X)"); len(got) != 0 {
		t.Errorf("anc(X, X) matched %d", len(got))
	}
	// Unknown constant matches nothing, without error.
	if got := ask("anc(nobody, X)"); len(got) != 0 {
		t.Errorf("unknown constant matched %d", len(got))
	}
	// Errors.
	if _, err := snap.Query(ctx, "nosuch(X)"); !errors.Is(err, ErrUnknownPredicate) {
		t.Errorf("a predicate the program never mentions: err %v, want ErrUnknownPredicate", err)
	}
	if _, err := snap.Query(ctx, "anc(a"); err == nil {
		t.Error("malformed query accepted")
	}
	if _, err := snap.Query(ctx, "anc(X)"); err == nil {
		t.Error("wrong arity accepted")
	}
	if _, err := snap.Query(ctx, "anc(X, Y), anc(Y, Z)"); err == nil {
		t.Error("conjunctive query accepted as single atom")
	}
}

func TestLoadWriteCSV(t *testing.T) {
	p := MustParse(`
anc(X, Y) :- par(X, Y).
anc(X, Y) :- par(X, Z), anc(Z, Y).
`)
	edb := Store{}
	n, err := p.LoadCSV(edb, "par", strings.NewReader("a,b\nb,c\nb,c\n"))
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Errorf("loaded %d distinct tuples, want 2", n)
	}
	res, err := Eval(context.Background(), p, edb, EvalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	store := res.Output
	var out strings.Builder
	wrote, err := p.WriteCSV(store, "anc", &out)
	if err != nil {
		t.Fatal(err)
	}
	if wrote != 3 {
		t.Errorf("wrote %d records, want 3", wrote)
	}
	if out.String() != "a,b\na,c\nb,c\n" {
		t.Errorf("CSV = %q", out.String())
	}
	// Errors: ragged record, arity conflict with the program, unknown pred.
	if _, err := p.LoadCSV(Store{}, "par", strings.NewReader("a,b\nc\n")); err == nil {
		t.Error("ragged CSV accepted")
	}
	if _, err := p.LoadCSV(Store{}, "par", strings.NewReader("a,b,c\n")); err == nil {
		t.Error("arity conflict with program accepted")
	}
	if _, err := p.WriteCSV(store, "nosuch", &out); err == nil {
		t.Error("unknown predicate accepted by WriteCSV")
	}
}

func TestLoadCSVFile(t *testing.T) {
	p := MustParse("edge(X, Y) :- raw(X, Y).")
	dir := t.TempDir()
	path := dir + "/raw.csv"
	if err := osWriteFile(path, "x,y\ny,z\n"); err != nil {
		t.Fatal(err)
	}
	edb := Store{}
	n, err := p.LoadCSVFile(edb, "raw", path)
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Errorf("loaded %d", n)
	}
	if _, err := p.LoadCSVFile(edb, "raw", dir+"/missing.csv"); err == nil {
		t.Error("missing file accepted")
	}
}

func osWriteFile(path, content string) error {
	return os.WriteFile(path, []byte(content), 0o644)
}

func TestCommFreeChoiceFacade(t *testing.T) {
	p := MustParse(`
anc(X, Y) :- par(X, Y).
anc(X, Y) :- par(X, Z), anc(Z, Y).
`)
	vr, ve, hname, err := p.CommFreeChoice(4)
	if err != nil {
		t.Fatal(err)
	}
	if len(vr) != 1 || vr[0] != "Y" || len(ve) != 1 || ve[0] != "Y" {
		t.Errorf("choice = %v / %v", vr, ve)
	}
	if hname == "" {
		t.Error("empty hash name")
	}
	// Acyclic dataflow: no choice exists.
	acyclic := MustParse(`
p(U, V, W) :- s(U, V, W).
p(U, V, W) :- p(V, W, Z), q(U, Z).
`)
	if _, _, _, err := acyclic.CommFreeChoice(2); err == nil {
		t.Error("acyclic program got a comm-free choice")
	}
}

func TestRewriteListings(t *testing.T) {
	p := MustParse(`
anc(X, Y) :- par(X, Y).
anc(X, Y) :- par(X, Z), anc(Z, Y).
`)
	for _, tc := range []struct {
		name string
		opts EvalOptions
		want string // substring expected in processor 0's listing
	}{
		{"auto-theorem3", EvalOptions{Workers: 2}, "hsym2(Y) = 0"},
		{"hash", EvalOptions{Workers: 2, Strategy: StrategyHashPartition, VR: []string{"Z"}, VE: []string{"X"}}, "anc@ch@0@1(Z, Y)"},
		{"nocomm", EvalOptions{Workers: 2, Strategy: StrategyNoComm}, "par(X, Z), anc@out@0(Z, Y)"},
		{"tradeoff", EvalOptions{Workers: 2, Strategy: StrategyTradeoff, Locality: 0.5, VR: []string{"Z"}, VE: []string{"X"}}, "hmix500@0"},
	} {
		listings, err := RewriteListings(p, tc.opts)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if len(listings) != 2 {
			t.Fatalf("%s: %d listings", tc.name, len(listings))
		}
		if !strings.Contains(listings[0], tc.want) {
			t.Errorf("%s: listing missing %q:\n%s", tc.name, tc.want, listings[0])
		}
	}
	// General scheme on a non-sirup.
	nl := MustParse(`
anc(X, Y) :- par(X, Y).
anc(X, Y) :- anc(X, Z), anc(Z, Y).
`)
	listings, err := RewriteListings(nl, EvalOptions{Workers: 2, Strategy: StrategyGeneral})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(listings[0], "anc@in@0(X, Z), anc@in@0(Z, Y)") {
		t.Errorf("general listing wrong:\n%s", listings[0])
	}
	// Sirup strategies reject non-sirups.
	if _, err := RewriteListings(nl, EvalOptions{Strategy: StrategyNoComm}); err == nil {
		t.Error("NoComm listing accepted a non-sirup")
	}
}

// TestEngineDispatch: Eval with an explicit Engine is exactly the matching
// wrapper — one dispatcher behind all three front doors.
func TestEngineDispatch(t *testing.T) {
	p := MustParse(ancestorSrc)
	seq, err := Eval(context.Background(), p, nil, EvalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	par, err := Eval(context.Background(), p, nil, EvalOptions{Engine: EngineParallel, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !seq.Output["anc"].Equal(par.Output["anc"]) {
		t.Error("EngineParallel via Eval differs from the sequential least model")
	}
	if par.Stats == nil || seq.Stats != nil {
		t.Error("engine-specific stats landed on the wrong result fields")
	}
	if _, err := Eval(context.Background(), p, nil, EvalOptions{Engine: Engine(99)}); err == nil {
		t.Error("unknown engine accepted")
	}
}

// TestSentinelErrors: failures expose errors.Is-able sentinels.
func TestSentinelErrors(t *testing.T) {
	nonlinear := MustParse(`
anc(X, Y) :- par(X, Y).
anc(X, Y) :- anc(X, Z), anc(Z, Y).
par(a, b).
`)
	_, err := EvalParallel(context.Background(), nonlinear, nil, EvalOptions{Strategy: StrategyHashPartition})
	if !errors.Is(err, ErrNotLinearSirup) {
		t.Errorf("StrategyHashPartition on a non-sirup: err = %v, want errors.Is ErrNotLinearSirup", err)
	}
	if nonlinear.IsLinearSirup() {
		t.Error("nonlinear program classified as a sirup")
	}
}
