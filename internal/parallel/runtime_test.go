package parallel

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"parlog/internal/analysis"
	"parlog/internal/ast"
	"parlog/internal/hashpart"
	"parlog/internal/parser"
	"parlog/internal/relation"
	"parlog/internal/rewrite"
	"parlog/internal/seminaive"
)

const ancestorRules = `
anc(X, Y) :- par(X, Y).
anc(X, Y) :- par(X, Z), anc(Z, Y).
`

func randomParFacts(nodes, edges int, seed int64) string {
	rng := rand.New(rand.NewSource(seed))
	var b strings.Builder
	seen := map[[2]int]bool{}
	for len(seen) < edges {
		e := [2]int{rng.Intn(nodes), rng.Intn(nodes)}
		if seen[e] {
			continue
		}
		seen[e] = true
		fmt.Fprintf(&b, "par(v%d, v%d).\n", e[0], e[1])
	}
	return b.String()
}

func chainFacts(n int) string {
	var b strings.Builder
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, "par(v%d, v%d).\n", i, i+1)
	}
	return b.String()
}

func mustSirup(t *testing.T, prog *ast.Program) *analysis.Sirup {
	t.Helper()
	s, err := analysis.ExtractSirup(prog)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func seqEval(t *testing.T, prog *ast.Program) (relation.Store, *seminaive.Stats) {
	t.Helper()
	store, stats, err := seminaive.Eval(prog, relation.Store{}, seminaive.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return store, stats
}

// --- Example 1: v(r)=v(e)=⟨Y⟩, zero communication, replicated par ---

func TestRunExample1(t *testing.T) {
	src := ancestorRules + randomParFacts(12, 24, 1)
	prog := parser.MustParse(src)
	seq, seqStats := seqEval(t, prog)

	const N = 4
	s := mustSirup(t, prog)
	p, err := BuildQ(s, rewrite.SirupSpec{
		Procs: hashpart.RangeProcs(N),
		VR:    []string{"Y"}, VE: []string{"Y"},
		H: hashpart.ModHash{N: N},
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(p, relation.Store{}, RunConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if !seq["anc"].Equal(res.Output["anc"]) {
		t.Fatalf("Example 1 result differs:\nseq %v\npar %v", seq["anc"], res.Output["anc"])
	}
	// Zero inter-processor communication.
	if got := res.Stats.TotalTuplesSent(); got != 0 {
		t.Errorf("Example 1 sent %d tuples, want 0", got)
	}
	// Non-redundancy with equality (Theorem 2).
	if got, want := res.Stats.TotalFirings(), seqStats.Firings; got != want {
		t.Errorf("firings = %d, sequential = %d", got, want)
	}
	// par must be fully replicated: v(r)=⟨Y⟩ does not occur in par(X,Z).
	pl := res.Stats.Placements["par"]
	for i, n := range pl.TuplesPerProc {
		if n != seq["par"].Len() {
			t.Errorf("proc %d holds %d par tuples, want full copy %d", i, n, seq["par"].Len())
		}
	}
	if pl.Partitioned {
		t.Error("Example 1 placement misreported as partitioned")
	}
}

// --- Example 3: v(e)=⟨X⟩, v(r)=⟨Z⟩, point-to-point, partitioned par ---

func TestRunExample3(t *testing.T) {
	src := ancestorRules + randomParFacts(14, 30, 2)
	prog := parser.MustParse(src)
	seq, seqStats := seqEval(t, prog)

	const N = 4
	s := mustSirup(t, prog)
	p, err := BuildQ(s, rewrite.SirupSpec{
		Procs: hashpart.RangeProcs(N),
		VR:    []string{"Z"}, VE: []string{"X"},
		H: hashpart.ModHash{N: N},
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(p, relation.Store{}, RunConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if !seq["anc"].Equal(res.Output["anc"]) {
		t.Fatal("Example 3 result differs from sequential")
	}
	if got, want := res.Stats.TotalFirings(), seqStats.Firings; got != want {
		t.Errorf("firings = %d, sequential = %d (non-redundancy)", got, want)
	}
	// The recursive rule's par fragments are disjoint: total stored equals
	// |par| for the recursive occurrence… but the exit rule uses v(e)=⟨X⟩ on
	// par(X,Y) which fragments too; the union per processor stays well below
	// full replication on any nontrivial hash.
	pl := res.Stats.Placements["par"]
	total := 0
	for _, n := range pl.TuplesPerProc {
		total += n
	}
	if total >= N*seq["par"].Len() {
		t.Errorf("Example 3 stores %d par tuples across procs — looks replicated", total)
	}
	// Point-to-point routing: each generated tuple goes to at most ONE
	// processor (Example 3, property 1), so traffic is bounded by the number
	// of per-site generations — contrast with Example 2's broadcast, which
	// costs N−1 sends per generation.
	var generated int64
	for _, ps := range res.Stats.Procs {
		generated += ps.Generated
	}
	if got := res.Stats.TotalTuplesSent(); got > generated {
		t.Errorf("Example 3 sent %d tuples for %d generations — not point-to-point", got, generated)
	}
}

// --- Example 2: arbitrary fragmentation, broadcast ---

func TestRunExample2(t *testing.T) {
	src := ancestorRules + randomParFacts(10, 20, 3)
	prog := parser.MustParse(src)
	seq, seqStats := seqEval(t, prog)

	const N = 3
	s := mustSirup(t, prog)
	_, facts := prog.FactTuples()
	frags := map[int]*relation.Relation{}
	for i := 0; i < N; i++ {
		frags[i] = relation.New(2)
	}
	for k, tuple := range facts["par"] {
		frags[k%N].Insert(tuple)
	}
	h, err := hashpart.NewFragmentation(frags, hashpart.ModHash{N: N})
	if err != nil {
		t.Fatal(err)
	}
	p, err := BuildQ(s, rewrite.SirupSpec{
		Procs: hashpart.RangeProcs(N),
		VR:    []string{"X", "Z"}, VE: []string{"X", "Y"},
		H: h,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(p, relation.Store{}, RunConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if !seq["anc"].Equal(res.Output["anc"]) {
		t.Fatal("Example 2 result differs from sequential")
	}
	if got, want := res.Stats.TotalFirings(), seqStats.Firings; got != want {
		t.Errorf("firings = %d, sequential = %d (extra communication must not cause redundancy)", got, want)
	}
	// The fragmentation-induced h partitions par: each processor holds
	// exactly its fragment (v(r)=⟨X,Z⟩ covers both columns of par(X,Z), and
	// v(e)=⟨X,Y⟩ covers par(X,Y)).
	pl := res.Stats.Placements["par"]
	for i, n := range pl.TuplesPerProc {
		if n != frags[i].Len() {
			t.Errorf("proc %d holds %d par tuples, want its fragment %d", i, n, frags[i].Len())
		}
	}
	// Broadcast: communication happens unless the closure is tiny.
	if seq["anc"].Len() > N && res.Stats.TotalTuplesSent() == 0 {
		t.Error("Example 2 should communicate (broadcast routing)")
	}
}

// --- NoComm scheme ---

// namedFunc lets tests pin exact processor assignments.
type namedFunc struct {
	name string
	fn   func([]ast.Value) int
}

func (f namedFunc) Name() string            { return f.name }
func (f namedFunc) Apply(v []ast.Value) int { return f.fn(v) }

// TestRunNoComm uses a diamond: x→w, w→a, w→b, a→c, b→c plus a tail. With
// h'(a)=0 and h'(b)=1, anc(w,c) is derived at both processors 0 and 1, so
// the firing par(x,w), anc(w,c) duplicates — the redundancy the paper
// ascribes to the communication-free scheme.
func TestRunNoComm(t *testing.T) {
	src := ancestorRules + `
par(x, w). par(w, a). par(w, b). par(a, c). par(b, c).
`
	prog := parser.MustParse(src)
	seq, seqStats := seqEval(t, prog)

	const N = 2
	va, _ := prog.Interner.Lookup("a")
	hp := namedFunc{name: "hpin", fn: func(v []ast.Value) int {
		if v[0] == va {
			return 0
		}
		return 1
	}}

	s := mustSirup(t, prog)
	p, err := BuildNoComm(s, rewrite.NoCommSpec{
		Procs: hashpart.RangeProcs(N),
		VE:    []string{"X"},
		HP:    hp,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(p, relation.Store{}, RunConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if !seq["anc"].Equal(res.Output["anc"]) {
		t.Fatal("NoComm result differs from sequential")
	}
	if got := res.Stats.TotalTuplesSent(); got != 0 {
		t.Errorf("NoComm sent %d tuples", got)
	}
	// Redundancy: anc(w,c) lives at both processors, so the derivation of
	// anc(x,c) through it fires twice.
	if got, want := res.Stats.TotalFirings(), seqStats.Firings; got <= want {
		t.Errorf("NoComm firings = %d, expected > sequential %d on the diamond", got, want)
	}
	// Base relation fully replicated.
	pl := res.Stats.Placements["par"]
	for i, n := range pl.TuplesPerProc {
		if n != seq["par"].Len() {
			t.Errorf("proc %d holds %d par tuples, want %d", i, n, seq["par"].Len())
		}
	}
}

// --- R trade-off scheme ---

func TestRunRTradeoffSpectrum(t *testing.T) {
	src := ancestorRules + randomParFacts(12, 26, 4)
	prog := parser.MustParse(src)
	seq, seqStats := seqEval(t, prog)
	const N = 3
	shared := hashpart.ModHash{N: N}

	type point struct {
		keep    int
		sent    int64
		firings int64
	}
	var curve []point
	for _, keep := range []int{0, 300, 600, 1000} {
		prog := parser.MustParse(src)
		s := mustSirup(t, prog)
		k := keep
		p, err := BuildR(s, rewrite.RSpec{
			Procs: hashpart.RangeProcs(N),
			VR:    []string{"Z"}, VE: []string{"X"},
			HP: hashpart.ModHash{N: N},
			HI: func(i int) hashpart.Func {
				return hashpart.Mix{Local: i, Shared: shared, KeepPermille: k}
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		res, err := Run(p, relation.Store{}, RunConfig{})
		if err != nil {
			t.Fatal(err)
		}
		if !seq["anc"].Equal(res.Output["anc"]) {
			t.Fatalf("keep=%d: result differs from sequential (Theorem 4)", keep)
		}
		if res.Stats.TotalFirings() < seqStats.Firings {
			t.Errorf("keep=%d: fewer firings than sequential", keep)
		}
		curve = append(curve, point{keep, res.Stats.TotalTuplesSent(), res.Stats.TotalFirings()})
	}
	// Extremes: keep=0 behaves like Q — non-redundant relative to the
	// sequential count; keep=1000 like NoComm — no communication.
	if curve[0].firings != seqStats.Firings {
		t.Errorf("keep=0 (≡ Q) fired %d, sequential %d", curve[0].firings, seqStats.Firings)
	}
	if last := curve[len(curve)-1]; last.sent != 0 {
		t.Errorf("keep=1000 (≡ NoComm) sent %d tuples", last.sent)
	}
	// Communication decreases along the sweep.
	if !(curve[0].sent >= curve[len(curve)-1].sent) {
		t.Errorf("communication did not decrease across the sweep: %+v", curve)
	}
}

// --- General scheme ---

func TestRunGeneralNonlinear(t *testing.T) {
	src := `
anc(X, Y) :- par(X, Y).
anc(X, Y) :- anc(X, Z), anc(Z, Y).
` + randomParFacts(10, 20, 5)
	prog := parser.MustParse(src)
	seq, seqStats := seqEval(t, prog)

	const N = 4
	h := hashpart.ModHash{N: N}
	p, err := BuildGeneral(prog, rewrite.GeneralSpec{
		Procs: hashpart.RangeProcs(N),
		Rules: []rewrite.RuleSpec{
			{Seq: []string{"Y"}, H: h},
			{Seq: []string{"Z"}, H: h},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(p, relation.Store{}, RunConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if !seq["anc"].Equal(res.Output["anc"]) {
		t.Fatal("general scheme (Example 8) differs from sequential")
	}
	// Theorem 6: no more firings than sequential.
	if got, want := res.Stats.TotalFirings(), seqStats.Firings; got > want {
		t.Errorf("Theorem 6 violated: %d > %d", got, want)
	}
}

func TestRunGeneralMutualRecursion(t *testing.T) {
	var b strings.Builder
	b.WriteString(`
even(X) :- zero(X).
even(Y) :- succ(X, Y), odd(X).
odd(Y) :- succ(X, Y), even(X).
zero(n0).
`)
	for i := 0; i < 14; i++ {
		fmt.Fprintf(&b, "succ(n%d, n%d).\n", i, i+1)
	}
	prog := parser.MustParse(b.String())
	seq, _ := seqEval(t, prog)

	h := hashpart.ModHash{N: 3}
	p, err := BuildGeneral(prog, rewrite.GeneralSpec{
		Procs: hashpart.RangeProcs(3),
		Rules: []rewrite.RuleSpec{
			{Seq: []string{"X"}, H: h},
			{Seq: []string{"Y"}, H: h},
			{Seq: []string{"Y"}, H: h},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(p, relation.Store{}, RunConfig{})
	if err != nil {
		t.Fatal(err)
	}
	for _, pred := range []string{"even", "odd"} {
		if !seq[pred].Equal(res.Output[pred]) {
			t.Errorf("%s differs from sequential", pred)
		}
	}
}

// --- Topology restriction ---

func TestRunRestrictedTopologySufficient(t *testing.T) {
	// Example 1 needs no inter-processor edges at all: an empty topology must
	// work.
	src := ancestorRules + randomParFacts(10, 18, 7)
	prog := parser.MustParse(src)
	seq, _ := seqEval(t, prog)
	s := mustSirup(t, prog)
	p, err := BuildQ(s, rewrite.SirupSpec{
		Procs: hashpart.RangeProcs(3),
		VR:    []string{"Y"}, VE: []string{"Y"},
		H: hashpart.ModHash{N: 3},
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(p, relation.Store{}, RunConfig{Topology: NewTopology(nil)})
	if err != nil {
		t.Fatal(err)
	}
	if !seq["anc"].Equal(res.Output["anc"]) {
		t.Error("restricted (empty) topology broke Example 1")
	}
}

func TestRunRestrictedTopologyInsufficient(t *testing.T) {
	// Example 3 with 2 processors needs cross edges; forbidding them must
	// surface as an error with a nonzero ForbiddenSends count.
	src := ancestorRules + chainFacts(10)
	prog := parser.MustParse(src)
	s := mustSirup(t, prog)
	p, err := BuildQ(s, rewrite.SirupSpec{
		Procs: hashpart.RangeProcs(2),
		VR:    []string{"Z"}, VE: []string{"X"},
		H: hashpart.ModHash{N: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(p, relation.Store{}, RunConfig{Topology: NewTopology(nil)})
	if err == nil {
		t.Fatal("insufficient topology did not error")
	}
	if res.Stats.ForbiddenSends == 0 {
		t.Error("ForbiddenSends = 0 despite suppressed sends")
	}
}

// --- misc ---

func TestRunSingleProcessor(t *testing.T) {
	src := ancestorRules + chainFacts(8)
	prog := parser.MustParse(src)
	seq, seqStats := seqEval(t, prog)
	s := mustSirup(t, prog)
	p, err := BuildQ(s, rewrite.SirupSpec{
		Procs: hashpart.RangeProcs(1),
		VR:    []string{"Z"}, VE: []string{"X"},
		H: hashpart.ModHash{N: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(p, relation.Store{}, RunConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if !seq["anc"].Equal(res.Output["anc"]) {
		t.Error("N=1 differs from sequential")
	}
	if got, want := res.Stats.TotalFirings(), seqStats.Firings; got != want {
		t.Errorf("N=1 firings = %d, want %d", got, want)
	}
}

func TestRunEmptyEDB(t *testing.T) {
	prog := parser.MustParse(ancestorRules)
	s := mustSirup(t, prog)
	p, err := BuildQ(s, rewrite.SirupSpec{
		Procs: hashpart.RangeProcs(3),
		VR:    []string{"Z"}, VE: []string{"X"},
		H: hashpart.ModHash{N: 3},
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(p, relation.Store{}, RunConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Output["anc"].Len() != 0 {
		t.Errorf("empty EDB derived %d tuples", res.Output["anc"].Len())
	}
}

func TestRunEDBFromStore(t *testing.T) {
	prog := parser.MustParse(ancestorRules)
	a := prog.Interner.Intern("a")
	b := prog.Interner.Intern("b")
	c := prog.Interner.Intern("c")
	edb := relation.Store{}
	edb.InsertAll("par", [][]ast.Value{{a, b}, {b, c}})
	s := mustSirup(t, prog)
	p, err := BuildQ(s, rewrite.SirupSpec{
		Procs: hashpart.RangeProcs(2),
		VR:    []string{"Z"}, VE: []string{"X"},
		H: hashpart.ModHash{N: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(p, edb, RunConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Output["anc"].Len() != 3 {
		t.Errorf("|anc| = %d, want 3", res.Output["anc"].Len())
	}
	if _, ok := edb["anc"]; ok {
		t.Error("Run mutated the caller's EDB store")
	}
}

func TestRunRejectsIDBInput(t *testing.T) {
	prog := parser.MustParse(ancestorRules)
	a := prog.Interner.Intern("a")
	edb := relation.Store{}
	edb.InsertAll("anc", [][]ast.Value{{a, a}})
	s := mustSirup(t, prog)
	p, err := BuildQ(s, rewrite.SirupSpec{
		Procs: hashpart.RangeProcs(2),
		VR:    []string{"Z"}, VE: []string{"X"},
		H: hashpart.ModHash{N: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Run(p, edb, RunConfig{}); err == nil {
		t.Error("ground tuples for a derived predicate accepted")
	}
}

// TestRunRandomizedAgainstSequential is the big equivalence property: random
// graphs × schemes × processor counts.
func TestRunRandomizedAgainstSequential(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		rng := rand.New(rand.NewSource(seed + 500))
		src := ancestorRules + randomParFacts(8+rng.Intn(8), 12+rng.Intn(16), seed)
		prog := parser.MustParse(src)
		seq, seqStats := seqEval(t, prog)
		n := 2 + rng.Intn(4)
		vrChoices := [][]string{{"Y"}, {"Z"}, {"Z", "Y"}}
		vr := vrChoices[rng.Intn(len(vrChoices))]

		prog2 := parser.MustParse(src)
		s := mustSirup(t, prog2)
		p, err := BuildQ(s, rewrite.SirupSpec{
			Procs: hashpart.RangeProcs(n),
			VR:    vr, VE: []string{"X"},
			H: hashpart.ModHash{N: n, Seed: uint64(seed)},
		})
		if err != nil {
			t.Fatal(err)
		}
		res, err := Run(p, relation.Store{}, RunConfig{})
		if err != nil {
			t.Fatal(err)
		}
		if !seq["anc"].Equal(res.Output["anc"]) {
			t.Fatalf("seed %d vr=%v n=%d: parallel differs from sequential", seed, vr, n)
		}
		if got, want := res.Stats.TotalFirings(), seqStats.Firings; got != want {
			t.Errorf("seed %d: firings %d != sequential %d", seed, got, want)
		}
	}
}

// TestRunDeterministicStats: tuple-level traffic statistics must be
// reproducible across runs (they are set-determined, not schedule-determined).
func TestRunDeterministicStats(t *testing.T) {
	src := ancestorRules + randomParFacts(12, 26, 8)
	run := func() (int64, int64, int) {
		prog := parser.MustParse(src)
		s := mustSirup(t, prog)
		p, err := BuildQ(s, rewrite.SirupSpec{
			Procs: hashpart.RangeProcs(3),
			VR:    []string{"Z"}, VE: []string{"X"},
			H: hashpart.ModHash{N: 3},
		})
		if err != nil {
			t.Fatal(err)
		}
		res, err := Run(p, relation.Store{}, RunConfig{})
		if err != nil {
			t.Fatal(err)
		}
		return res.Stats.TotalTuplesSent(), res.Stats.TotalFirings(), res.Output["anc"].Len()
	}
	s1, f1, n1 := run()
	for i := 0; i < 3; i++ {
		s2, f2, n2 := run()
		if s1 != s2 || f1 != f2 || n1 != n2 {
			t.Fatalf("nondeterministic stats: (%d,%d,%d) vs (%d,%d,%d)", s1, f1, n1, s2, f2, n2)
		}
	}
}
