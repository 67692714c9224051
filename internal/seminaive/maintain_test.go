package seminaive

import (
	"fmt"
	"math/rand"
	"testing"

	"parlog/internal/ast"
	"parlog/internal/parser"
	"parlog/internal/relation"
	"parlog/internal/workload"
)

// edges builds an EDB store holding pred over the given (from,to) pairs,
// interning node names vN through prog's interner.
func edges(prog *ast.Program, pred string, pairs [][2]int) relation.Store {
	rel := relation.New(2)
	for _, p := range pairs {
		rel.Insert(relation.Tuple{
			prog.Interner.Intern(fmt.Sprintf("v%d", p[0])),
			prog.Interner.Intern(fmt.Sprintf("v%d", p[1])),
		})
	}
	return relation.Store{pred: rel}
}

func pair(prog *ast.Program, a, b int) relation.Tuple {
	return relation.Tuple{
		prog.Interner.Intern(fmt.Sprintf("v%d", a)),
		prog.Interner.Intern(fmt.Sprintf("v%d", b)),
	}
}

// checkAgainstEval asserts the IVM's live model equals a from-scratch Eval
// over the IVM's current EDB, and that the counting invariant holds.
func checkAgainstEval(t *testing.T, m *IVM, prog *ast.Program, edb relation.Store) {
	t.Helper()
	want, _, err := Eval(prog, edb, Options{})
	if err != nil {
		t.Fatalf("from-scratch Eval: %v", err)
	}
	got := m.SnapshotStore()
	for pred, w := range want {
		g, ok := got[pred]
		if !ok {
			t.Fatalf("maintained store lost predicate %s", pred)
		}
		if !g.Equal(w) {
			t.Fatalf("maintained %s diverged: %d live tuples, want %d",
				pred, g.Len(), w.Len())
		}
	}
	if err := m.Audit(); err != nil {
		t.Fatal(err)
	}
}

func TestIVMMaterializeMatchesEval(t *testing.T) {
	prog := parser.MustParse(ancestorRules)
	pairs := [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 4}}
	edb := edges(prog, "par", pairs)
	m, stats, err := NewIVM(prog, edb, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Firings == 0 {
		t.Error("materialization reported no firings")
	}
	if got := m.Store()["anc"].Len(); got != 10 {
		t.Errorf("|anc| = %d, want 10", got)
	}
	checkAgainstEval(t, m, prog, edb)
}

func TestIVMInsertPropagates(t *testing.T) {
	prog := parser.MustParse(ancestorRules)
	edb := edges(prog, "par", [][2]int{{0, 1}, {2, 3}})
	m, _, err := NewIVM(prog, edb, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Bridge the two chains: anc must gain the cross pairs.
	st, err := m.Apply(nil, map[string][]relation.Tuple{"par": {pair(prog, 1, 2)}})
	if err != nil {
		t.Fatal(err)
	}
	if st.Inserted == 0 || st.Firings == 0 {
		t.Errorf("stats = %+v, expected insertions and firings", st)
	}
	if !m.Store()["anc"].Contains(pair(prog, 0, 3)) {
		t.Error("anc(v0,v3) not derived after bridging insert")
	}
	edb.Get("par", 2).Insert(pair(prog, 1, 2))
	checkAgainstEval(t, m, prog, edb)

	// Duplicate insert is a no-op.
	st, err = m.Apply(nil, map[string][]relation.Tuple{"par": {pair(prog, 1, 2)}})
	if err != nil {
		t.Fatal(err)
	}
	if st.Inserted != 0 || st.Firings != 0 {
		t.Errorf("duplicate insert did work: %+v", st)
	}
}

func TestIVMDeleteCascades(t *testing.T) {
	prog := parser.MustParse(ancestorRules)
	pairs := [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 4}}
	edb := edges(prog, "par", pairs)
	m, _, err := NewIVM(prog, edb, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Cutting the middle edge kills every ancestor pair that crossed it.
	st, err := m.Apply(map[string][]relation.Tuple{"par": {pair(prog, 1, 2)}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if st.Overdeleted == 0 {
		t.Errorf("stats = %+v, expected overdeletions", st)
	}
	if m.Store()["anc"].Contains(pair(prog, 0, 3)) {
		t.Error("anc(v0,v3) survived the cut")
	}
	if !m.Store()["anc"].Contains(pair(prog, 0, 1)) || !m.Store()["anc"].Contains(pair(prog, 2, 4)) {
		t.Error("ancestor pairs on the surviving sides were lost")
	}
	edb = edges(prog, "par", [][2]int{{0, 1}, {2, 3}, {3, 4}})
	checkAgainstEval(t, m, prog, edb)
}

func TestIVMDeleteRederives(t *testing.T) {
	prog := parser.MustParse(ancestorRules)
	// Diamond: two parallel paths v0→v3; deleting one leaves anc(v0,v3).
	pairs := [][2]int{{0, 1}, {1, 3}, {0, 2}, {2, 3}}
	edb := edges(prog, "par", pairs)
	m, _, err := NewIVM(prog, edb, Options{})
	if err != nil {
		t.Fatal(err)
	}
	st, err := m.Apply(map[string][]relation.Tuple{"par": {pair(prog, 1, 3)}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !m.Store()["anc"].Contains(pair(prog, 0, 3)) {
		t.Error("anc(v0,v3) lost despite the surviving path")
	}
	if st.Rederived == 0 {
		t.Errorf("stats = %+v, expected a rederivation", st)
	}
	edb = edges(prog, "par", [][2]int{{0, 1}, {0, 2}, {2, 3}})
	checkAgainstEval(t, m, prog, edb)

	// Deleting an absent tuple is a no-op.
	st, err = m.Apply(map[string][]relation.Tuple{"par": {pair(prog, 7, 8)}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if st.Deleted != 0 || st.Overdeleted != 0 {
		t.Errorf("absent delete did work: %+v", st)
	}
}

func TestIVMDeleteThenReinsert(t *testing.T) {
	prog := parser.MustParse(ancestorRules)
	pairs := [][2]int{{0, 1}, {1, 2}, {2, 3}}
	edb := edges(prog, "par", pairs)
	m, _, err := NewIVM(prog, edb, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// One batch that removes and restores the same edge: net no-op model.
	_, err = m.Apply(
		map[string][]relation.Tuple{"par": {pair(prog, 1, 2)}},
		map[string][]relation.Tuple{"par": {pair(prog, 1, 2)}},
	)
	if err != nil {
		t.Fatal(err)
	}
	checkAgainstEval(t, m, prog, edb)
}

func TestIVMFactsArePermanent(t *testing.T) {
	// par(v0,v1) is a program fact AND an EDB tuple; deleting the EDB copy
	// must not remove it from the model.
	prog := parser.MustParse(ancestorRules + "par(v0, v1).\n")
	edb := edges(prog, "par", [][2]int{{0, 1}, {1, 2}})
	m, _, err := NewIVM(prog, edb, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Apply(map[string][]relation.Tuple{"par": {pair(prog, 0, 1)}}, nil); err != nil {
		t.Fatal(err)
	}
	if !m.Store()["par"].Contains(pair(prog, 0, 1)) {
		t.Error("program fact was deleted")
	}
	if !m.Store()["anc"].Contains(pair(prog, 0, 2)) {
		t.Error("derivation through the program fact was lost")
	}
	if err := m.Audit(); err != nil {
		t.Fatal(err)
	}
}

func TestIVMRejectsUnsupported(t *testing.T) {
	if _, _, err := NewIVM(parser.MustParse(ancestorRules), relation.Store{}, Options{Naive: true}); err == nil {
		t.Error("Naive accepted")
	}
	neg := parser.MustParse("p(X) :- q(X), !r(X).\nq(a).\n")
	if _, _, err := NewIVM(neg, relation.Store{}, Options{}); err == nil {
		t.Error("negation accepted")
	}
	prog := parser.MustParse(ancestorRules)
	m, _, err := NewIVM(prog, edges(prog, "par", [][2]int{{0, 1}}), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Apply(nil, map[string][]relation.Tuple{"anc": {pair(prog, 5, 6)}}); err == nil {
		t.Error("insert into derived predicate accepted")
	}
	if _, err := m.Apply(map[string][]relation.Tuple{"anc": {pair(prog, 0, 1)}}, nil); err == nil {
		t.Error("delete from derived predicate accepted")
	}
	if _, err := m.Apply(nil, map[string][]relation.Tuple{"par": {{1}}}); err == nil {
		t.Error("arity mismatch accepted")
	}
}

func TestIVMSnapshotIsolation(t *testing.T) {
	prog := parser.MustParse(ancestorRules)
	edb := edges(prog, "par", [][2]int{{0, 1}, {1, 2}})
	m, _, err := NewIVM(prog, edb, Options{})
	if err != nil {
		t.Fatal(err)
	}
	snap := m.SnapshotStore()
	before := snap["anc"].Len()
	if _, err := m.Apply(nil, map[string][]relation.Tuple{"par": {pair(prog, 2, 3)}}); err != nil {
		t.Fatal(err)
	}
	if snap["anc"].Len() != before {
		t.Error("snapshot observed a later Apply")
	}
	if snap["anc"].Contains(pair(prog, 0, 3)) {
		t.Error("snapshot contains post-snapshot derivation")
	}
	if !m.Store()["anc"].Contains(pair(prog, 0, 3)) {
		t.Error("live store missing post-Apply derivation")
	}
}

// headShapeRules gives the counting path the heads it binds before the
// join: head constants, a repeated head variable, several rules with one
// head (mix's three shapes must not count each other's tuples), and cyclic
// bodies.
const headShapeRules = `
anc(X, Y) :- par(X, Y).
anc(X, Y) :- anc(X, Z), anc(Z, Y).
from1(v1, Y) :- par(v1, Y).
from1(v1, Y) :- from1(v1, Z), par(Z, Y).
mix(X, X) :- anc(X, Y).
mix(v1, Y) :- par(Y, Z).
mix(X, Y) :- par(X, Y), par(Y, X).
cyc(X) :- anc(X, Y), anc(Y, X).
`

// TestIVMRandomBatches drives randomized insert/delete batches over a random
// graph and checks the maintained model against from-scratch evaluation,
// and the counting invariant, after every batch — the unit-level twin of
// the root differential test.
func TestIVMRandomBatches(t *testing.T) {
	const nodes = 12
	for _, src := range []string{nonlinearAncestorRules, headShapeRules} {
		for seed := int64(0); seed < 8; seed++ {
			rng := rand.New(rand.NewSource(seed))
			prog := parser.MustParse(src)
			present := map[[2]int]bool{}
			var pairs [][2]int
			for i := 0; i < 20; i++ {
				e := [2]int{rng.Intn(nodes), rng.Intn(nodes)}
				if !present[e] {
					present[e] = true
					pairs = append(pairs, e)
				}
			}
			edb := edges(prog, "par", pairs)
			m, _, err := NewIVM(prog, edb, Options{})
			if err != nil {
				t.Fatal(err)
			}
			for batch := 0; batch < 4; batch++ {
				ins := map[string][]relation.Tuple{}
				del := map[string][]relation.Tuple{}
				for i := 0; i < 4; i++ {
					e := [2]int{rng.Intn(nodes), rng.Intn(nodes)}
					if present[e] && rng.Intn(2) == 0 {
						present[e] = false
						del["par"] = append(del["par"], pair(prog, e[0], e[1]))
					} else if !present[e] {
						present[e] = true
						ins["par"] = append(ins["par"], pair(prog, e[0], e[1]))
					}
				}
				if _, err := m.Apply(del, ins); err != nil {
					t.Fatalf("seed %d batch %d: %v", seed, batch, err)
				}
				var cur [][2]int
				for e, ok := range present {
					if ok {
						cur = append(cur, e)
					}
				}
				checkAgainstEval(t, m, prog, edges(prog, "par", cur))
			}
		}
	}
}

// TestIVMFiringsBeatRefixpoint is incremental maintenance's reason to exist,
// asserted: an ancestor closure over tree(3,7) absorbs 8 fresh-leaf inserts
// and then 8 deletes of live edges (seed 17), one edge per batch, and the
// from-scratch refixpoints over the same EDB states must fire at least 5x
// more than the maintenance passes in total. After every batch the
// maintained anc must equal the refixpoint's and pass the counting audit.
// On a uniform tree these deltas are small and local; a dense cyclic graph
// would not show the gap, since DRed's overdeletion can there do more work
// than a refixpoint.
func TestIVMFiringsBeatRefixpoint(t *testing.T) {
	const branch, depth, batches = 3, 7, 8
	prog := workload.AncestorProgram()
	base := workload.Tree(branch, depth)
	rng := rand.New(rand.NewSource(17))

	// Mutation stream: batches fresh-leaf inserts under random nodes, then
	// batches deletes of random live edges.
	type mutation struct {
		edge relation.Tuple
		del  bool
	}
	live := base.Rows()
	next := ast.Value(len(live) + 1) // tree node ids are 0..len(edges)
	var muts []mutation
	for i := 0; i < batches; i++ {
		e := relation.Tuple{live[rng.Intn(len(live))][1], next}
		next++
		live = append(live, e)
		muts = append(muts, mutation{edge: e})
	}
	for i := 0; i < batches; i++ {
		j := rng.Intn(len(live))
		e := live[j]
		live[j] = live[len(live)-1]
		live = live[:len(live)-1]
		muts = append(muts, mutation{edge: e, del: true})
	}

	m, _, err := NewIVM(prog, relation.Store{"par": base.Clone()}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	state := base.Clone()
	var maintained, scratch int64
	for i, mu := range muts {
		batch := map[string][]relation.Tuple{"par": {mu.edge}}
		var del, ins map[string][]relation.Tuple
		nextState := relation.New(2)
		for _, tup := range state.Rows() {
			if !mu.del || !tup.Equal(mu.edge) {
				nextState.Insert(tup)
			}
		}
		if mu.del {
			del = batch
		} else {
			ins = batch
			nextState.Insert(mu.edge)
		}
		state = nextState
		st, err := m.Apply(del, ins)
		if err != nil {
			t.Fatalf("batch %d: %v", i, err)
		}
		maintained += st.Firings

		want, ref, err := Eval(prog, relation.Store{"par": state.Clone()}, Options{})
		if err != nil {
			t.Fatal(err)
		}
		scratch += ref.Firings
		if !want["anc"].Equal(m.Store()["anc"]) {
			t.Fatalf("batch %d: maintained anc differs from the from-scratch model", i)
		}
		if err := m.Audit(); err != nil {
			t.Fatalf("batch %d: %v", i, err)
		}
	}
	t.Logf("firings: %d from scratch vs %d maintained over %d batches (%.1fx)",
		scratch, maintained, len(muts), float64(scratch)/float64(maintained))
	if scratch < 5*maintained {
		t.Fatalf("from-scratch refixpoints fired %d vs %d maintained: less than the required 5x", scratch, maintained)
	}
}
