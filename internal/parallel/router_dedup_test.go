package parallel

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"parlog/internal/ast"
	"parlog/internal/hashpart"
	"parlog/internal/parser"
	"parlog/internal/relation"
	"parlog/internal/rewrite"
	"parlog/internal/seminaive"
)

// TestBuildGeneralKeepsRoutersOfDistinctFuncs routes anc(Z, Y) by Z for two
// rules under two different functions of one name (both BalancedTables,
// "hbal"). Each rule's constraint must read the tuples its own function
// routed, so the two routers must stay apart; merged, foo loses the
// tuples whose Z the two tables place on different processors.
func TestBuildGeneralKeepsRoutersOfDistinctFuncs(t *testing.T) {
	var src strings.Builder
	src.WriteString(`anc(X, Y) :- par(X, Y).
anc(X, Y) :- par(X, Z), anc(Z, Y).
foo(X, Y) :- par(X, Z), anc(Z, Y).
`)
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 60; i++ {
		fmt.Fprintf(&src, "par(v%d, v%d).\n", rng.Intn(30), rng.Intn(30))
	}
	prog := parser.MustParse(src.String())
	seq, _, err := seminaive.Eval(prog, relation.Store{}, seminaive.Options{})
	if err != nil {
		t.Fatal(err)
	}

	procs := hashpart.RangeProcs(3)
	weights := func(seed int64) map[ast.Value]int {
		r := rand.New(rand.NewSource(seed))
		w := map[ast.Value]int{}
		for i := 0; i < 30; i++ {
			if v, ok := prog.Interner.Lookup(fmt.Sprintf("v%d", i)); ok {
				w[v] = 1 + r.Intn(100)
			}
		}
		return w
	}
	hA := hashpart.BalancedTable(weights(1), procs, hashpart.ModHash{N: 3})
	hB := hashpart.BalancedTable(weights(2), procs, hashpart.ModHash{N: 3})
	p, err := BuildGeneral(prog, rewrite.GeneralSpec{
		Procs: procs,
		Rules: []rewrite.RuleSpec{
			{Seq: []string{"X"}, H: hA},
			{Seq: []string{"Z"}, H: hA},
			{Seq: []string{"Z"}, H: hB},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunLockstep(p, relation.Store{}, RunConfig{})
	if err != nil {
		t.Fatal(err)
	}
	for _, pred := range []string{"anc", "foo"} {
		if !seq[pred].Equal(res.Output[pred]) {
			t.Errorf("%s: lockstep derived %d tuples, Eval %d", pred, res.Output[pred].Len(), seq[pred].Len())
		}
	}
}
