package parlog

import (
	"context"
	"fmt"
	"testing"

	"parlog/internal/relation"
	"parlog/internal/seminaive"
	"parlog/internal/workload"
)

// The tests below hold the library's serving kernels to the allocations
// per operation measured when they were written (Go 1.24, linux/amd64),
// times 1.2, plus 0.1 for near-zero counts. Each measured value is in a
// comment next to its bound.
// Allocation counts are a proxy: they catch a kernel that starts copying
// per call, which wall time on a shared host would hide in noise.

// allocBound is the bound on a kernel measured at allocs per operation.
func allocBound(measured float64) float64 { return measured*1.2 + 0.1 }

func skipUnderRace(t *testing.T) {
	t.Helper()
	if raceEnabled {
		t.Skip("the race detector inflates allocation counts; CI runs this test without -race")
	}
}

const allocAncestor = "anc(X, Y) :- par(X, Y).\nanc(X, Y) :- par(X, Z), anc(Z, Y).\n"

// treeCase parses src and loads tree(branch, depth) as par, with node i
// interned as "n<i>". ins hangs one fresh leaf per delta under a rotating
// existing node; del removes those leaves in the same order.
func treeCase(t *testing.T, src string, branch, depth, batches int) (p *Program, edb Store, ins, del []Delta) {
	t.Helper()
	p, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	node := func(i int) Value { return p.Intern(fmt.Sprintf("n%d", i)) }
	edb = Store{}
	par := edb.Get("par", 2)
	rows := workload.Tree(branch, depth).Rows()
	for _, r := range rows {
		par.Insert(Tuple{node(int(r[0])), node(int(r[1]))})
	}
	n := len(rows) + 1 // tree node ids are 0..len(edges)
	for b := 0; b < batches; b++ {
		leaf := Tuple{node(b % n), node(n + b)}
		ins = append(ins, *NewDelta().Add("par", leaf))
		del = append(del, *NewDelta().Remove("par", leaf))
	}
	return p, edb, ins, del
}

// applyAllocs reports the allocations per Apply of ds[i] on v, in order.
func applyAllocs(t *testing.T, v *View, ds []Delta) float64 {
	t.Helper()
	i := 0
	return testing.AllocsPerRun(len(ds)-1, func() {
		if _, err := v.Apply(ds[i]); err != nil {
			t.Fatal(err)
		}
		i++
	})
}

// TestQueryDemandAllocs guards a goal-directed Query: the magic-sets
// rewrite plus its fixpoint over a random(40,160) graph, answers drained.
func TestQueryDemandAllocs(t *testing.T) {
	skipUnderRace(t)
	p, err := Parse("anc(X, Y) :- par(X, Y).\nanc(X, Y) :- anc(X, Z), par(Z, Y).\n")
	if err != nil {
		t.Fatal(err)
	}
	edb := Store{}
	par := edb.Get("par", 2)
	for _, r := range workload.RandomGraph(40, 160, 7).Rows() {
		par.Insert(Tuple{p.Intern(fmt.Sprintf("n%d", r[0])), p.Intern(fmt.Sprintf("n%d", r[1]))})
	}
	ctx := context.Background()
	answers := 0
	a := testing.AllocsPerRun(20, func() {
		q, err := Query(ctx, p, edb, "anc(n0, X)?", EvalOptions{})
		if err != nil {
			t.Fatal(err)
		}
		answers = len(q.All())
	})
	if answers == 0 {
		t.Fatal("demand query found no answers")
	}
	t.Logf("demand query: %.0f allocs/op, %d answers", a, answers)
	if b := allocBound(413); a > b { // measured: 413
		t.Errorf("demand Query: %.0f allocs/op, bound %.1f", a, b)
	}
}

// TestEvalAllocs guards the sequential fixpoint: seminaive.Eval of the
// ancestor program (Example 3's source) over random(300,900): 238,301
// firings in 13 iterations. Its allocations are the store's arenas and
// tables and a few per pass and per plan; one per firing would add
// hundreds of thousands.
func TestEvalAllocs(t *testing.T) {
	skipUnderRace(t)
	prog := workload.AncestorProgram()
	edb := relation.Store{"par": workload.RandomGraph(300, 900, 1)}
	a := testing.AllocsPerRun(5, func() {
		if _, _, err := seminaive.Eval(prog, edb, seminaive.Options{}); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("Eval: %.0f allocs/op", a)
	if b := allocBound(1086); a > b { // measured: 1086
		t.Errorf("Eval: %.0f allocs/op, bound %.1f", a, b)
	}
}

// TestViewApplyAllocs guards incremental maintenance through View.Apply:
// single-leaf inserts into, then deletes from, the ancestor closure of
// tree(3,5).
func TestViewApplyAllocs(t *testing.T) {
	skipUnderRace(t)
	p, edb, ins, del := treeCase(t, allocAncestor, 3, 5, 17)
	v, err := Open(context.Background(), p, edb, EvalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer v.Close()
	a := applyAllocs(t, v, ins)
	t.Logf("insert: %.0f allocs/op", a)
	if b := allocBound(102); a > b { // measured: 102
		t.Errorf("View.Apply insert: %.0f allocs/op, bound %.1f", a, b)
	}
	a = applyAllocs(t, v, del)
	t.Logf("delete: %.0f allocs/op", a)
	if b := allocBound(111); a > b { // measured: 111
		t.Errorf("View.Apply delete: %.0f allocs/op, bound %.1f", a, b)
	}
}

// TestDurableApplyAllocs guards a durable View.Apply, write-ahead log
// included, under both ends of the fsync policy: the policies differ in
// wall time, never in allocations.
func TestDurableApplyAllocs(t *testing.T) {
	skipUnderRace(t)
	for _, tc := range []struct {
		name  string
		fsync FsyncPolicy
		bound float64
	}{
		{"always", FsyncAlways, allocBound(109)}, // measured: 109
		{"never", FsyncNever, allocBound(109)},   // measured: 109
	} {
		p, edb, ins, _ := treeCase(t, allocAncestor, 3, 4, 17)
		v, err := Open(context.Background(), p, edb, EvalOptions{
			Dir: t.TempDir(), Durability: DurabilityOptions{Fsync: tc.fsync},
		})
		if err != nil {
			t.Fatal(err)
		}
		a := applyAllocs(t, v, ins)
		if err := v.Close(); err != nil {
			t.Fatal(err)
		}
		t.Logf("%s: %.0f allocs/op", tc.name, a)
		if a > tc.bound {
			t.Errorf("durable Apply (fsync %s): %.0f allocs/op, bound %.1f", tc.name, a, tc.bound)
		}
	}
}

// TestColdOpenAllocs guards recovery: Open of a cleanly closed state
// directory (tree(3,4) plus 16 applied leaves) by a freshly parsed
// program, which replays the segment's name table and EDB and
// materializes the model.
func TestColdOpenAllocs(t *testing.T) {
	skipUnderRace(t)
	const runs = 4
	ctx := context.Background()
	type coldCase struct {
		p   *Program
		edb Store
		dir string
	}
	cases := make([]coldCase, runs+1)
	for i := range cases {
		p, edb, ins, _ := treeCase(t, allocAncestor, 3, 4, 16)
		dir := t.TempDir()
		v, err := Open(ctx, p, edb, EvalOptions{Dir: dir, Durability: DurabilityOptions{Fsync: FsyncNever}})
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range ins {
			if _, err := v.Apply(d); err != nil {
				t.Fatal(err)
			}
		}
		if err := v.Close(); err != nil {
			t.Fatal(err)
		}
		p, edb, _, _ = treeCase(t, allocAncestor, 3, 4, 0)
		cases[i] = coldCase{p, edb, dir}
	}
	views := make([]*View, 0, len(cases))
	a := testing.AllocsPerRun(runs, func() {
		c := cases[len(views)]
		v, err := Open(ctx, c.p, c.edb, EvalOptions{Dir: c.dir})
		if err != nil {
			t.Fatal(err)
		}
		views = append(views, v)
	})
	for _, v := range views {
		if got := v.Epoch(); got != 16 {
			t.Errorf("cold Open recovered epoch %d, want 16", got)
		}
		v.Close()
	}
	t.Logf("cold open: %.0f allocs/op", a)
	if b := allocBound(848); a > b { // measured: 848
		t.Errorf("cold Open: %.0f allocs/op, bound %.1f", a, b)
	}
}
