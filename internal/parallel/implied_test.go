package parallel

import (
	"fmt"
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

// recompiled returns a copy of p whose recursive rules are compiled again
// from their worker rules, with every h(…)=i check in place; with force,
// the check of each rule's last constraint is then dropped at every @in
// atom that carries it, proven or not.
func recompiled(p *Program, force bool) *Program {
	q := *p
	q.rules = make([][]compiledRule, len(p.rules))
	for wi, ws := range p.rules {
		for _, cr := range ws {
			rule := cr.plans[0].Rule
			if !cr.init {
				var rec []int
				for bi, a := range rule.Body {
					if strings.HasSuffix(a.Pred, inSuffix) {
						rec = append(rec, bi)
					}
				}
				cr.plans = seminaive.DeltaVariants(rule, rec)
				for _, pl := range cr.plans {
					for _, bi := range rec {
						if force && len(rule.Constraints) > 0 {
							pl.DropImplied(len(rule.Constraints)-1, bi)
						}
					}
				}
			}
			q.rules[wi] = append(q.rules[wi], cr)
		}
	}
	return &q
}

// sameRun runs a and b in lockstep and reports how they differ: in the
// pooled model, or in any processor's counters but Busy.
func sameRun(t *testing.T, a, b *Program, edb relation.Store) string {
	t.Helper()
	ra, err := RunLockstep(a, edb, RunConfig{})
	if err != nil {
		t.Fatal(err)
	}
	rb, err := RunLockstep(b, edb, RunConfig{})
	if err != nil {
		t.Fatal(err)
	}
	for _, pred := range a.preds {
		if !ra.Output[pred].Equal(rb.Output[pred]) {
			return pred + " differs"
		}
	}
	for i, pa := range ra.Stats.Procs {
		pb := rb.Stats.Procs[i]
		pa.Busy, pb.Busy = 0, 0
		if fmt.Sprint(pa) != fmt.Sprint(pb) {
			return fmt.Sprintf("proc %d: %+v against %+v", pa.Proc, pa, pb)
		}
	}
	return ""
}

// forgedFirings plants a placement the routers never make at processor 0
// of p: a tuple anc(z, y) whose h gives another processor lands straight
// in node 0's anc@in, next to par(x, z) in its par fragment. It reports
// the firings node 0 makes once it has drained them, above its firings
// without them.
func forgedFirings(t *testing.T, p *Program, x, z, y ast.Value) int64 {
	t.Helper()
	run := func(forge bool) int64 {
		global, err := PrepareEDB(p, relation.Store{})
		if err != nil {
			t.Fatal(err)
		}
		n := NewNode(p, 0, global)
		n.Init(func(int, string, relation.Batch) {})
		if forge {
			n.store["par"].Insert(relation.Tuple{x, z})
			n.preds[p.slots["anc"]].in.Insert(relation.Tuple{z, y})
		}
		n.Drain(func(int, string, relation.Batch) {})
		return n.Stats().Firings
	}
	return run(true) - run(false)
}

// TestRoutedImplies pins where build proves a rule's h(…)=i test implied
// by the routed contents of an @in atom (routedImplies), and checks each
// proof as TestRoutesHome checks its own: with every check restored the
// run has the same model and the same counters. A forged placement, a
// tuple in node 0's anc@in whose h names another processor, shows whether
// the check is in place: it fires only where the proof dropped the test.
func TestRoutedImplies(t *testing.T) {
	src := ancestorRules + randomParFacts(12, 30, 8)
	h := hashpart.ModHash{N: 3}
	procs := hashpart.RangeProcs(3)
	sirupQ := func(vr, ve []string) func(*analysis.Sirup) (*Program, error) {
		return func(s *analysis.Sirup) (*Program, error) {
			return BuildQ(s, rewrite.SirupSpec{Procs: procs, VR: vr, VE: ve, H: h})
		}
	}
	for _, tc := range []struct {
		name    string
		p       *Program
		implied bool
	}{
		{"example1", buildSirup(t, src, sirupQ([]string{"Y"}, []string{"Y"})), true},
		{"example3", buildSirup(t, src, sirupQ([]string{"Z"}, []string{"X"})), true},
		{"general single router", buildGeneral(t, src, []string{"X"}, []string{"Z"}), true},
		{"example2 broadcast", buildSirup(t, src, sirupQ([]string{"X", "Z"}, []string{"X", "Y"})), false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if diff := sameRun(t, tc.p, recompiled(tc.p, false), relation.Store{}); diff != "" {
				t.Errorf("with every check restored: %s", diff)
			}
			// Forge anc(z, y) at processor 0 with h(z) and h(y) both 1, so
			// the tuple breaks whichever column the test reads.
			in := tc.p.src.Interner
			var z, y ast.Value = -1, -1
			for v := ast.Value(0); int(v) < in.Len() && y < 0; v++ {
				if h.Apply([]ast.Value{v}) == 1 {
					if z < 0 {
						z = v
					} else {
						y = v
					}
				}
			}
			// x keeps a two-column test h(x, z) from passing by chance.
			var x ast.Value
			for k := 0; ; k++ {
				if x = in.Intern(fmt.Sprint("forged", k)); h.Apply([]ast.Value{x, z}) != 0 {
					break
				}
			}
			// Under a broadcast router anc(z, y) may sit anywhere, so there
			// the checks admit its legitimate partners; only a dropped test
			// admits more.
			got, checked := forgedFirings(t, tc.p, x, z, y), forgedFirings(t, recompiled(tc.p, false), x, z, y)
			if (got > checked) != tc.implied || tc.implied && checked != 0 {
				t.Errorf("the forged tuple fired %d times, %d with every check in place; test implied = %v", got, checked, tc.implied)
			}
		})
	}
}

// TestRoutedImpliesNeedsItsPlacement is the proof's negative side: where
// the @in contents do not imply the test, dropping it anyway changes the
// run. On non-linear ancestor (Example 8's program) anc has two routers,
// one per body occurrence, so anc@in at i also holds tuples routed on the
// other column, and the h(Z) = i test still prunes. Build proves nothing
// there; forcing the proof makes firings the sequential engine does not.
func TestRoutedImpliesNeedsItsPlacement(t *testing.T) {
	facts := randomParFacts(20, 50, 4)
	src := "anc(X, Y) :- par(X, Y).\nanc(X, Y) :- anc(X, Z), anc(Z, Y).\n" + facts
	p := buildGeneral(t, src, []string{"X"}, []string{"Z"})
	if diff := sameRun(t, p, recompiled(p, false), relation.Store{}); diff != "" {
		t.Fatalf("build dropped a check it could not prove: %s", diff)
	}
	forced := recompiled(p, true)
	if diff := sameRun(t, p, forced, relation.Store{}); diff == "" {
		t.Fatal("dropping the h(Z)=i tests changed nothing; the forged proof went unnoticed")
	}
	_, seq := seqEval(t, parser.MustParse(src))
	res, err := RunLockstep(p, relation.Store{}, RunConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Stats.TotalFirings(); got != seq.Firings {
		t.Errorf("%d firings, the sequential engine makes %d", got, seq.Firings)
	}
}

// TestRoutingTableMatchesH checks every node's cached routing answers
// against its router's h over a whole domain: values below the node's
// bound (read from the table, twice, so the second read hits the cache),
// negative values and values past the bound (hashed each time). The
// programs cover two routers with different h on one node, BuildR's
// per-processor h_i, a two-column router (no table) and an h that names
// processors outside the set (homeless, cached as such).
func TestRoutingTableMatchesH(t *testing.T) {
	facts := randomParFacts(20, 50, 5)
	procs := hashpart.RangeProcs(3)
	h := hashpart.ModHash{N: 3}
	prog := parser.MustParse(ancestorRules + facts)
	s := mustSirup(t, prog)
	buildR, err := BuildR(s, rewrite.RSpec{
		Procs: procs, VR: []string{"Z"}, VE: []string{"X"}, HP: h,
		HI: func(i int) hashpart.Func { return hashpart.Mix{Local: i, Shared: h, KeepPermille: 400} },
	})
	if err != nil {
		t.Fatal(err)
	}
	homeless, err := BuildQ(s, rewrite.SirupSpec{Procs: procs, VR: []string{"Z"}, VE: []string{"X"},
		H: namedFunc{name: "h7", fn: func(v []ast.Value) int { return int(v[0]) % 5 }}})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		p    *Program
	}{
		{"example3", buildSirup(t, ancestorRules+facts, func(s *analysis.Sirup) (*Program, error) {
			return BuildQ(s, rewrite.SirupSpec{Procs: procs, VR: []string{"Z"}, VE: []string{"X"}, H: h})
		})},
		{"two routers, two h", buildGeneral2(t, "anc(X, Y) :- par(X, Y).\nanc(X, Y) :- par(X, Z), anc(Z, Y).\nfar(X, Y) :- anc(X, Y), par(Y, W).\n"+facts,
			rewrite.RuleSpec{Seq: []string{"X"}, H: h}, rewrite.RuleSpec{Seq: []string{"Z"}, H: h},
			rewrite.RuleSpec{Seq: []string{"Y"}, H: hashpart.ModHash{N: 3, Seed: 4}})},
		{"BuildR h_i", buildR},
		{"two columns", buildSirup(t, ancestorRules+facts, func(s *analysis.Sirup) (*Program, error) {
			return BuildQ(s, rewrite.SirupSpec{Procs: procs, VR: []string{"X", "Z"}, VE: []string{"X", "Y"}, H: h})
		})},
		{"homeless", homeless},
	} {
		t.Run(tc.name, func(t *testing.T) {
			global, err := PrepareEDB(tc.p, relation.Store{})
			if err != nil {
				t.Fatal(err)
			}
			bound := valueBound(tc.p, global)
			if bound <= 0 {
				t.Fatalf("value bound %d", bound)
			}
			tables := 0
			for wi := range tc.p.rules {
				n := NewNode(tc.p, wi, global)
				for si := range n.preds {
					for ri := range n.preds[si].routers {
						rt := &n.preds[si].routers[ri]
						if rt.self || rt.broadcast {
							continue
						}
						if want := map[bool]int{true: bound, false: 0}[len(rt.seqPos) == 1]; len(rt.dest) != want {
							t.Fatalf("node %d router %d: table of %d values, want %d", wi, ri, len(rt.dest), want)
						}
						if len(rt.dest) > 0 {
							tables++
						}
						for v := -3; v < 2*bound+3; v++ {
							tu := make(relation.Tuple, rt.arity)
							for _, c := range rt.seqPos {
								tu[c] = ast.Value(v)
							}
							seq := make([]ast.Value, len(rt.seqPos))
							for k, c := range rt.seqPos {
								seq[k] = tu[c]
							}
							wantWi, wantOK := tc.p.Procs.Index(rt.h.Apply(seq))
							for pass := 0; pass < 2; pass++ {
								gotWi, gotOK := n.home(rt, tu)
								if gotOK != wantOK || (wantOK && gotWi != wantWi) {
									t.Fatalf("node %d router %d value %d pass %d: home %d,%v, h gives %d,%v",
										wi, ri, v, pass, gotWi, gotOK, wantWi, wantOK)
								}
							}
						}
					}
				}
			}
			if tables == 0 && tc.name != "two columns" {
				t.Error("no router kept a table")
			}
		})
	}
}

// buildGeneral2 compiles src under the Section 7 scheme with one rule spec
// per rule, on three processors.
func buildGeneral2(t *testing.T, src string, specs ...rewrite.RuleSpec) *Program {
	t.Helper()
	p, err := BuildGeneral(parser.MustParse(src), rewrite.GeneralSpec{Procs: hashpart.RangeProcs(3), Rules: specs})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestSameFunc: build compares a router's h with a rule's by value, and
// only for comparable functions; a map-backed h is never proven equal, not
// even to itself, and a nil h equals nothing.
func TestSameFunc(t *testing.T) {
	frag := &hashpart.Fragmentation{Fallback: hashpart.ModHash{N: 3}}
	table := firstValue{1: 2}
	for _, tc := range []struct {
		name string
		f, g hashpart.Func
		want bool
	}{
		{"equal ModHash", hashpart.ModHash{N: 3}, hashpart.ModHash{N: 3}, true},
		{"other seed", hashpart.ModHash{N: 3}, hashpart.ModHash{N: 3, Seed: 1}, false},
		{"other type", hashpart.ModHash{N: 3}, hashpart.SymHash{N: 3}, false},
		{"one pointer", frag, frag, true},
		{"two pointers", frag, &hashpart.Fragmentation{Fallback: hashpart.ModHash{N: 3}}, false},
		{"map", table, table, false},
		{"Mix over a map", hashpart.Mix{Shared: table}, hashpart.Mix{Shared: table}, false},
		{"nil", nil, hashpart.ModHash{N: 3}, false},
		{"against nil", hashpart.ModHash{N: 3}, nil, false},
	} {
		if got := sameFunc(tc.f, tc.g); got != tc.want {
			t.Errorf("%s: sameFunc = %v, want %v", tc.name, got, tc.want)
		}
	}
}
