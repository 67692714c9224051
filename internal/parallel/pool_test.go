package parallel

import (
	"reflect"
	"testing"

	"parlog/internal/analysis"
	"parlog/internal/hashpart"
	"parlog/internal/parser"
	"parlog/internal/randprog"
	"parlog/internal/relation"
	"parlog/internal/rewrite"
)

// withheld returns a copy of p with the disjoint-homes proof withheld for
// every predicate, so Pool takes the union path throughout.
func withheld(p *Program) *Program {
	q := *p
	q.disjoint = make([]bool, len(p.disjoint))
	return &q
}

// samePool runs p with and without the disjoint-homes proof and reports
// the first derived predicate whose pooled relations differ, "" if none.
// Either side's counters must be identical too: the proof changes only
// how the results are pooled.
func samePool(t *testing.T, p *Program, edb relation.Store, cfg RunConfig) string {
	t.Helper()
	a, errA := RunLockstep(p, edb, cfg)
	b, errB := RunLockstep(withheld(p), edb, cfg)
	if (errA == nil) != (errB == nil) {
		t.Fatalf("errors differ: %v with the proof, %v without", errA, errB)
	}
	if a == nil {
		t.Fatal(errA)
	}
	for i, pa := range a.Stats.Procs {
		pb := b.Stats.Procs[i]
		pa.Busy, pb.Busy = 0, 0
		if !reflect.DeepEqual(pa, pb) {
			t.Errorf("proc %d: %+v with the proof, %+v without", pa.Proc, pa, pb)
		}
	}
	for _, pred := range p.preds {
		if !a.Output[pred].Equal(b.Output[pred]) {
			return pred
		}
	}
	return ""
}

func buildSirup(t *testing.T, src string, build func(*analysis.Sirup) (*Program, error)) *Program {
	t.Helper()
	p, err := build(mustSirup(t, parser.MustParse(src)))
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func buildGeneral(t *testing.T, src string, seqs ...[]string) *Program {
	t.Helper()
	h := hashpart.ModHash{N: 3}
	spec := rewrite.GeneralSpec{Procs: hashpart.RangeProcs(3)}
	for _, seq := range seqs {
		spec.Rules = append(spec.Rules, rewrite.RuleSpec{Seq: seq, H: h})
	}
	p, err := BuildGeneral(parser.MustParse(src), spec)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestDisjointHomes pins which schemes build proves give every derived
// tuple exactly one home, and checks on each that pooling by
// concatenation gives what the union path gives, with identical counters.
func TestDisjointHomes(t *testing.T) {
	facts := randomParFacts(30, 90, 3)
	src := ancestorRules + facts
	procs := hashpart.RangeProcs(3)
	h := hashpart.ModHash{N: 3}
	sirupQ := func(vr, ve []string) func(*analysis.Sirup) (*Program, error) {
		return func(s *analysis.Sirup) (*Program, error) {
			return BuildQ(s, rewrite.SirupSpec{Procs: procs, VR: vr, VE: ve, H: h})
		}
	}
	for _, tc := range []struct {
		name string
		p    *Program
		want bool
	}{
		{"example1", buildSirup(t, src, sirupQ([]string{"Y"}, []string{"Y"})), true},
		{"example3", buildSirup(t, src, sirupQ([]string{"Z"}, []string{"X"})), true},
		{"general single router", buildGeneral(t, src, []string{"X"}, []string{"Z"}), true},
		{"example2 broadcast", buildSirup(t, src, sirupQ([]string{"X", "Z"}, []string{"X", "Y"})), false},
		{"per-sender h_i", buildSirup(t, src, func(s *analysis.Sirup) (*Program, error) {
			return BuildR(s, rewrite.RSpec{
				Procs: procs, VR: []string{"Z"}, VE: []string{"X"}, HP: h,
				HI: func(i int) hashpart.Func { return hashpart.Mix{Local: i, Shared: h, KeepPermille: 300} },
			})
		}), false},
		{"no communication", buildSirup(t, src, func(s *analysis.Sirup) (*Program, error) {
			return BuildNoComm(s, rewrite.NoCommSpec{Procs: procs, VE: []string{"X"}, HP: h})
		}), false},
		{"two routers", buildGeneral(t, "anc(X, Y) :- par(X, Y).\nanc(X, Y) :- anc(X, Z), anc(Z, Y).\n"+facts,
			[]string{"X"}, []string{"Z"}), false},
		{"constant in pattern", buildGeneral(t, "anc(X, Y) :- par(X, Y).\nanc(X, Y) :- anc(X, v1), par(v1, Y).\n"+facts,
			[]string{"X"}, []string{"X"}), false},
		{"repeated variable", buildGeneral(t, "anc(X, Y) :- par(X, Y).\nanc(X, Y) :- anc(X, X), par(X, Y).\n"+facts,
			[]string{"X"}, []string{"X"}), false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if got := tc.p.disjoint[tc.p.slots["anc"]]; got != tc.want {
				t.Fatalf("disjoint homes proven = %v, want %v", got, tc.want)
			}
			if pred := samePool(t, tc.p, relation.Store{}, RunConfig{}); pred != "" {
				t.Errorf("%s pooled differently with the proof withheld", pred)
			}
		})
	}
}

// TestDisjointHomesRandomPrograms is the 50-seed differential: on every
// generated program, pooling with the proofs build found equals pooling
// with all of them withheld.
func TestDisjointHomesRandomPrograms(t *testing.T) {
	proven := 0
	for seed := int64(0); seed < 50; seed++ {
		g := randprog.Generate(randprog.Config{}, seed)
		n := 2 + int(seed%3)
		h := hashpart.ModHash{N: n, Seed: uint64(seed)}
		spec := rewrite.GeneralSpec{Procs: hashpart.RangeProcs(n)}
		rules, _ := g.Prog.FactTuples()
		for _, r := range rules {
			vars := r.BodyVars()
			if recs := analysis.RecursiveAtoms(g.Prog, r); len(recs) > 0 {
				if v := r.Body[recs[0]].Vars(nil); len(v) > 0 {
					vars = v
				}
			}
			spec.Rules = append(spec.Rules, rewrite.RuleSpec{Seq: vars[:1], H: h})
		}
		p, err := BuildGeneral(g.Prog, spec)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		for _, d := range p.disjoint {
			if d {
				proven++
			}
		}
		if pred := samePool(t, p, g.EDB, RunConfig{}); pred != "" {
			t.Fatalf("seed %d: %s pooled differently with the proofs withheld\n%s", seed, pred, g.Prog)
		}
	}
	if proven == 0 {
		t.Fatal("no generated predicate had a disjoint-homes proof; the differential checked nothing")
	}
	t.Logf("%d predicates proven across 50 programs", proven)
}

// TestPoolSuppressedSendFallsBack: a send the topology suppresses never
// reaches its home, so the sender alone holds that tuple, in its out
// relation. Pool must then take the union path even though the proof
// holds, and Run and RunLockstep must agree on the model and the counters.
func TestPoolSuppressedSendFallsBack(t *testing.T) {
	p := buildSirup(t, ancestorRules+chainFacts(10), func(s *analysis.Sirup) (*Program, error) {
		return BuildQ(s, rewrite.SirupSpec{
			Procs: hashpart.RangeProcs(2), VR: []string{"Z"}, VE: []string{"X"}, H: hashpart.ModHash{N: 2},
		})
	})
	cfg := RunConfig{Topology: NewTopology([][2]int{{0, 1}})}
	if pred := samePool(t, p, relation.Store{}, cfg); pred != "" {
		t.Fatalf("%s pooled differently with the proof withheld", pred)
	}
	lock, err := RunLockstep(p, relation.Store{}, cfg)
	if err == nil || lock.Stats.ForbiddenSends == 0 {
		t.Fatalf("want suppressed sends, got err %v, ForbiddenSends %d", err, lock.Stats.ForbiddenSends)
	}
	run, _ := Run(p, relation.Store{}, cfg)
	if !run.Output["anc"].Equal(lock.Output["anc"]) {
		t.Error("Run and RunLockstep pooled different models")
	}
	for i, a := range run.Stats.Procs {
		b := lock.Stats.Procs[i]
		a.Busy, b.Busy = 0, 0
		if !reflect.DeepEqual(a, b) {
			t.Errorf("proc %d: Run %+v, RunLockstep %+v", a.Proc, a, b)
		}
	}
	var generated int64
	for _, ps := range lock.Stats.Procs {
		generated += ps.Generated
	}
	if int64(lock.Output["anc"].Len()) > generated || lock.Output["anc"].Len() == 0 {
		t.Errorf("pooled %d tuples from %d generated", lock.Output["anc"].Len(), generated)
	}
}
