package randprog

import (
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"parlog/internal/analysis"
	"parlog/internal/ast"
	"parlog/internal/hashpart"
	"parlog/internal/parallel"
	"parlog/internal/relation"
	"parlog/internal/rewrite"
	"parlog/internal/seminaive"
	"parlog/internal/workload"
)

var updateCounters = flag.Bool("update-counters", false, "rewrite testdata/counters.golden")

const countersGolden = "testdata/counters.golden"

// counterInput is one program the counters golden pins: its source, EDB and
// parallel scheme.
type counterInput struct {
	name  string
	prog  *ast.Program
	edb   relation.Store
	build func() (*parallel.Program, error)
}

// counterInputs returns Examples 1, 2, 3 (the linear ancestor sirup under
// v(r)=v(e)=⟨Y⟩, v(r)=⟨X,Z⟩ and v(r)=⟨Z⟩, v(e)=⟨X⟩) and Example 8 (the
// non-linear ancestor under the general scheme), each on three processors
// over random(30,60), and the first 50 generated programs under the general
// scheme.
func counterInputs(t *testing.T) []counterInput {
	t.Helper()
	par := relation.Store{"par": workload.RandomGraph(30, 60, 3)}
	procs := hashpart.RangeProcs(3)
	h := hashpart.ModHash{N: 3}
	sirup := func(vr, ve []string) func() (*parallel.Program, error) {
		return func() (*parallel.Program, error) {
			s, err := analysis.ExtractSirup(workload.AncestorProgram())
			if err != nil {
				return nil, err
			}
			return parallel.BuildQ(s, rewrite.SirupSpec{Procs: procs, VR: vr, VE: ve, H: h})
		}
	}
	nonlinear := workload.NonlinearAncestorProgram()
	ins := []counterInput{
		{"example1", workload.AncestorProgram(), par, sirup([]string{"Y"}, []string{"Y"})},
		{"example2", workload.AncestorProgram(), par, sirup([]string{"X", "Z"}, []string{"X", "Y"})},
		{"example3", workload.AncestorProgram(), par, sirup([]string{"Z"}, []string{"X"})},
		{"example8", nonlinear, par, func() (*parallel.Program, error) {
			return parallel.BuildGeneral(nonlinear, rewrite.GeneralSpec{
				Procs: procs,
				Rules: []rewrite.RuleSpec{{Seq: []string{"Y"}, H: h}, {Seq: []string{"Z"}, H: h}},
			})
		}},
	}
	for seed := int64(0); seed < 50; seed++ {
		g := Generate(Config{}, seed)
		n := 2 + int(seed%3)
		ins = append(ins, counterInput{fmt.Sprintf("seed%d", seed), g.Prog, g.EDB, func() (*parallel.Program, error) {
			spec, err := generalSpec(g, n, uint64(seed))
			if err != nil {
				return nil, err
			}
			return parallel.BuildGeneral(g.Prog, spec)
		}})
	}
	return ins
}

// byPred renders a per-predicate count map in sorted order.
func byPred(m map[string]int64) string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	parts := make([]string, len(keys))
	for i, k := range keys {
		parts[i] = fmt.Sprintf("%s:%d", k, m[k])
	}
	return strings.Join(parts, ",")
}

// applySequence drives a seeded sequence of 200 Applies, each deleting up
// to two live base tuples (sometimes an absent one) and inserting up to two
// random ones, and renders one line of MaintainStats per Apply: Inserted,
// Deleted, Overdeleted, Rederived, Firings and Iterations.
func applySequence(t *testing.T, in counterInput, m *seminaive.IVM, seed int64) []string {
	t.Helper()
	var preds []string
	live := map[string][]relation.Tuple{}
	consts := map[ast.Value]bool{}
	for pred, rel := range in.edb {
		if !m.IsEDB(pred) {
			continue
		}
		preds = append(preds, pred)
		for _, tu := range rel.Rows() {
			live[pred] = append(live[pred], tu.Clone())
			for _, v := range tu {
				consts[v] = true
			}
		}
	}
	sort.Strings(preds)
	if len(preds) == 0 {
		return nil
	}
	pool := make([]ast.Value, 0, len(consts))
	for v := range consts {
		pool = append(pool, v)
	}
	sort.Slice(pool, func(i, j int) bool { return pool[i] < pool[j] })
	if len(pool) == 0 {
		pool = append(pool, in.prog.Interner.Intern("c0"))
	}
	rng := rand.New(rand.NewSource(seed))
	var lines []string
	for i := 0; i < 200; i++ {
		deletes := map[string][]relation.Tuple{}
		inserts := map[string][]relation.Tuple{}
		for n := rng.Intn(3); n > 0; n-- {
			pred := preds[rng.Intn(len(preds))]
			if l := live[pred]; len(l) > 0 && rng.Intn(4) > 0 {
				k := rng.Intn(len(l))
				deletes[pred] = append(deletes[pred], l[k])
				live[pred] = append(l[:k:k], l[k+1:]...)
				continue
			}
			tu := make(relation.Tuple, m.Arity(pred))
			for c := range tu {
				tu[c] = pool[rng.Intn(len(pool))]
			}
			deletes[pred] = append(deletes[pred], tu)
		}
		for n := rng.Intn(3); n > 0; n-- {
			pred := preds[rng.Intn(len(preds))]
			tu := make(relation.Tuple, m.Arity(pred))
			for c := range tu {
				tu[c] = pool[rng.Intn(len(pool))]
			}
			inserts[pred] = append(inserts[pred], tu)
			live[pred] = append(live[pred], tu)
		}
		st, err := m.Apply(deletes, inserts)
		if err != nil {
			t.Fatalf("%s apply %d: %v", in.name, i, err)
		}
		lines = append(lines, fmt.Sprintf("%d %d %d %d %d %d",
			st.Inserted, st.Deleted, st.Overdeleted, st.Rederived, st.Firings, st.Iterations))
	}
	return lines
}

// counterLines renders every counter the golden pins for one input.
func counterLines(t *testing.T, in counterInput, seed int64) []string {
	t.Helper()
	out := []string{"== " + in.name}
	_, st, err := seminaive.Eval(in.prog, in.edb, seminaive.Options{Profile: true})
	if err != nil {
		t.Fatalf("%s: Eval: %v", in.name, err)
	}
	out = append(out, fmt.Sprintf("eval iterations=%d firings=%d new=%d by_pred=%s",
		st.Iterations, st.Firings, st.New, byPred(st.FiringsByPred)))
	for _, rp := range st.Profile.Rules {
		out = append(out, fmt.Sprintf("profile %s | firings=%d new=%d dup=%d iterations=%d",
			rp.Key, rp.Firings, rp.New, rp.Dup, rp.Iterations))
		for i, a := range rp.Atoms {
			out = append(out, fmt.Sprintf("  atom %d %s probes=%d rows=%d matches=%d planned=%d",
				i, a.Pred, a.Probes, a.Rows, a.Matches, a.Planned))
		}
	}

	p, err := in.build()
	if err != nil {
		t.Fatalf("%s: build: %v", in.name, err)
	}
	res, err := parallel.RunLockstep(p, in.edb, parallel.RunConfig{})
	if err != nil {
		t.Fatalf("%s: RunLockstep: %v", in.name, err)
	}
	for _, ps := range res.Stats.Procs {
		out = append(out, fmt.Sprintf("proc %d firings=%d generated=%d dup=%d sent=%d recv=%d duprecv=%d iterations=%d edb=%d edges=%v",
			ps.Proc, ps.Firings, ps.Generated, ps.DupFirings, ps.TuplesSent, ps.TuplesReceived,
			ps.DupReceived, ps.Iterations, ps.EDBTuples, ps.Sent))
	}

	m, ist, err := seminaive.NewIVM(in.prog, in.edb, seminaive.Options{})
	if err != nil {
		return append(out, "ivm rejected: "+err.Error())
	}
	out = append(out, fmt.Sprintf("ivm iterations=%d firings=%d new=%d by_pred=%s",
		ist.Iterations, ist.Firings, ist.New, byPred(ist.FiringsByPred)))
	out = append(out, "apply: inserted deleted overdeleted rederived firings iterations")
	return append(out, applySequence(t, in, m, seed)...)
}

// TestCountersGolden pins the counters every semi-naive fixpoint produces —
// seminaive.Eval's Stats and profile records, RunLockstep's per-processor
// counters (except Busy), NewIVM's Stats and the MaintainStats of a seeded
// 200-Apply sequence — on Examples 1, 2, 3 and 8 and 50 generated programs.
// Run with -update-counters to rewrite the golden.
func TestCountersGolden(t *testing.T) {
	var got []string
	for i, in := range counterInputs(t) {
		got = append(got, counterLines(t, in, int64(i)*7919+1)...)
	}
	text := strings.Join(got, "\n") + "\n"
	if *updateCounters {
		if err := os.MkdirAll(filepath.Dir(countersGolden), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(countersGolden, []byte(text), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	data, err := os.ReadFile(countersGolden)
	if err != nil {
		t.Fatalf("%v (run with -update-counters to create it)", err)
	}
	want := strings.Split(strings.TrimSuffix(string(data), "\n"), "\n")
	if len(want) != len(got) {
		t.Errorf("golden has %d lines, run produced %d", len(want), len(got))
	}
	section := ""
	bad := 0
	for i := 0; i < len(got) && i < len(want); i++ {
		if strings.HasPrefix(got[i], "== ") {
			section = got[i]
		}
		if got[i] != want[i] {
			t.Errorf("%s line %d:\n got  %s\n want %s", section, i+1, got[i], want[i])
			if bad++; bad == 20 {
				t.Fatal("too many mismatches")
			}
		}
	}
}
