package parallel

import (
	"strings"
	"testing"
	"testing/quick"

	"parlog/internal/ast"
	"parlog/internal/hashpart"
	"parlog/internal/parser"
	"parlog/internal/relation"
	"parlog/internal/rewrite"
)

func TestTopology(t *testing.T) {
	topo := NewTopology([][2]int{{0, 1}, {2, 0}})
	if !topo.Allowed(0, 1) || !topo.Allowed(2, 0) {
		t.Error("listed edges not allowed")
	}
	if topo.Allowed(1, 0) {
		t.Error("missing edge allowed")
	}
	if !topo.Allowed(5, 5) {
		t.Error("self-loop not allowed")
	}
	var nilTopo *Topology
	if !nilTopo.Allowed(3, 4) {
		t.Error("nil topology should be a full mesh")
	}
	edges := topo.Edges()
	if len(edges) != 2 || edges[0] != [2]int{0, 1} || edges[1] != [2]int{2, 0} {
		t.Errorf("Edges = %v", edges)
	}
}

func TestStatsAccessors(t *testing.T) {
	s := &Stats{
		Procs: []ProcStats{
			{Proc: 0, Firings: 10, TuplesSent: 3, DupFirings: 1, Busy: 5},
			{Proc: 1, Firings: 20, TuplesSent: 0, DupFirings: 2, Busy: 9},
		},
		Edges: map[[2]int]*EdgeStats{
			{0, 1}: {Messages: 2, Tuples: 3},
			{1, 1}: {Messages: 1, Tuples: 7}, // self edge: not a cross edge
			{1, 0}: {Messages: 0, Tuples: 0}, // unused: not reported
		},
	}
	if s.TotalFirings() != 30 {
		t.Errorf("TotalFirings = %d", s.TotalFirings())
	}
	if s.TotalTuplesSent() != 3 {
		t.Errorf("TotalTuplesSent = %d", s.TotalTuplesSent())
	}
	if s.TotalMessages() != 3 {
		t.Errorf("TotalMessages = %d", s.TotalMessages())
	}
	if s.TotalDupFirings() != 3 {
		t.Errorf("TotalDupFirings = %d", s.TotalDupFirings())
	}
	if s.MaxBusy() != 9 {
		t.Errorf("MaxBusy = %v", s.MaxBusy())
	}
	used := s.UsedEdges()
	if len(used) != 1 || used[0] != [2]int{0, 1} {
		t.Errorf("UsedEdges = %v", used)
	}
	if !strings.Contains(s.String(), "proc 0") || !strings.Contains(s.String(), "proc 1") {
		t.Errorf("String() = %q", s.String())
	}
}

func TestBuildValidation(t *testing.T) {
	prog := parser.MustParse(ancestorRules)
	s := mustSirup(t, prog)
	// Empty processor set.
	if _, err := BuildQ(s, rewrite.SirupSpec{VR: []string{"Z"}, VE: []string{"X"}, H: hashpart.ModHash{N: 1}}); err == nil {
		t.Error("nil processor set accepted")
	}
	// Bad discriminating variable.
	if _, err := BuildQ(s, rewrite.SirupSpec{
		Procs: hashpart.RangeProcs(2), VR: []string{"NOPE"}, VE: []string{"X"}, H: hashpart.ModHash{N: 2},
	}); err == nil {
		t.Error("unknown v(r) accepted")
	}
	// General scheme spec count mismatch.
	if _, err := BuildGeneral(prog, rewrite.GeneralSpec{
		Procs: hashpart.RangeProcs(2),
		Rules: []rewrite.RuleSpec{{Seq: []string{"Z"}, H: hashpart.ModHash{N: 2}}},
	}); err == nil {
		t.Error("wrong rule-spec count accepted")
	}
}

// Property: Topology.Allowed agrees with the edge set it was built from.
func TestTopologyProperty(t *testing.T) {
	f := func(raw [][2]uint8) bool {
		edges := make([][2]int, len(raw))
		for i, e := range raw {
			edges[i] = [2]int{int(e[0]) % 8, int(e[1]) % 8}
		}
		topo := NewTopology(edges)
		set := map[[2]int]bool{}
		for _, e := range edges {
			set[e] = true
		}
		for i := 0; i < 8; i++ {
			for j := 0; j < 8; j++ {
				want := set[[2]int{i, j}] || i == j
				if topo.Allowed(i, j) != want {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestNegationInParallelBuild: negated atoms compile as replicated EDB needs
// and produce the stratified result when lower strata arrive as base
// relations.
func TestNegationInParallelBuild(t *testing.T) {
	prog := parser.MustParse(`
unreachable(X) :- node(X), !reach(X).
`)
	h := hashpart.ModHash{N: 2}
	p, err := BuildGeneral(prog, rewrite.GeneralSpec{
		Procs: hashpart.RangeProcs(2),
		Rules: []rewrite.RuleSpec{{Seq: []string{"X"}, H: h}},
	})
	if err != nil {
		t.Fatal(err)
	}
	edb := relation.Store{}
	edb.InsertAll("node", [][]ast.Value{{1}, {2}, {3}})
	edb.InsertAll("reach", [][]ast.Value{{2}})
	res, err := Run(p, edb, RunConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Output["unreachable"].Len() != 2 {
		t.Errorf("|unreachable| = %d, want 2", res.Output["unreachable"].Len())
	}
	// The negated relation must be fully replicated at both workers.
	pl := res.Stats.Placements["reach"]
	for i, n := range pl.TuplesPerProc {
		if n != 1 {
			t.Errorf("proc %d holds %d reach tuples, want full copy 1", i, n)
		}
	}
	// Negating a same-phase derived predicate is rejected.
	bad := parser.MustParse(`
p(X) :- node(X), !q(X).
q(X) :- node(X).
`)
	if _, err := BuildGeneral(bad, rewrite.GeneralSpec{
		Procs: hashpart.RangeProcs(2),
		Rules: []rewrite.RuleSpec{{Seq: []string{"X"}, H: h}, {Seq: []string{"X"}, H: h}},
	}); err == nil {
		t.Error("same-phase negation accepted")
	}
}
