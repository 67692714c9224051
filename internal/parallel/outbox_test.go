package parallel

import (
	"slices"
	"testing"

	"parlog/internal/ast"
	"parlog/internal/hashpart"
	"parlog/internal/parser"
	"parlog/internal/rewrite"
)

// initAndRun fires every node's Init, then delivers what they send until
// the network is quiet.
func (net *handNet) initAndRun() {
	for wi, n := range net.nodes {
		n.Init(net.emit(wi))
	}
	net.run()
}

// TestWindowsShareArena checks the copy-free send path of a point-to-point
// scheme (Example 3 on two nodes): every batch a node emits is a window of
// its channel relation's arena, capacity-capped at its last row, and the
// batches sent over one channel, concatenated, are that relation's rows in
// order.
func TestWindowsShareArena(t *testing.T) {
	prog := parser.MustParse(ancestorRules + randomParFacts(30, 90, 5))
	p, err := BuildQ(mustSirup(t, prog), rewrite.SirupSpec{
		Procs: hashpart.RangeProcs(2),
		VR:    []string{"Z"}, VE: []string{"X"},
		H: hashpart.ModHash{N: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	net := handNetOf(t, p)
	sent := map[[2]int][]ast.Value{}
	net.onEmit = func(hb handBatch) {
		s, b := &net.nodes[hb.from].preds[p.slots[hb.pred]], hb.batch
		w := s.out[hb.dest].Flat(s.sent[hb.dest] - b.N)
		if b.N == 0 || &b.Vals[0] != &w.Vals[0] || len(b.Vals) != len(w.Vals) || cap(b.Vals) != len(b.Vals) {
			t.Errorf("node %d → %d: a batch of %d tuples is not the window of its channel relation", hb.from, hb.dest, b.N)
		}
		key := [2]int{hb.from, hb.dest}
		sent[key] = append(sent[key], b.Vals...)
	}
	net.initAndRun()
	if len(net.sent) == 0 {
		t.Fatal("no batch was sent")
	}
	for wi, n := range net.nodes {
		s := &n.preds[p.slots["anc"]]
		for d := range net.nodes {
			if d == wi {
				continue
			}
			var rows []ast.Value
			if s.out[d] != nil {
				rows = s.out[d].Flat(0).Vals
			}
			if got := sent[[2]int{wi, d}]; !slices.Equal(got, rows) {
				t.Errorf("node %d → %d sent %d values, its channel relation holds %d", wi, d, len(got), len(rows))
			}
		}
	}
}

// TestGeneratedOnce checks, for schemes whose tuples have several
// destinations — Example 2's broadcast and Example 8's general scheme, on
// three nodes — that each node stores each tuple it generated exactly once
// (its origin-marked @in rows and its channel relations together count its
// Generated), and that pooling the nodes gives the least model.
func TestGeneratedOnce(t *testing.T) {
	facts := randomParFacts(16, 40, 3)
	h := hashpart.ModHash{N: 3}
	general := parser.MustParse("anc(X, Y) :- par(X, Y).\nanc(X, Y) :- anc(X, Z), anc(Z, Y).\n" + facts)
	pg, err := BuildGeneral(general, rewrite.GeneralSpec{
		Procs: hashpart.RangeProcs(3),
		Rules: []rewrite.RuleSpec{{Seq: []string{"Y"}, H: h}, {Seq: []string{"Z"}, H: h}},
	})
	if err != nil {
		t.Fatal(err)
	}
	linear := parser.MustParse(ancestorRules + facts)
	pb, err := BuildQ(mustSirup(t, linear), rewrite.SirupSpec{
		Procs: hashpart.RangeProcs(3),
		VR:    []string{"X", "Z"}, VE: []string{"X", "Y"},
		H: h,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		prog *ast.Program
		p    *Program
	}{{"Example8General", general, pg}, {"Example2Broadcast", linear, pb}} {
		t.Run(c.name, func(t *testing.T) {
			seq, _ := seqEval(t, c.prog)
			net := handNetOf(t, c.p)
			net.initAndRun()
			var stored, generated int64
			for _, n := range net.nodes {
				for si := range n.preds {
					stored += int64(n.preds[si].generatedLen(nil))
				}
				generated += n.Stats().Generated
			}
			if stored != generated || generated == 0 {
				t.Errorf("nodes store %d generated rows, their Generated counts %d", stored, generated)
			}
			if got := Pool(net.nodes)["anc"]; !seq["anc"].Equal(got) {
				t.Errorf("pooled %d tuples, the least model has %d", got.Len(), seq["anc"].Len())
			}
		})
	}
}
