package parallel

import (
	"testing"

	"parlog/internal/hashpart"
	"parlog/internal/obs"
	"parlog/internal/parser"
	"parlog/internal/relation"
	"parlog/internal/rewrite"
)

// TestChaosDuplicateDelivery injects at-least-once delivery: every batch
// arrives twice. Duplicate elimination by difference (the paper's receive
// step) must keep results and firing counts identical, and the duplicates
// must be visible in DupReceived.
func TestChaosDuplicateDelivery(t *testing.T) {
	src := ancestorRules + randomParFacts(12, 26, 31)
	prog := parser.MustParse(src)
	seq, seqStats := seqEval(t, prog)
	s := mustSirup(t, prog)
	p, err := BuildQ(s, rewrite.SirupSpec{
		Procs: hashpart.RangeProcs(4),
		VR:    []string{"Z"}, VE: []string{"X"},
		H: hashpart.ModHash{N: 4},
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(p, relation.Store{}, RunConfig{ChaosDuplicate: true})
	if err != nil {
		t.Fatal(err)
	}
	if !seq["anc"].Equal(res.Output["anc"]) {
		t.Fatal("duplicated delivery changed the result")
	}
	if got, want := res.Stats.TotalFirings(), seqStats.Firings; got != want {
		t.Errorf("firings %d != %d — duplicates caused recomputation", got, want)
	}
	var dup int64
	for _, ps := range res.Stats.Procs {
		dup += ps.DupReceived
	}
	if res.Stats.TotalTuplesSent() > 0 && dup == 0 {
		t.Error("duplication enabled but no duplicate receives recorded")
	}
}

// TestChaosDuplicateWithRestrictedTopology combines fault injection with a
// restricted interconnect: duplicated sends still traverse only derived
// links.
func TestChaosDuplicateWithRestrictedTopology(t *testing.T) {
	src := ancestorRules + randomParFacts(10, 20, 33)
	prog := parser.MustParse(src)
	seq, _ := seqEval(t, prog)
	s := mustSirup(t, prog)
	p, err := BuildQ(s, rewrite.SirupSpec{
		Procs: hashpart.RangeProcs(2),
		VR:    []string{"Y"}, VE: []string{"Y"},
		H: hashpart.ModHash{N: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Example 1 needs no cross links even under duplication.
	res, err := Run(p, relation.Store{}, RunConfig{
		Topology:       NewTopology(nil),
		ChaosDuplicate: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !seq["anc"].Equal(res.Output["anc"]) {
		t.Error("result differs")
	}
}

// TestChaosCountingSink attaches the counting sink while duplicate
// delivery is active. The sink hears the same events the Stats accounting
// counts, by different code paths — so every aggregate in the snapshot must
// agree exactly with the run's Stats, and under `go test -race` this
// doubles as the concurrency check on the sink's hot paths.
func TestChaosCountingSink(t *testing.T) {
	src := ancestorRules + randomParFacts(12, 26, 34)
	prog := parser.MustParse(src)
	seq, _ := seqEval(t, prog)
	s := mustSirup(t, prog)
	p, err := BuildQ(s, rewrite.SirupSpec{
		Procs: hashpart.RangeProcs(4),
		VR:    []string{"Z"}, VE: []string{"X"},
		H: hashpart.ModHash{N: 4},
	})
	if err != nil {
		t.Fatal(err)
	}
	c := obs.NewCounting()
	res, err := Run(p, relation.Store{}, RunConfig{Sink: c, ChaosDuplicate: true})
	if err != nil {
		t.Fatal(err)
	}
	if !seq["anc"].Equal(res.Output["anc"]) {
		t.Fatal("chaos run changed the result")
	}
	m := c.Snapshot()
	if m.Engine != "parallel" || len(m.Procs) != 4 {
		t.Fatalf("snapshot engine=%q procs=%d", m.Engine, len(m.Procs))
	}
	var firings, sent, recv, dup, edgeTuples int64
	for _, pm := range m.Procs {
		firings += pm.Firings
		sent += pm.TuplesSent
		recv += pm.TuplesReceived
		dup += pm.DupReceived
		if pm.Transitions == 0 {
			t.Errorf("proc %d never transitioned busy/idle", pm.Proc)
		}
	}
	for _, e := range m.Edges {
		edgeTuples += e.Tuples
	}
	if got := res.Stats.TotalFirings(); firings != got {
		t.Errorf("sink firings %d != stats %d", firings, got)
	}
	if got := res.Stats.TotalTuplesSent(); sent != got {
		t.Errorf("sink sent %d != stats %d", sent, got)
	}
	if edgeTuples != sent {
		t.Errorf("per-edge tuples %d != sent %d", edgeTuples, sent)
	}
	var statsRecv, statsDup int64
	for _, ps := range res.Stats.Procs {
		statsRecv += ps.TuplesReceived
		statsDup += ps.DupReceived
	}
	if recv != statsRecv || dup != statsDup {
		t.Errorf("sink recv/dup %d/%d != stats %d/%d", recv, dup, statsRecv, statsDup)
	}
	if sent > 0 && dup == 0 {
		t.Error("duplication enabled but sink saw no duplicate receives")
	}
}
