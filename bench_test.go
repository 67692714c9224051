package parlog

// One benchmark per experiment of the per-experiment index in DESIGN.md
// (E1–E13). The paper's evaluation is qualitative, so these benchmarks pin
// the cost of regenerating each figure/claim and the relative costs of the
// schemes; `go test -bench=. -benchmem` reproduces every number recorded in
// EXPERIMENTS.md.

import (
	"context"
	"fmt"
	"runtime"
	"testing"

	"parlog/internal/analysis"
	"parlog/internal/dist"
	"parlog/internal/hashpart"
	"parlog/internal/network"
	"parlog/internal/parallel"
	"parlog/internal/relation"
	"parlog/internal/rewrite"
	"parlog/internal/seminaive"
	"parlog/internal/workload"
)

func benchSirup(b *testing.B) *analysis.Sirup {
	b.Helper()
	s, err := analysis.ExtractSirup(workload.AncestorProgram())
	if err != nil {
		b.Fatal(err)
	}
	return s
}

// reportGC starts counting garbage collections; the function it returns
// stops the timer and reports them as gc/op, the runtime.MemStats.NumGC
// delta per iteration. Call it once set-up is done and defer the result.
func reportGC(b *testing.B) func() {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	before := ms.NumGC
	return func() {
		b.StopTimer()
		runtime.ReadMemStats(&ms)
		b.ReportMetric(float64(ms.NumGC-before)/float64(b.N), "gc/op")
	}
}

// --- baseline: sequential evaluation ---

func BenchmarkSequentialSemiNaive(b *testing.B) {
	for _, wl := range []struct {
		name string
		par  *relation.Relation
	}{
		{"chain200", workload.Chain(200)},
		{"random100x400", workload.RandomGraph(100, 400, 7)},
		{"tree3x6", workload.Tree(3, 6)},
	} {
		b.Run(wl.name, func(b *testing.B) {
			edb := relation.Store{"par": wl.par}
			b.ReportAllocs()
			defer reportGC(b)()
			for i := 0; i < b.N; i++ {
				if _, _, err := seminaive.Eval(workload.AncestorProgram(), edb, seminaive.Options{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSequentialNaive is the semi-naive ablation: naive iteration
// recomputes every join each round.
func BenchmarkSequentialNaive(b *testing.B) {
	edb := relation.Store{"par": workload.Chain(60)}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, _, err := seminaive.Eval(workload.AncestorProgram(), edb, seminaive.Options{Naive: true}); err != nil {
			b.Fatal(err)
		}
	}
}

// --- E1/E2: dataflow graphs ---

func BenchmarkDataflowGraph(b *testing.B) {
	s, err := analysis.ExtractSirup(MustParse(`
p(U, V, W) :- s(U, V, W).
p(U, V, W) :- p(V, W, Z), q(U, Z).
`).ast)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		g := network.NewDataflow(s)
		if g.Cycle() != nil {
			b.Fatal("unexpected cycle")
		}
	}
}

// --- E3/E4: network derivation ---

func BenchmarkNetworkDeriveExample6(b *testing.B) {
	s, err := analysis.ExtractSirup(MustParse(`
p(X, Y) :- q(X, Y).
p(X, Y) :- p(Y, Z), r(X, Z).
`).ast)
	if err != nil {
		b.Fatal(err)
	}
	F := network.BitVectorF(2)
	procs := hashpart.RangeProcs(4)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := network.Derive(s, []string{"Y", "Z"}, []string{"X", "Y"}, F, F, procs); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkNetworkDeriveExample7(b *testing.B) {
	s, err := analysis.ExtractSirup(MustParse(`
p(U, V, W) :- s(U, V, W).
p(U, V, W) :- p(V, W, Z), q(U, Z).
`).ast)
	if err != nil {
		b.Fatal(err)
	}
	F := network.LinearF([]int{1, -1, 1})
	procs := hashpart.NewProcSet(-1, 0, 1, 2)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := network.Derive(s, []string{"V", "W", "Z"}, []string{"U", "V", "W"}, F, F, procs); err != nil {
			b.Fatal(err)
		}
	}
}

// --- E5: Examples 1–3 ---

func benchQ(b *testing.B, vr, ve []string, h hashpart.Func, n int, edb relation.Store) {
	b.Helper()
	s := benchSirup(b)
	p, err := parallel.BuildQ(s, rewrite.SirupSpec{
		Procs: hashpart.RangeProcs(n), VR: vr, VE: ve, H: h,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := parallel.Run(p, edb, parallel.RunConfig{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkExample1(b *testing.B) {
	edb := relation.Store{"par": workload.RandomGraph(100, 400, 7)}
	benchQ(b, []string{"Y"}, []string{"Y"}, hashpart.ModHash{N: 4}, 4, edb)
}

func BenchmarkExample2(b *testing.B) {
	par := workload.RandomGraph(100, 400, 7)
	frags := map[int]*relation.Relation{}
	for i := 0; i < 4; i++ {
		frags[i] = relation.New(2)
	}
	for k, t := range par.Rows() {
		frags[k%4].Insert(t)
	}
	h, err := hashpart.NewFragmentation(frags, hashpart.ModHash{N: 4})
	if err != nil {
		b.Fatal(err)
	}
	benchQ(b, []string{"X", "Z"}, []string{"X", "Y"}, h, 4, relation.Store{"par": par})
}

func BenchmarkExample3(b *testing.B) {
	edb := relation.Store{"par": workload.RandomGraph(100, 400, 7)}
	benchQ(b, []string{"Z"}, []string{"X"}, hashpart.ModHash{N: 4}, 4, edb)
}

// --- E6/E13: theorem verification cost (rewrite + declarative evaluation) ---

func BenchmarkTheoremCheckQ(b *testing.B) {
	prog := workload.AncestorProgram()
	s, err := analysis.ExtractSirup(prog)
	if err != nil {
		b.Fatal(err)
	}
	rw, err := rewrite.Q(s, rewrite.SirupSpec{
		Procs: hashpart.RangeProcs(3),
		VR:    []string{"Z"}, VE: []string{"X"},
		H: hashpart.ModHash{N: 3},
	})
	if err != nil {
		b.Fatal(err)
	}
	edb := relation.Store{"par": workload.RandomGraph(30, 90, 3)}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := seminaive.Eval(rw.Program, edb, seminaive.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// --- E7: trade-off sweep ---

func BenchmarkTradeoff(b *testing.B) {
	edb := relation.Store{"par": workload.RandomGraph(60, 240, 7)}
	shared := hashpart.ModHash{N: 4}
	for _, keep := range []int{0, 500, 1000} {
		keep := keep
		b.Run(fmt.Sprintf("locality%d", keep), func(b *testing.B) {
			s := benchSirup(b)
			p, err := parallel.BuildR(s, rewrite.RSpec{
				Procs: hashpart.RangeProcs(4),
				VR:    []string{"Z"}, VE: []string{"X"},
				HP: shared,
				HI: func(i int) hashpart.Func {
					return hashpart.Mix{Local: i, Shared: shared, KeepPermille: keep}
				},
			})
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := parallel.Run(p, edb, parallel.RunConfig{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- E8: Theorem 3 scheme ---

func BenchmarkTheorem3CommFree(b *testing.B) {
	s := benchSirup(b)
	spec, err := network.CommFree(s, hashpart.RangeProcs(4))
	if err != nil {
		b.Fatal(err)
	}
	p, err := parallel.BuildQ(s, *spec)
	if err != nil {
		b.Fatal(err)
	}
	edb := relation.Store{"par": workload.RandomGraph(100, 400, 7)}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := parallel.Run(p, edb, parallel.RunConfig{})
		if err != nil {
			b.Fatal(err)
		}
		if res.Stats.TotalTuplesSent() != 0 {
			b.Fatal("communication in Theorem 3 scheme")
		}
	}
}

// --- E9: worker scaling ---

// BenchmarkSpeedupWorkers runs Example 3 at N = 1, 2, 4, 8 next to the
// sequential engine on the same input, so its output reads as speedup over
// Eval as well as over N=1.
func BenchmarkSpeedupWorkers(b *testing.B) {
	edb := relation.Store{"par": workload.RandomGraph(150, 600, 11)}
	b.Run("Eval", func(b *testing.B) {
		prog := workload.AncestorProgram()
		b.ReportAllocs()
		defer reportGC(b)()
		for i := 0; i < b.N; i++ {
			if _, _, err := seminaive.Eval(prog, edb, seminaive.Options{}); err != nil {
				b.Fatal(err)
			}
		}
	})
	for _, n := range []int{1, 2, 4, 8} {
		n := n
		b.Run(fmt.Sprintf("N%d", n), func(b *testing.B) {
			s := benchSirup(b)
			p, err := parallel.BuildQ(s, rewrite.SirupSpec{
				Procs: hashpart.RangeProcs(n),
				VR:    []string{"Z"}, VE: []string{"X"},
				H: hashpart.ModHash{N: n},
			})
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			defer reportGC(b)()
			for i := 0; i < b.N; i++ {
				if _, err := parallel.Run(p, edb, parallel.RunConfig{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- E10: general scheme ---

func BenchmarkGeneralNonlinear(b *testing.B) {
	h := hashpart.ModHash{N: 4}
	p, err := parallel.BuildGeneral(workload.NonlinearAncestorProgram(), rewrite.GeneralSpec{
		Procs: hashpart.RangeProcs(4),
		Rules: []rewrite.RuleSpec{{Seq: []string{"Y"}, H: h}, {Seq: []string{"Z"}, H: h}},
	})
	if err != nil {
		b.Fatal(err)
	}
	edb := relation.Store{"par": workload.RandomGraph(60, 240, 13)}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := parallel.Run(p, edb, parallel.RunConfig{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkGeneralSameGen(b *testing.B) {
	h := hashpart.ModHash{N: 4}
	p, err := parallel.BuildGeneral(workload.SameGenProgram(), rewrite.GeneralSpec{
		Procs: hashpart.RangeProcs(4),
		Rules: []rewrite.RuleSpec{{Seq: []string{"X"}, H: h}, {Seq: []string{"U"}, H: h}},
	})
	if err != nil {
		b.Fatal(err)
	}
	up, flat, down := workload.SameGenInput(3, 5)
	edb := relation.Store{"up": up, "flat": flat, "down": down}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := parallel.Run(p, edb, parallel.RunConfig{}); err != nil {
			b.Fatal(err)
		}
	}
}

// --- E11: witness search ---

func BenchmarkWitnessSearch(b *testing.B) {
	s, err := analysis.ExtractSirup(MustParse(`
p(X, Y) :- q(X, Y).
p(X, Y) :- p(Y, Z), r(X, Z).
`).ast)
	if err != nil {
		b.Fatal(err)
	}
	procs := hashpart.RangeProcs(4)
	F := network.BitVectorF(2)
	d, err := network.Derive(s, []string{"Y", "Z"}, []string{"X", "Y"}, F, F, procs)
	if err != nil {
		b.Fatal(err)
	}
	h := network.FuncFromBits("h6", F, hashpart.GParity)
	spec := rewrite.SirupSpec{Procs: procs, VR: []string{"Y", "Z"}, VE: []string{"X", "Y"}, H: h, HP: h}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := network.FindWitnesses(s, d, spec, 10, 6, int64(i)); err != nil {
			b.Fatal(err)
		}
	}
}

// --- E12: restricted topology ---

func BenchmarkRestrictedTopology(b *testing.B) {
	s, err := analysis.ExtractSirup(MustParse(`
p(X, Y) :- q(X, Y).
p(X, Y) :- p(Y, Z), r(X, Z).
`).ast)
	if err != nil {
		b.Fatal(err)
	}
	procs := hashpart.RangeProcs(4)
	F := network.BitVectorF(2)
	d, err := network.Derive(s, []string{"Y", "Z"}, []string{"X", "Y"}, F, F, procs)
	if err != nil {
		b.Fatal(err)
	}
	h := network.FuncFromBits("h6", F, hashpart.GParity)
	p, err := parallel.BuildQ(s, rewrite.SirupSpec{
		Procs: procs, VR: []string{"Y", "Z"}, VE: []string{"X", "Y"}, H: h,
	})
	if err != nil {
		b.Fatal(err)
	}
	edb := relation.Store{
		"q": workload.RandomGraph(24, 70, 1),
		"r": workload.RandomGraph(24, 70, 2),
	}
	topo := parallel.NewTopology(d.CrossEdges())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := parallel.Run(p, edb, parallel.RunConfig{Topology: topo}); err != nil {
			b.Fatal(err)
		}
	}
}

// --- parsing ---

func BenchmarkParse(b *testing.B) {
	var src string
	{
		prog := workload.AncestorProgram()
		src = prog.String()
		for i := 0; i < 500; i++ {
			src += fmt.Sprintf("par(v%d, v%d).\n", i, i+1)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Parse(src); err != nil {
			b.Fatal(err)
		}
	}
}

// --- transport ablation: goroutine channels vs TCP sockets ---

func BenchmarkTransports(b *testing.B) {
	edb := relation.Store{"par": workload.RandomGraph(60, 240, 7)}
	s := func() *analysis.Sirup {
		s, err := analysis.ExtractSirup(workload.AncestorProgram())
		if err != nil {
			b.Fatal(err)
		}
		return s
	}()
	p, err := parallel.BuildQ(s, rewrite.SirupSpec{
		Procs: hashpart.RangeProcs(4),
		VR:    []string{"Z"}, VE: []string{"X"},
		H: hashpart.ModHash{N: 4},
	})
	if err != nil {
		b.Fatal(err)
	}
	b.Run("goroutines", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := parallel.Run(p, edb, parallel.RunConfig{}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("tcp", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := dist.Run(p, edb, dist.Config{}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// --- stratified negation (extension) ---

func BenchmarkStratifiedNegation(b *testing.B) {
	g := workload.RandomGraph(60, 200, 3)
	var src string
	{
		s := `
reach(X) :- source(X).
reach(Y) :- reach(X), edge(X, Y).
unreachable(X) :- node(X), !reach(X).
source(n0).
`
		for _, e := range g.Rows() {
			s += fmt.Sprintf("edge(n%d, n%d).\n", e[0], e[1])
		}
		for i := 0; i < 60; i++ {
			s += fmt.Sprintf("node(n%d).\n", i)
		}
		src = s
	}
	prog := MustParse(src)
	b.Run("sequential", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := Eval(context.Background(), prog, nil, EvalOptions{}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("parallel4", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := EvalParallel(context.Background(), prog, nil, EvalOptions{Workers: 4}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// --- observability: cost of the event layer on the transitive-closure run ---

// BenchmarkObservability pins the tentpole's zero-cost claim: "off" (no
// sink) must stay within noise of the pre-observability engine, "counting"
// shows the price of the built-in metrics sink, and "profile" the price of
// the runtime profiler's counters (its off path is "off"). Run with
// -bench=Observability and compare each mode against off.
func BenchmarkObservability(b *testing.B) {
	src := `
anc(X, Y) :- par(X, Y).
anc(X, Y) :- par(X, Z), anc(Z, Y).
`
	for i := 0; i < 300; i++ {
		src += fmt.Sprintf("par(v%d, v%d).\npar(v%d, v%d).\n", i, (i+1)%300, i, (i*7+3)%300)
	}
	prog := MustParse(src)
	var edb Store
	for _, engine := range []struct {
		name    string
		workers int // 0 for the sequential engine, which rejects Workers
		run     func(opts EvalOptions) error
	}{
		{"seq", 0, func(opts EvalOptions) error {
			_, err := Eval(context.Background(), prog, edb, opts)
			return err
		}},
		{"par4", 4, func(opts EvalOptions) error {
			_, err := EvalParallel(context.Background(), prog, edb, opts)
			return err
		}},
	} {
		for _, mode := range []struct {
			name string
			opts EvalOptions
		}{
			{"off", EvalOptions{Workers: engine.workers}},
			{"counting", EvalOptions{Workers: engine.workers, Metrics: true}},
			{"profile", EvalOptions{Workers: engine.workers, Profile: true}},
		} {
			b.Run(engine.name+"/"+mode.name, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if err := engine.run(mode.opts); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
