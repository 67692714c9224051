package main

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"parlog"
	"parlog/internal/analysis"
	"parlog/internal/ast"
	"parlog/internal/hashpart"
	"parlog/internal/parallel"
	"parlog/internal/parser"
	"parlog/internal/relation"
	"parlog/internal/rewrite"
	"parlog/internal/seminaive"
	"parlog/internal/wire"
)

// ancestorSrc is the paper's running example, the linear ancestor sirup.
const ancestorSrc = `anc(X, Y) :- par(X, Y).
anc(X, Y) :- par(X, Z), anc(Z, Y).
`

// The batch half of every workload: random(300, 900) gives a closure of
// about 79k tuples, about 40 ms of sequential work on a 2-CPU host — short enough that a
// run times a hundred or more evaluations per engine, and each run's
// median averages over the host's slow phases.
const (
	tcNodes   = 300
	tcEdges   = 900
	tcWorkers = 2
	tcWarmup  = 2 // reps run and checked but not timed
	tcMinReps = 5
)

// scheme is a choice of discriminating sequences v(r), v(e) for the
// ancestor sirup. Both are non-redundant, so every engine makes the same
// firings.
type scheme struct {
	vr, ve []string
}

var (
	// shuffle is Example 3 (v(r) = ⟨Z⟩): derived tuples go point-to-point.
	shuffle = scheme{vr: []string{"Z"}, ve: []string{"X"}}
	// local is Example 1 (v(r) = v(e) = ⟨Y⟩), Theorem 3's
	// communication-free choice: no tuple leaves its processor.
	local = scheme{vr: []string{"Y"}, ve: []string{"Y"}}
)

func (s scheme) opts(workers int) parlog.EvalOptions {
	return parlog.EvalOptions{Workers: workers, Strategy: parlog.StrategyHashPartition, VR: s.vr, VE: s.ve}
}

// randomGraph draws a simple digraph with no self-loops, returning the
// edges in the order drawn.
func randomGraph(nodes, edges int, seed int64) (*digraph, [][2]int32) {
	rng := rand.New(rand.NewSource(seed))
	g := newDigraph(nodes)
	list := make([][2]int32, 0, edges)
	for len(list) < edges {
		a, b := int32(rng.Intn(nodes)), int32(rng.Intn(nodes))
		if a != b && g.add(a, b) {
			list = append(list, [2]int32{a, b})
		}
	}
	return g, list
}

// buildTC is the batch half's set-up: parse the program and build the
// par relation. Node i is the value i.
func buildTC(list [][2]int32) (*parlog.Program, parlog.Store, error) {
	prog, err := parlog.Parse(ancestorSrc)
	if err != nil {
		return nil, nil, err
	}
	rel := parlog.NewRelation(2)
	for _, e := range list {
		rel.Insert(parlog.Tuple{parlog.Value(e[0]), parlog.Value(e[1])})
	}
	return prog, parlog.Store{"par": rel}, nil
}

func valueNode(n int) func(parlog.Value) (int32, bool) {
	return func(v parlog.Value) (int32, bool) { return int32(v), v >= 0 && int(v) < n }
}

// checkEval compares one evaluation with the oracle: the anc relation and
// the firing count, which Theorem 2 makes equal on every engine. Only anc
// is compared: Eval's Output also carries the par relation and
// EvalParallel's does not.
func checkEval(res *parlog.Result, err error, want *closure) error {
	if err != nil {
		return err
	}
	var firings int64
	switch {
	case res.SeqStats != nil:
		firings = res.SeqStats.Firings
	case res.Stats != nil:
		firings = res.Stats.TotalFirings()
	default:
		return fmt.Errorf("result carries no statistics")
	}
	if firings != want.firings {
		return fmt.Errorf("%d firings, the oracle counts %d", firings, want.firings)
	}
	return want.check(res.Output["anc"], valueNode(want.n))
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// The three engines of the public API.
const (
	engSeq = iota
	engPar
	engDist
)

// engineOrders rotates the order of the three calls rep by rep, so no
// engine always runs first after the set-up or last before the next rep.
var engineOrders = [6][3]int{{0, 1, 2}, {1, 2, 0}, {2, 0, 1}, {0, 2, 1}, {2, 1, 0}, {1, 0, 2}}

// engineNames are the spans of the three public calls in the traced run.
var engineNames = [3]string{engSeq: "parlog.Eval", engPar: "parlog.EvalParallel/2", engDist: "parlog.EvalDistributed/2"}

// tcYardstickRef is the wall time of graphOf over random(300, 900), the
// tc set-up's yardstick, on the reference host: its median in the runs of
// README.md's steadiness section. setup_s is given in that host's seconds
// (see setupSeconds).
const tcYardstickRef = 185e-6

// graphOf is the tc set-up's yardstick: the benchmark building its own
// copy of the edge set, map inserts and appends like building par.
func graphOf(n int, list [][2]int32) *digraph {
	g := newDigraph(n)
	for _, e := range list {
		g.add(e[0], e[1])
	}
	return g
}

// runTC runs the batch half of a workload. Each rep times the set-up
// after its yardstick, then the three public calls in rotating order,
// each after a GC, with the reference closure right before Eval. The traced run records
// these calls as spans and adds the layer calls of tcLayers.rep.
func runTC(cfg config, s scheme, t *tally, r report) (provenance, error) {
	prov := provenance{Workers: tcWorkers, Fsync: "none"}
	g, list := randomGraph(tcNodes, tcEdges, cfg.seed)
	want := closureOf(g)
	tr := cfg.tr
	ctx := context.Background()
	calls := [3]func(*parlog.Program, parlog.Store) (*parlog.Result, error){
		engSeq: func(p *parlog.Program, e parlog.Store) (*parlog.Result, error) {
			return parlog.Eval(ctx, p, e, parlog.EvalOptions{})
		},
		engPar: func(p *parlog.Program, e parlog.Store) (*parlog.Result, error) {
			return parlog.EvalParallel(ctx, p, e, s.opts(tcWorkers))
		},
		engDist: func(p *parlog.Program, e parlog.Store) (*parlog.Result, error) {
			return parlog.EvalDistributed(ctx, p, e, s.opts(tcWorkers))
		},
	}
	in := make([][]int32, tcNodes)
	for _, e := range list {
		in[e[1]] = append(in[e[1]], e[0])
	}
	var layers *tcLayers
	if tr != nil {
		layers = newTCLayers(s, want)
	}
	var setup, yard, alloc, ref []float64
	var times [3][]float64
	var refErr error
	deadline := time.Now().Add(cfg.measure)
	for rep := 0; refErr == nil && (rep < tcWarmup+tcMinReps || time.Now().Before(deadline)); rep++ {
		tr.do("rep", rep, func() {
			var prog *parlog.Program
			var edb parlog.Store
			var err error
			gc(tr, rep)
			yardD := tr.do("bench.yardstick", rep, func() { graphOf(tcNodes, list) })
			gc(tr, rep)
			setupD := tr.do("setup", rep, func() { prog, edb, err = buildTC(list) })
			if !t.record(err) {
				return
			}
			// The traced run's untraced EvalParallel, the baseline of
			// trace.overhead_ratio, runs first on even reps, last on odd.
			var untracedD time.Duration
			okU := true
			if layers != nil && rep%2 == 0 {
				untracedD, okU = layers.untracedPar(ctx, tr, rep, prog, edb, t)
			}
			var el [3]float64
			var res [3]*parlog.Result
			var refD time.Duration
			var allocBytes uint64
			ok := true
			for _, e := range engineOrders[rep%len(engineOrders)] {
				if e == engSeq {
					// The reference runs right before Eval, so the pair
					// sees the same host.
					gc(tr, rep)
					var size int
					var firings int64
					refD = tr.do("bench.reference", rep, func() { size, firings = hashClosure(list, in) })
					if size != want.total || firings != want.firings {
						refErr = fmt.Errorf("reference closure: %d tuples and %d firings, the oracle says %d and %d",
							size, firings, want.total, want.firings)
						return
					}
				}
				var m0, m1 runtime.MemStats
				gc(tr, rep)
				if e == engPar {
					runtime.ReadMemStats(&m0)
				}
				var err error
				d := tr.do(engineNames[e], rep, func() { res[e], err = calls[e](prog, edb) })
				if e == engPar {
					runtime.ReadMemStats(&m1)
					allocBytes = m1.TotalAlloc - m0.TotalAlloc
				}
				el[e] = ms(d)
				ok = t.record(checked(tr, rep, func() error { return checkEval(res[e], err, want) })) && ok
			}
			if layers != nil && rep%2 == 1 {
				untracedD, okU = layers.untracedPar(ctx, tr, rep, prog, edb, t)
			}
			if !ok || !okU {
				return
			}
			timed := rep >= tcWarmup
			if layers != nil && !layers.rep(tr, rep, timed, prog, edb, res[engDist], untracedD, t) {
				return
			}
			if !timed {
				return
			}
			setup = append(setup, setupD.Seconds())
			yard = append(yard, yardD.Seconds())
			alloc = append(alloc, float64(allocBytes)/1e6)
			ref = append(ref, ms(refD))
			for e := range el {
				times[e] = append(times[e], el[e])
			}
		})
	}
	if refErr != nil {
		return prov, refErr
	}
	if len(setup) == 0 {
		return prov, fmt.Errorf("no rep of %d completed", t.attempted)
	}
	if tr != nil {
		r.set("seq_ms", median(times[engSeq]), "ms")
		r.set("par_ms", median(times[engPar]), "ms")
		r.set("dist_ms", median(times[engDist]), "ms")
		return prov, layers.report(r, times)
	}
	setupS, err := setupSeconds(setup, yard, tcYardstickRef)
	if err != nil {
		return prov, err
	}
	parSpeedup, err := pairedRatio(times[engSeq], times[engPar])
	if err != nil {
		return prov, err
	}
	distSpeedup, err := pairedRatio(times[engSeq], times[engDist])
	if err != nil {
		return prov, err
	}
	seqOverRef, err := pairedRatio(times[engSeq], ref)
	if err != nil {
		return prov, err
	}
	// Wall times follow the host's speed, which moved by nearly 2x
	// between sets of runs, so this run reports ratios of calls from the
	// same rep and the traced run reports the times (README.md).
	fmt.Printf("# seq_ms %.3f  par_ms %.3f  dist_ms %.3f  ref_ms %.3f  setup_wall_s %.6f  yardstick_s %.6f (medians)\n",
		median(times[engSeq]), median(times[engPar]), median(times[engDist]), median(ref), median(setup), median(yard))
	r.add("setup_s", setupS, "s")
	r.set("seq_over_ref", seqOverRef, "ratio")
	r.set("par_speedup", parSpeedup, "ratio")
	r.set("dist_speedup", distSpeedup, "ratio")
	r.set("par_alloc_mb", median(alloc), "MB")
	fmt.Printf("# reps %d, %d evaluations per engine timed\n", len(setup)+tcWarmup, len(setup))
	return prov, nil
}

// hashClosure is the reference seq_over_ref divides by: the benchmark's
// own semi-naive evaluation of the ancestor program over Go maps, hash
// heavy like Eval. in[z] lists the sources of the edges into z. It
// returns the closure's size and its firings, which must match the
// oracle's.
func hashClosure(list [][2]int32, in [][]int32) (size int, firings int64) {
	seen := map[[2]int32]struct{}{}
	var delta, next [][2]int32
	for _, e := range list {
		firings++
		if _, ok := seen[e]; !ok {
			seen[e] = struct{}{}
			delta = append(delta, e)
		}
	}
	for len(delta) > 0 {
		next = next[:0]
		for _, d := range delta { // anc(z, y)
			for _, x := range in[d[0]] { // par(x, z)
				firings++
				t := [2]int32{x, d[1]}
				if _, ok := seen[t]; !ok {
					seen[t] = struct{}{}
					next = append(next, t)
				}
			}
		}
		delta, next = next, delta
	}
	return len(seen), firings
}

// tcLayers calls, in the traced run, the layers the batch half passes
// through: the rewrite and EDB partitioning the parallel engine compiles,
// its runtime, the sequential evaluator, the relation kernel, the wire
// codec, and one-worker EvalParallel for the per-worker tax. It collects
// their per-rep samples.
type tcLayers struct {
	s         scheme
	spec      rewrite.SirupSpec
	want      *closure
	probeHits int // what probing the first-column index once per closure row finds
	enc       []byte
	bounds    []int

	build, prepare, run, seqEval, insertNs, probeNs []float64
	busyMax, skew, wait, encNs, decNs               []float64
	par1, untraced, distSent                        []float64
	sent, messages, dupRecv, dupFiring              []float64
	firings, iterations, parFirings, distFirings    int64
	bytesPerTuple                                   float64
}

func newTCLayers(s scheme, want *closure) *tcLayers {
	L := &tcLayers{
		s:    s,
		spec: rewrite.SirupSpec{Procs: hashpart.RangeProcs(tcWorkers), VR: s.vr, VE: s.ve, H: hashpart.ModHash{N: tcWorkers}},
		want: want,
	}
	// Each source a contributes |reach(a)|² hits.
	for a := 0; a < want.n; a++ {
		k := popcount(want.row(a))
		L.probeHits += k * k
	}
	return L
}

// untracedPar times EvalParallel without a span, through a nil tracer.
func (L *tcLayers) untracedPar(ctx context.Context, tr *tracer, rep int, prog *parlog.Program, edb parlog.Store, t *tally) (time.Duration, bool) {
	var res *parlog.Result
	var err error
	var none *tracer
	gc(tr, rep)
	d := none.do("", rep, func() { res, err = parlog.EvalParallel(ctx, prog, edb, L.s.opts(tcWorkers)) })
	return d, t.record(checked(tr, rep, func() error { return checkEval(res, err, L.want) }))
}

// rep makes one rep's layer calls. dist is the rep's EvalDistributed
// result and untraced the time of its untraced EvalParallel. Samples are
// kept only when timed.
func (L *tcLayers) rep(tr *tracer, rep int, timed bool, prog *parlog.Program, edb parlog.Store, dist *parlog.Result, untraced time.Duration, t *tally) bool {
	add := func(dst *[]float64, v float64) {
		if timed {
			*dst = append(*dst, v)
		}
	}
	want := L.want
	var astProg *ast.Program
	var err error
	tr.do("parser.Parse", rep, func() { astProg, err = parser.Parse(ancestorSrc) })
	if !t.record(err) {
		return false
	}
	var pp *parallel.Program
	d := tr.do("rewrite.build", rep, func() {
		var sir *analysis.Sirup
		if sir, err = analysis.ExtractSirup(astProg); err == nil {
			pp, err = parallel.BuildQ(sir, L.spec)
		}
	})
	if !t.record(err) {
		return false
	}
	add(&L.build, ms(d))
	d = tr.do("hashpart.prepare", rep, func() { _, err = parallel.PrepareEDB(pp, edb) })
	if !t.record(err) {
		return false
	}
	add(&L.prepare, ms(d))

	var pres *parallel.Result
	gc(tr, rep)
	d = tr.do("parallel.run", rep, func() { pres, err = parallel.Run(pp, edb, parallel.RunConfig{}) })
	if err == nil && pres.Stats.TotalFirings() != want.firings {
		err = fmt.Errorf("parallel.Run made %d firings, the oracle counts %d", pres.Stats.TotalFirings(), want.firings)
	}
	if err == nil {
		err = checked(tr, rep, func() error { return want.check(pres.Output["anc"], valueNode(want.n)) })
	}
	if !t.record(err) {
		return false
	}
	add(&L.run, ms(d))
	st := pres.Stats
	var maxBusy, sumBusy time.Duration
	var recv, dupRecv, dupFiring int64
	for _, p := range st.Procs {
		maxBusy = max(maxBusy, p.Busy)
		sumBusy += p.Busy
		recv += p.TuplesReceived
		dupRecv += p.DupReceived
		dupFiring += p.DupFirings
	}
	add(&L.busyMax, ms(maxBusy))
	add(&L.skew, float64(maxBusy)/(float64(sumBusy)/float64(len(st.Procs))))
	add(&L.wait, ms(st.Wall-maxBusy))
	add(&L.sent, float64(st.TotalTuplesSent()))
	add(&L.messages, float64(st.TotalMessages()))
	add(&L.dupRecv, ratioOr0(dupRecv, recv))
	add(&L.dupFiring, ratioOr0(dupFiring, st.TotalFirings()))
	L.parFirings = st.TotalFirings()
	// The codec runs over batches of the run's tuples per message, or
	// over one batch when nothing was sent.
	batch := 0
	if st.TotalMessages() > 0 {
		batch = max(1, int(st.TotalTuplesSent()/st.TotalMessages()))
	}

	var model relation.Store
	var sst *seminaive.Stats
	gc(tr, rep)
	d = tr.do("seminaive.eval", rep, func() { model, sst, err = seminaive.Eval(astProg, edb, seminaive.Options{}) })
	if err == nil && sst.Firings != want.firings {
		err = fmt.Errorf("seminaive.Eval made %d firings, the oracle counts %d", sst.Firings, want.firings)
	}
	if err == nil {
		err = checked(tr, rep, func() error { return want.check(model["anc"], valueNode(want.n)) })
	}
	if !t.record(err) {
		return false
	}
	add(&L.seqEval, ms(d))
	L.firings, L.iterations = sst.Firings, int64(sst.Iterations)

	rows := model["anc"].Rows()
	if batch == 0 {
		batch = len(rows)
	}
	rel := relation.New(2)
	gc(tr, rep)
	d = tr.do("relation.insert", rep, func() {
		for _, row := range rows {
			rel.Insert(row)
		}
	})
	add(&L.insertNs, float64(d.Nanoseconds())/float64(len(rows)))
	ix := rel.IndexOn(0)
	hits := 0
	d = tr.do("relation.probe", rep, func() {
		n := rel.NumRows()
		for _, row := range rows {
			hits += len(ix.Probe(row[:1], 0, n))
		}
	})
	if !t.record(relationErr(rel.Len(), len(rows), hits, L.probeHits)) {
		return false
	}
	add(&L.probeNs, float64(d.Nanoseconds())/float64(len(rows)))

	d = tr.do("wire.encode", rep, func() {
		L.enc, L.bounds = L.enc[:0], L.bounds[:0]
		for off := 0; off < len(rows); off += batch {
			L.enc = wire.AppendBatch(L.enc, rows[off:min(off+batch, len(rows))])
			L.bounds = append(L.bounds, len(L.enc))
		}
	})
	add(&L.encNs, float64(d.Nanoseconds())/float64(len(rows)))
	L.bytesPerTuple = float64(len(L.enc)) / float64(len(rows))
	decoded := 0
	d = tr.do("wire.decode", rep, func() {
		from := 0
		for _, to := range L.bounds {
			var ts []relation.Tuple
			if ts, err = wire.DecodeBatch(L.enc[from:to]); err != nil {
				return
			}
			decoded += len(ts)
			from = to
		}
	})
	if err == nil && decoded != len(rows) {
		err = fmt.Errorf("wire decoded %d of %d tuples", decoded, len(rows))
	}
	if !t.record(err) {
		return false
	}
	add(&L.decNs, float64(d.Nanoseconds())/float64(len(rows)))

	// One-worker EvalParallel pairs with the rep's Eval for the tax.
	var res1 *parlog.Result
	gc(tr, rep)
	d = tr.do("parlog.EvalParallel/1", rep, func() {
		res1, err = parlog.EvalParallel(context.Background(), prog, edb, L.s.opts(1))
	})
	if !t.record(checked(tr, rep, func() error { return checkEval(res1, err, want) })) {
		return false
	}
	add(&L.par1, ms(d))
	add(&L.untraced, ms(untraced))
	add(&L.distSent, float64(dist.Stats.TotalTuplesSent()))
	L.distFirings = dist.Stats.TotalFirings()
	return true
}

// report sets the per-layer metrics. times holds the public calls' times
// in ms, indexed by engine, from the same reps as the layer samples.
func (L *tcLayers) report(r report, times [3][]float64) error {
	tax, err := pairedRatio(L.par1, times[engSeq])
	if err != nil {
		return err
	}
	distOver := make([]float64, len(times[engDist]))
	for i := range distOver {
		distOver[i] = times[engDist][i] - times[engPar][i]
	}
	r.set("rewrite.build_ms", median(L.build), "ms")
	r.set("hashpart.prepare_ms", median(L.prepare), "ms")
	r.set("seminaive.eval_ms", median(L.seqEval), "ms")
	r.set("seminaive.firings", float64(L.firings), "count")
	r.set("seminaive.iterations", float64(L.iterations), "count")
	r.set("seminaive.ns_per_firing", median(L.seqEval)*1e6/float64(L.firings), "ns")
	r.set("relation.insert_ns", median(L.insertNs), "ns")
	r.set("relation.probe_ns", median(L.probeNs), "ns")
	r.set("parallel.run_ms", median(L.run), "ms")
	r.set("parallel.tax", tax, "ratio")
	r.set("parallel.busy_max_ms", median(L.busyMax), "ms")
	r.set("parallel.skew", median(L.skew), "ratio")
	r.set("parallel.wait_ms", median(L.wait), "ms")
	r.set("parallel.sent_tuples", median(L.sent), "count")
	r.set("parallel.messages", median(L.messages), "count")
	r.set("parallel.dup_recv_ratio", median(L.dupRecv), "ratio")
	r.set("parallel.dup_firing_ratio", median(L.dupFiring), "ratio")
	r.set("parallel.firings", float64(L.parFirings), "count")
	r.set("wire.encode_ns", median(L.encNs), "ns")
	r.set("wire.decode_ns", median(L.decNs), "ns")
	r.set("wire.bytes_per_tuple", L.bytesPerTuple, "bytes")
	r.set("dist.overhead_ms", median(distOver), "ms")
	r.set("dist.sent_tuples", median(L.distSent), "count")
	r.set("dist.firings", float64(L.distFirings), "count")
	r.set("trace.overhead_ratio", median(times[engPar])/median(L.untraced), "ratio")
	return nil
}

// gc collects garbage before a timed call, so no call pays for its
// predecessor's garbage.
func gc(tr *tracer, rep int) { tr.do("bench.gc", rep, runtime.GC) }

// checked runs an oracle comparison in its own span, outside the timed one.
func checked(tr *tracer, rep int, f func() error) error {
	var err error
	tr.do("bench.check", rep, func() { err = f() })
	return err
}

func relationErr(n, rows, hits, wantHits int) error {
	if n != rows {
		return fmt.Errorf("relation kept %d of %d distinct rows", n, rows)
	}
	if hits != wantHits {
		return fmt.Errorf("index probes found %d rows, want %d", hits, wantHits)
	}
	return nil
}

func ratioOr0(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}
