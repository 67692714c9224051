package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"parlog"
)

func TestQuantile(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	cases := []struct{ q, want float64 }{{0, 1}, {0.25, 2}, {0.5, 3}, {0.9, 4.6}, {1, 5}}
	for _, c := range cases {
		if got := quantile(xs, c.q); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("quantile(%v, %v) = %v, want %v", xs, c.q, got, c.want)
		}
	}
	if xs[0] != 5 {
		t.Errorf("quantile reordered its input: %v", xs)
	}
	if got := median([]float64{7}); got != 7 {
		t.Errorf("median of one sample = %v", got)
	}
	if !math.IsNaN(median(nil)) {
		t.Errorf("median of no samples is not NaN")
	}
}

func TestBeyond(t *testing.T) {
	cases := []struct {
		n    int
		q    float64
		want int
	}{{1000, 0.99, 10}, {999, 0.99, 10}, {100, 0.99, 1}, {1001, 0.5, 500}, {0, 0.99, 0}, {1, 0.99, 0}}
	for _, c := range cases {
		if got := beyond(c.n, c.q); got != c.want {
			t.Errorf("beyond(%d, %v) = %d, want %d", c.n, c.q, got, c.want)
		}
	}
	// The count agrees with the samples that rank above the quantile.
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(i)
	}
	p99, above := quantile(xs, 0.99), 0
	for _, x := range xs {
		if x > p99 {
			above++
		}
	}
	if above != beyond(len(xs), 0.99) {
		t.Errorf("%d samples above p99, beyond says %d", above, beyond(len(xs), 0.99))
	}
}

func TestPairedRatio(t *testing.T) {
	// Each pair shares a rep: the second rep runs everything twice as
	// slow, and the paired ratio does not see it.
	num := []float64{10, 20, 11}
	den := []float64{5, 10, 5}
	got, err := pairedRatio(num, den)
	if err != nil || got != 2 {
		t.Fatalf("pairedRatio = %v, %v; want 2", got, err)
	}
	if _, err := pairedRatio([]float64{1}, []float64{1, 2}); err == nil {
		t.Errorf("pairedRatio accepted samples of different lengths")
	}
	if _, err := pairedRatio([]float64{1}, []float64{0}); err == nil {
		t.Errorf("pairedRatio accepted a zero denominator")
	}
}

func TestClosureOracle(t *testing.T) {
	// 0→1→2→0 is a cycle; 2→3 leaves it.
	g := newDigraph(4)
	for _, e := range [][2]int32{{0, 1}, {1, 2}, {2, 0}, {2, 3}} {
		g.add(e[0], e[1])
	}
	c := closureOf(g)
	if c.total != 12 {
		t.Errorf("closure has %d pairs, want 12", c.total)
	}
	// Exit rule: 4 firings. Recursive rule: each anc(z, y) once per edge
	// into z — node 0 has in-degree 1 and reaches 4 nodes, and so on.
	if want := int64(4 + 1*4 + 1*4 + 1*4 + 1*0); c.firings != want {
		t.Errorf("oracle counts %d firings, want %d", c.firings, want)
	}
	res, err := parlog.Eval(context.Background(), parlog.MustParse(ancestorSrc), edbOf(g), parlog.EvalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := checkEval(res, nil, c); err != nil {
		t.Fatalf("a correct evaluation fails the oracle: %v", err)
	}
	g.remove(2, 3)
	if closureOf(g).total != 9 {
		t.Errorf("closure after removing 2→3 has %d pairs, want 9", closureOf(g).total)
	}
}

func TestOracleAgreesWithEngines(t *testing.T) {
	g, list := randomGraph(60, 150, 3)
	want := closureOf(g)
	prog, edb, err := buildTC(list)
	if err != nil {
		t.Fatal(err)
	}
	in := make([][]int32, 60)
	for _, e := range list {
		in[e[1]] = append(in[e[1]], e[0])
	}
	if size, firings := hashClosure(list, in); size != want.total || firings != want.firings {
		t.Errorf("reference closure: %d tuples, %d firings; oracle %d, %d", size, firings, want.total, want.firings)
	}
	ctx := context.Background()
	for _, s := range []scheme{shuffle, local} {
		seq, err := parlog.Eval(ctx, prog, edb, parlog.EvalOptions{})
		if err := checkEval(seq, err, want); err != nil {
			t.Errorf("Eval: %v", err)
		}
		par, err := parlog.EvalParallel(ctx, prog, edb, s.opts(2))
		if err := checkEval(par, err, want); err != nil {
			t.Errorf("EvalParallel %v: %v", s.vr, err)
		}
	}
}

func TestWrongTupleCountsAsFailure(t *testing.T) {
	g, list := randomGraph(40, 60, 5)
	want := closureOf(g)
	prog, edb, err := buildTC(list)
	if err != nil {
		t.Fatal(err)
	}
	var tl tally
	res, err := parlog.Eval(context.Background(), prog, edb, parlog.EvalOptions{})
	tl.record(checkEval(res, err, want))
	if tl.failed != 0 {
		t.Fatalf("correct evaluation counted as failed")
	}
	// Inject one tuple outside the closure: a node reaching itself
	// without a cycle through it.
	for a := int32(0); a < 40; a++ {
		if want.row(int(a))[a>>6]&(1<<(a&63)) == 0 {
			res.Output["anc"].Insert(parlog.Tuple{parlog.Value(a), parlog.Value(a)})
			break
		}
	}
	tl.record(checkEval(res, nil, want))
	if tl.attempted != 2 || tl.failed != 1 {
		t.Errorf("tally after a wrong tuple: attempted %d failed %d, want 2 and 1", tl.attempted, tl.failed)
	}

	// A wrong firing count fails too, with the right tuples.
	res, _ = parlog.Eval(context.Background(), prog, edb, parlog.EvalOptions{})
	res.SeqStats.Firings++
	if tl.record(checkEval(res, nil, want)); tl.failed != 2 {
		t.Errorf("a wrong firing count was not counted as failed")
	}
}

func TestCheckAnswers(t *testing.T) {
	g := newDigraph(5)
	g.add(0, 1)
	g.add(1, 2)
	g.add(3, 4)
	row := make([]uint64, g.words())
	k := g.reach(0, row, nil)
	node := valueNode(5)
	tup := func(a, b int) parlog.Tuple { return parlog.Tuple{parlog.Value(a), parlog.Value(b)} }
	if err := checkAnswers([]parlog.Tuple{tup(0, 2), tup(0, 1)}, 0, row, k, node); err != nil {
		t.Errorf("correct answers rejected: %v", err)
	}
	for _, bad := range [][]parlog.Tuple{
		{tup(0, 1)},                       // missing one
		{tup(0, 1), tup(0, 4)},            // wrong one
		{tup(0, 1), tup(0, 1)},            // one twice
		{tup(1, 2), tup(0, 1)},            // wrong source
		{tup(0, 1), tup(0, 2), tup(0, 3)}, // one too many
	} {
		if err := checkAnswers(bad, 0, row, k, node); err == nil {
			t.Errorf("wrong answers %v accepted", bad)
		}
	}
}

func TestTracerSelfTimes(t *testing.T) {
	tr := newTracer()
	tr.do("outer", 0, func() {
		tr.do("inner", 0, func() {})
		tr.do("inner", 0, func() {})
	})
	rows := tr.selfTimes()
	byName := map[string]selfRow{}
	for _, r := range rows {
		byName[r.name] = r
	}
	outer, inner := byName["outer"], byName["inner"]
	if outer.calls != 1 || inner.calls != 2 {
		t.Fatalf("calls: outer %d inner %d", outer.calls, inner.calls)
	}
	if outer.own != outer.total-inner.total {
		t.Errorf("outer self %v, want total %v minus children %v", outer.own, outer.total, inner.total)
	}
	if tr.spans[1].parent != 0 || tr.spans[0].parent != -1 {
		t.Errorf("parents: %+v", tr.spans)
	}
	var buf bytes.Buffer
	if err := tr.writeChrome(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []chromeEvent `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil || len(doc.TraceEvents) != 3 {
		t.Fatalf("chrome trace: %v, %d events", err, len(doc.TraceEvents))
	}
	if doc.TraceEvents[0].Phase != "X" {
		t.Errorf("phase %q, want complete events", doc.TraceEvents[0].Phase)
	}
	var nilTracer *tracer
	ran := false
	nilTracer.do("x", 0, func() { ran = true })
	if !ran {
		t.Errorf("a nil tracer did not run the call")
	}
}

func TestTreeIsAcyclicAndSized(t *testing.T) {
	g, list, internal := tree(treeBranch, treeDepth)
	if g.n != 3280 || len(list) != 3279 || internal != 1093 {
		t.Fatalf("tree: %d nodes, %d edges, %d internal", g.n, len(list), internal)
	}
	for _, e := range list {
		if e[0] >= e[1] {
			t.Fatalf("edge %v does not go to a higher id", e)
		}
	}
	if c := closureOf(g); c.total != 21324 {
		t.Errorf("closure has %d pairs, want 21324", c.total)
	}
}

// runResult runs the benchmark for a moment and returns its result line.
func runResult(t *testing.T, workload, trace string) result {
	t.Helper()
	var out bytes.Buffer
	err := run([]string{"--workload", workload, "--seed", "3", "--seconds", "0.01", "--trace", trace, "-out", t.TempDir()}, &out)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line is not the result: %v", err)
	}
	if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
		t.Errorf("result %+v", res)
	}
	return res
}

// manifestMetrics reads the metrics BENCHMARK.json at the repository root
// names: its end-to-end ones, or with trace its per-layer ones, by unit.
func manifestMetrics(t *testing.T, trace bool) map[string]string {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type entry struct{ Name, Unit string }
	var manifest struct {
		EndToEnd []entry `json:"end_to_end"`
		PerLayer []entry `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &manifest); err != nil {
		t.Fatal(err)
	}
	list := manifest.EndToEnd
	if trace {
		list = manifest.PerLayer
	}
	units := map[string]string{}
	for _, e := range list {
		units[e.Name] = e.Unit
	}
	return units
}

// TestRunPrintsManifestMetrics holds every workload, end to end and
// traced, to exactly the metrics and units of BENCHMARK.json.
func TestRunPrintsManifestMetrics(t *testing.T) {
	for _, w := range []string{"tc-shuffle", "tc-local"} {
		for _, trace := range []string{"0", "1"} {
			res := runResult(t, w, trace)
			units := manifestMetrics(t, trace == "1")
			for name, unit := range units {
				if m, ok := res.Metrics[name]; !ok || m.Unit != unit {
					t.Errorf("%s, trace %s: metric %s = %+v, want unit %s", w, trace, name, m, unit)
				}
			}
			for name := range res.Metrics {
				if _, ok := units[name]; !ok {
					t.Errorf("%s, trace %s: metric %s is not in BENCHMARK.json", w, trace, name)
				}
			}
			if trace == "0" {
				for name, m := range res.Metrics {
					if m.Value <= 0 {
						t.Errorf("%s: end-to-end metric %s = %v", w, name, m.Value)
					}
				}
				continue
			}
			f := res.Metrics["seminaive.firings"].Value
			if f == 0 || res.Metrics["parallel.firings"].Value != f || res.Metrics["dist.firings"].Value != f {
				t.Errorf("%s: firings seq %v par %v dist %v", w, f, res.Metrics["parallel.firings"], res.Metrics["dist.firings"])
			}
			sent := res.Metrics["parallel.sent_tuples"].Value
			if (w == "tc-local") != (sent == 0) {
				t.Errorf("%s: parallel.sent_tuples = %v", w, sent)
			}
		}
	}
	if err := run([]string{"--workload", "nope"}, io.Discard); err == nil {
		t.Errorf("an unknown workload ran")
	}
}

func TestSetupSeconds(t *testing.T) {
	got, err := setupSeconds([]float64{2, 4, 9}, []float64{3, 2, 1}, 0.5)
	if err != nil || got != 1 {
		t.Errorf("setupSeconds = %v, %v; want the ratio of medians 2 times 0.5", got, err)
	}
	if _, err := setupSeconds([]float64{1}, nil, 1); err == nil {
		t.Errorf("unpaired samples accepted")
	}
}

func TestClosurePairs(t *testing.T) {
	g, _ := randomGraph(50, 120, 4)
	c := closureOf(g)
	pairs := c.pairs()
	if len(pairs) != c.total || hashPairs(pairs) != c.total {
		t.Fatalf("%d pairs, %d distinct, closure has %d", len(pairs), hashPairs(pairs), c.total)
	}
	for _, p := range pairs {
		if c.row(int(p[0]))[p[1]>>6]&(1<<(p[1]&63)) == 0 {
			t.Errorf("pair %v is not in the closure", p)
		}
	}
}

// edbOf turns a digraph into a par relation with node i as value i.
func edbOf(g *digraph) parlog.Store {
	rel := parlog.NewRelation(2)
	for e := range g.has {
		rel.Insert(parlog.Tuple{parlog.Value(e[0]), parlog.Value(e[1])})
	}
	return parlog.Store{"par": rel}
}
