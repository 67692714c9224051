package dist

import (
	"bufio"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"parlog/internal/analysis"
	"parlog/internal/dist/fault"
	"parlog/internal/hashpart"
	"parlog/internal/metrics"
	"parlog/internal/network"
	"parlog/internal/obs"
	"parlog/internal/parallel"
	"parlog/internal/parser"
	"parlog/internal/relation"
	"parlog/internal/rewrite"
	"parlog/internal/wire"
)

// scrape GETs url and returns every sample as name{labels} → value,
// validating the exposition on the way.
func scrape(t *testing.T, url string) (map[string]float64, error) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if err := metrics.ValidateExposition(strings.NewReader(string(body))); err != nil {
		return nil, fmt.Errorf("invalid exposition: %w", err)
	}
	out := map[string]float64{}
	sc := bufio.NewScanner(strings.NewReader(string(body)))
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("unparsable sample %q", line)
		}
		out[line[:sp]] = v
	}
	return out, sc.Err()
}

// TestDistributedMetricsScrapeUnderFaults runs the kill-one-of-three
// recovery scenario while a scraper hammers the /metrics endpoint. Every
// scrape must be a valid exposition, every *_total counter must be
// monotone across scrapes, and each histogram's _count must equal its
// +Inf cumulative bucket — the invariant the registry maintains by
// deriving the count from the buckets in one snapshot.
func TestDistributedMetricsScrapeUnderFaults(t *testing.T) {
	src := ancestorRules + randomParFacts(40, 120, 5)
	p, edb, seq := buildAncestorQ(t, src, 3, []string{"Z"}, []string{"X"})
	dial, in := injectorDial(1, fault.Schedule{Seed: 5, KillConn: 1})

	reg := metrics.New()
	srv, err := metrics.NewServer("127.0.0.1:0", reg, metrics.ServerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close(nil)

	var (
		done     = make(chan struct{})
		wg       sync.WaitGroup
		mu       sync.Mutex
		scrapes  int
		problems []string
	)
	wg.Add(1)
	go func() {
		defer wg.Done()
		prev := map[string]float64{}
		for {
			select {
			case <-done:
				return
			default:
			}
			vals, err := scrape(t, srv.URL()+"/metrics")
			mu.Lock()
			if err != nil {
				problems = append(problems, err.Error())
			} else {
				scrapes++
				for k, v := range vals {
					if strings.Contains(k, "_total") && v < prev[k] {
						problems = append(problems, fmt.Sprintf("%s went backwards: %v → %v", k, prev[k], v))
					}
					prev[k] = v
				}
				for _, h := range []string{"parlog_iteration_seconds", "parlog_batch_tuples", "parlog_iteration_delta_tuples", "parlog_bucket_load_tuples"} {
					count, okC := vals[h+"_count"]
					inf, okI := vals[h+`_bucket{le="+Inf"}`]
					if okC != okI || (okC && count != inf) {
						problems = append(problems, fmt.Sprintf("%s: _count %v != +Inf bucket %v", h, count, inf))
					}
				}
			}
			mu.Unlock()
			time.Sleep(200 * time.Microsecond)
		}
	}()

	res, err := Run(p, edb, Config{WorkerDial: dial, RouteFault: armOnRoute(in, 1, 1), Sink: obs.NewMetricsSink(reg)})
	close(done)
	wg.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if !seq["anc"].Equal(res.Output["anc"]) {
		t.Fatal("scraped run differs from sequential least model")
	}
	mu.Lock()
	defer mu.Unlock()
	for _, p := range problems {
		t.Error(p)
	}
	if scrapes == 0 {
		t.Fatal("scraper never completed a scrape")
	}

	// The endpoint's final state reflects the recovery the run went through.
	final, err := scrape(t, srv.URL()+"/metrics")
	if err != nil {
		t.Fatal(err)
	}
	if final["parlog_worker_deaths_total"] < 1 {
		t.Errorf("worker_deaths = %v, want >= 1", final["parlog_worker_deaths_total"])
	}
	if final["parlog_replayed_batches_total"] < 1 {
		t.Errorf("replayed_batches = %v, want >= 1", final["parlog_replayed_batches_total"])
	}
}

// TestReplayCarriesOriginatingSpan kills a worker and checks the causal
// chain: every batch replayed during recovery must carry the span id the
// originating sender allocated — the id travels in the logged wire
// envelope, so the trace links the replay back to the send it repeats.
func TestReplayCarriesOriginatingSpan(t *testing.T) {
	src := ancestorRules + randomParFacts(40, 120, 5)
	p, edb, _ := buildAncestorQ(t, src, 3, []string{"Z"}, []string{"X"})
	dial, in := injectorDial(1, fault.Schedule{Seed: 5, KillConn: 1})

	rec := obs.NewRecorder()
	if _, err := Run(p, edb, Config{WorkerDial: dial, RouteFault: armOnRoute(in, 1, 1), Sink: rec}); err != nil {
		t.Fatal(err)
	}

	sent := map[uint64]bool{}
	var replays []obs.Event
	for _, e := range rec.Events() {
		switch e.Kind {
		case obs.KindSpanSend:
			if e.Span == 0 {
				t.Fatal("span_send with zero span id")
			}
			sent[e.Span] = true
		case obs.KindSpanReplay:
			replays = append(replays, e)
		}
	}
	if len(replays) == 0 {
		t.Fatal("no span_replay events after a worker death")
	}
	for _, e := range replays {
		if e.Span == 0 {
			t.Error("replayed batch lost its span id")
			continue
		}
		if !sent[e.Span] {
			t.Errorf("replayed span %#x matches no recorded send", e.Span)
		}
		if o := wire.SpanOrigin(e.Span); o < 0 || o > 2 {
			t.Errorf("replayed span %#x has origin %d outside the worker set", e.Span, o)
		}
		if e.Bucket != 1 {
			t.Errorf("replay for bucket %d, want the dead worker's bucket 1", e.Bucket)
		}
	}
}

// TestMisrouteDetectedAndCounted injects a router-level misroute into
// Example 6 (whose Figure 3 network graph is sparse: processor 0 may send
// only to 0 and 2) and checks the conformance pipeline end to end: the
// receive-side matrix records the traffic where it actually landed, the
// audit flags the unpredicted channel, and the violation is counted. The
// send-side matrix alone must NOT catch it — senders fired MessageSent
// with the intended destination before the router diverted the batch,
// which is exactly why the counting sink keeps both matrices.
func TestMisrouteDetectedAndCounted(t *testing.T) {
	var b strings.Builder
	b.WriteString("p(X, Y) :- q(X, Y).\np(X, Y) :- p(Y, Z), r(X, Z).\n")
	for i := 0; i < 9; i++ {
		for j := 0; j < 9; j += 2 {
			fmt.Fprintf(&b, "q(c%d, c%d).\n", i, (i+j)%9)
			fmt.Fprintf(&b, "r(c%d, c%d).\n", (i+j)%9, i)
		}
	}
	prog := parser.MustParse(b.String())
	s, err := analysis.ExtractSirup(prog)
	if err != nil {
		t.Fatal(err)
	}
	procs := hashpart.RangeProcs(4)
	F := network.BitVectorF(2)
	vr, ve := []string{"Y", "Z"}, []string{"X", "Y"}
	d, err := network.Derive(s, vr, ve, F, F, procs)
	if err != nil {
		t.Fatal(err)
	}
	if d.HasEdge(0, 1) {
		t.Fatal("Figure 3 graph unexpectedly predicts 0→1; the misroute would be legal")
	}
	h := network.FuncFromBits("h6", F, hashpart.GParity)
	p, err := parallel.BuildQ(s, rewrite.SirupSpec{Procs: procs, VR: vr, VE: ve, H: h})
	if err != nil {
		t.Fatal(err)
	}

	plan := fault.NewMisroutePlan(0, 0).DivertAllFrom(0, 1)
	counting := obs.NewCounting()
	if _, err := Run(p, relation.Store{}, Config{RouteFault: plan.Route, Sink: counting}); err != nil {
		t.Fatal(err)
	}
	if plan.Seen() == 0 {
		t.Fatal("router never consulted the misroute plan")
	}
	snap := counting.Snapshot()

	var diverted bool
	for _, e := range snap.RecvEdges {
		if e.From == 0 && e.To == 1 && e.Tuples > 0 {
			diverted = true
		}
	}
	if !diverted {
		t.Fatalf("no diverted tuples in the receive-side matrix: %+v", snap.RecvEdges)
	}

	// The sender-side matrix still shows the intended routing — clean.
	sendObs := make([]network.ObservedEdge, 0, len(snap.Edges))
	for _, e := range snap.Edges {
		sendObs = append(sendObs, network.ObservedEdge{From: e.From, To: e.To, Messages: e.Messages, Tuples: e.Tuples})
	}
	if rep := d.Audit(sendObs); !rep.OK() {
		t.Fatalf("send-side matrix flagged the misroute; it fires before routing and should be clean: %s", rep)
	}

	// The union with the receive-side matrix catches it.
	both := sendObs
	for _, e := range snap.RecvEdges {
		both = append(both, network.ObservedEdge{From: e.From, To: e.To, Messages: e.Messages, Tuples: e.Tuples})
	}
	rep := d.Audit(both)
	if rep.OK() {
		t.Fatalf("misroute not flagged: %s", rep)
	}
	found := false
	for _, v := range rep.Violations {
		if v.From == 0 && v.To == 1 {
			found = true
		}
		counting.NetworkViolation(v.From, v.To, v.Tuples)
	}
	if !found {
		t.Fatalf("violations %+v missing the injected 0→1 channel", rep.Violations)
	}
	if got := counting.Snapshot().NetworkViolations; got < 1 {
		t.Fatalf("NetworkViolations = %d, want >= 1", got)
	}
}
