package metrics

import (
	"context"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"strings"
	"sync"
	"testing"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := New()
	c := r.Counter("test_ops_total", "ops")
	c.Inc()
	c.Add(4)
	c.Add(-7) // ignored: counters are monotone
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	// Same name+labels returns the same instrument.
	if r.Counter("test_ops_total", "ops") != c {
		t.Fatal("re-registration did not dedup")
	}
	g := r.Gauge("test_temp", "temp", L("room", "a"))
	g.Set(20)
	g.Add(2.5)
	if got := g.Value(); got != 22.5 {
		t.Fatalf("gauge = %v, want 22.5", got)
	}
}

func TestRegisterPanics(t *testing.T) {
	r := New()
	r.Counter("ok_name", "")
	for _, f := range []func(){
		func() { r.Counter("0bad", "") },
		func() { r.Gauge("ok_name", "") },                      // type mismatch
		func() { r.Counter("x_total", "", L("bad-key", "v")) }, // invalid label
		func() { r.Histogram("h", "", []float64{2, 1}) },       // unsorted bounds
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			f()
		}()
	}
}

func TestHistogramQuantiles(t *testing.T) {
	r := New()
	h := r.Histogram("test_latency_seconds", "lat", ExpBuckets(0.001, 10, 4))
	for i := 0; i < 100; i++ {
		h.Observe(0.005) // all in the (0.001, 0.01] bucket
	}
	s := h.Snap()
	if s.Count != 100 {
		t.Fatalf("count = %d, want 100", s.Count)
	}
	p50 := s.Quantile(0.50)
	if p50 <= 0.001 || p50 > 0.01 {
		t.Fatalf("p50 = %v, want within (0.001, 0.01]", p50)
	}
	if got := s.Quantile(0.99); got <= 0.001 || got > 0.01 {
		t.Fatalf("p99 = %v, want within (0.001, 0.01]", got)
	}
	// Overflow clamps to the largest finite bound.
	h.Observe(1e9)
	if got := h.Snap().Quantile(1.0); got != 1.0 {
		t.Fatalf("overflow quantile = %v, want largest bound 1.0", got)
	}
	// Empty histogram.
	e := r.Histogram("test_empty", "", []float64{1})
	if !math.IsNaN(e.Snap().Quantile(0.5)) {
		t.Fatal("empty histogram quantile should be NaN")
	}
}

func TestConcurrentObserveSnapshotConsistency(t *testing.T) {
	r := New()
	h := r.Histogram("test_sizes", "", ExpBuckets(1, 2, 10))
	c := r.Counter("test_total", "")
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			v := float64(seed + 1)
			for {
				select {
				case <-stop:
					return
				default:
				}
				h.Observe(v)
				c.Inc()
			}
		}(w)
	}
	// Scrape concurrently: count must equal the sum of buckets in every
	// snapshot, and the counter must be monotone across snapshots.
	last := int64(0)
	for i := 0; i < 200; i++ {
		s := h.Snap()
		var sum int64
		for _, b := range s.Counts {
			sum += b
		}
		if sum != s.Count {
			t.Fatalf("snapshot %d: count %d != bucket sum %d", i, s.Count, sum)
		}
		if v := c.Value(); v < last {
			t.Fatalf("counter went backwards: %d < %d", v, last)
		} else {
			last = v
		}
	}
	close(stop)
	wg.Wait()
}

func TestPrometheusExpositionValidates(t *testing.T) {
	r := New()
	r.Counter("parlog_runs_total", "completed runs").Add(3)
	r.Gauge("parlog_workers", "live workers").Set(4)
	h := r.Histogram("parlog_batch_tuples", "tuples per batch", ExpBuckets(1, 4, 6))
	for _, v := range []float64{1, 3, 17, 100000} {
		h.Observe(v)
	}
	for i := 0; i < 2; i++ {
		r.Counter("parlog_channel_tuples_total", "per-channel tuples",
			L("from", "0"), L("to", "1")).Add(int64(i + 1))
	}
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	text := b.String()
	for _, want := range []string{
		"# TYPE parlog_runs_total counter",
		"parlog_runs_total 3",
		"# TYPE parlog_batch_tuples histogram",
		`parlog_batch_tuples_bucket{le="+Inf"} 4`,
		"parlog_batch_tuples_count 4",
		`parlog_channel_tuples_total{from="0",to="1"} 3`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q\n%s", want, text)
		}
	}
	if err := ValidateExposition(strings.NewReader(text)); err != nil {
		t.Fatalf("own exposition failed validation: %v\n%s", err, text)
	}
}

func TestValidateExpositionRejects(t *testing.T) {
	cases := map[string]string{
		"bad name":         "0bad 1\n",
		"bad value":        "ok_metric notanumber\n",
		"duplicate series": "m 1\nm 1\n",
		"missing inf": "# TYPE h histogram\n" +
			`h_bucket{le="1"} 2` + "\nh_sum 2\nh_count 2\n",
		"count mismatch": "# TYPE h histogram\n" +
			`h_bucket{le="1"} 2` + "\n" + `h_bucket{le="+Inf"} 3` + "\nh_sum 2\nh_count 2\n",
		"non-cumulative": "# TYPE h histogram\n" +
			`h_bucket{le="1"} 5` + "\n" + `h_bucket{le="2"} 3` + "\n" + `h_bucket{le="+Inf"} 5` + "\nh_sum 9\nh_count 5\n",
		"type after sample": "m 1\n# TYPE m counter\n",
		"unknown type":      "# TYPE m exotic\n",
	}
	for name, doc := range cases {
		if err := ValidateExposition(strings.NewReader(doc)); err == nil {
			t.Errorf("%s: validator accepted bad document:\n%s", name, doc)
		}
	}
	good := "# HELP m help text\n# TYPE m counter\nm{a=\"x\\\"y\"} 1 1712345678\n"
	if err := ValidateExposition(strings.NewReader(good)); err != nil {
		t.Errorf("validator rejected good document: %v", err)
	}
}

func TestOnCollectHook(t *testing.T) {
	r := New()
	g := r.Gauge("test_derived", "")
	calls := 0
	r.OnCollect(func() { calls++; g.Set(float64(calls)) })
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if calls != 1 || g.Value() != 1 {
		t.Fatalf("hook not run before scrape: calls=%d value=%v", calls, g.Value())
	}
	r.Snapshot()
	if calls != 2 {
		t.Fatalf("hook not run before JSON snapshot: calls=%d", calls)
	}
}

func TestServerEndpoints(t *testing.T) {
	r := New()
	r.Counter("test_hits_total", "hits").Inc()
	h := r.Histogram("test_lat", "", []float64{1, 10})
	h.Observe(2)
	srv, err := NewServer("127.0.0.1:0", r, ServerOptions{
		Pprof: true,
		Debug: func() any { return map[string]int{"extra": 7} },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close(context.Background())

	get := func(path string) (string, string) {
		resp, err := http.Get(srv.URL() + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return string(body), resp.Header.Get("Content-Type")
	}

	text, ctype := get("/metrics")
	if !strings.HasPrefix(ctype, "text/plain") {
		t.Errorf("/metrics content type = %q", ctype)
	}
	if err := ValidateExposition(strings.NewReader(text)); err != nil {
		t.Fatalf("/metrics invalid: %v\n%s", err, text)
	}
	if !strings.Contains(text, "test_hits_total 1") {
		t.Errorf("/metrics missing counter:\n%s", text)
	}

	body, ctype := get("/debug/parlog")
	if !strings.HasPrefix(ctype, "application/json") {
		t.Errorf("/debug/parlog content type = %q", ctype)
	}
	var doc struct {
		Metrics []MetricSnapshot `json:"metrics"`
		Debug   map[string]int   `json:"debug"`
	}
	if err := json.Unmarshal([]byte(body), &doc); err != nil {
		t.Fatalf("/debug/parlog not JSON: %v\n%s", err, body)
	}
	if len(doc.Metrics) == 0 || doc.Debug["extra"] != 7 {
		t.Errorf("debug document incomplete: %s", body)
	}

	if prof, _ := get("/debug/pprof/cmdline"); prof == "" {
		t.Error("pprof cmdline endpoint empty")
	}

	if err := srv.Close(context.Background()); err != nil {
		t.Fatalf("graceful close: %v", err)
	}
	if _, err := http.Get(srv.URL() + "/metrics"); err == nil {
		t.Error("server still serving after Close")
	}
}

func TestBucketHelpers(t *testing.T) {
	exp := ExpBuckets(1, 2, 4)
	want := []float64{1, 2, 4, 8}
	for i := range want {
		if exp[i] != want[i] {
			t.Fatalf("ExpBuckets = %v", exp)
		}
	}
	lin := LinearBuckets(0, 5, 3)
	want = []float64{0, 5, 10}
	for i := range want {
		if lin[i] != want[i] {
			t.Fatalf("LinearBuckets = %v", lin)
		}
	}
}
