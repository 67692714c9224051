package main

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around
// the call. Spans of one rep share its id; parent is the id of the
// enclosing span, or -1.
type span struct {
	name       string
	rep        int
	id, parent int
	start, end time.Duration // since the tracer's origin
}

// tracer keeps spans in memory for the traced run. A nil tracer records
// nothing, so the untraced run pays one nil check per call.
type tracer struct {
	origin time.Time
	spans  []span
	open   []int // ids of the spans enclosing the current call
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// do runs f inside a span named name and returns its duration.
func (t *tracer) do(name string, rep int, f func()) time.Duration {
	if t == nil {
		start := time.Now()
		f()
		return time.Since(start)
	}
	id, parent := len(t.spans), -1
	if len(t.open) > 0 {
		parent = t.open[len(t.open)-1]
	}
	t.spans = append(t.spans, span{name: name, rep: rep, id: id, parent: parent})
	t.open = append(t.open, id)
	start := time.Now()
	f()
	end := time.Now()
	t.open = t.open[:len(t.open)-1]
	t.spans[id].start, t.spans[id].end = start.Sub(t.origin), end.Sub(t.origin)
	return end.Sub(start)
}

// chromeEvent is one complete ("X") slice of the Chrome trace_event
// format, the same shape the program's own trace export writes.
type chromeEvent struct {
	Name  string         `json:"name"`
	Cat   string         `json:"cat"`
	Phase string         `json:"ph"`
	TS    float64        `json:"ts"` // microseconds
	Dur   float64        `json:"dur"`
	PID   int            `json:"pid"`
	TID   int            `json:"tid"`
	Args  map[string]any `json:"args"`
}

// writeChrome writes the spans as Chrome trace_event JSON, loadable in
// chrome://tracing or ui.perfetto.dev. All spans run on one goroutine, so
// they share one row and nest by time.
func (t *tracer) writeChrome(w io.Writer) error {
	us := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }
	events := make([]chromeEvent, 0, len(t.spans))
	for _, s := range t.spans {
		events = append(events, chromeEvent{
			Name: s.name, Cat: "perfbench", Phase: "X",
			TS: us(s.start), Dur: us(s.end - s.start),
			Args: map[string]any{"rep": s.rep, "id": s.id, "parent": s.parent},
		})
	}
	return json.NewEncoder(w).Encode(struct {
		TraceEvents []chromeEvent `json:"traceEvents"`
	}{events})
}

// selfRow is one line of the self-time table.
type selfRow struct {
	name       string
	calls      int
	total, own time.Duration
}

// selfTimes sums, per span name, the total duration and the self time:
// each span's duration minus the time its child spans cover. Rows come
// sorted by self time, largest first.
func (t *tracer) selfTimes() []selfRow {
	child := make([]time.Duration, len(t.spans))
	for _, s := range t.spans {
		if s.parent >= 0 {
			child[s.parent] += s.end - s.start
		}
	}
	byName := map[string]*selfRow{}
	for _, s := range t.spans {
		r := byName[s.name]
		if r == nil {
			r = &selfRow{name: s.name}
			byName[s.name] = r
		}
		r.calls++
		r.total += s.end - s.start
		r.own += s.end - s.start - child[s.id]
	}
	rows := make([]selfRow, 0, len(byName))
	for _, r := range byName {
		rows = append(rows, *r)
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].own != rows[j].own {
			return rows[i].own > rows[j].own
		}
		return rows[i].name < rows[j].name
	})
	return rows
}

// writeSelfTable prints the self-time table, one layer per line.
func writeSelfTable(w io.Writer, rows []selfRow) {
	var all time.Duration
	for _, r := range rows {
		all += r.own
	}
	fmt.Fprintf(w, "# %-28s %7s %12s %12s %7s\n", "span", "calls", "total_ms", "self_ms", "self_%")
	for _, r := range rows {
		share := 0.0
		if all > 0 {
			share = 100 * float64(r.own) / float64(all)
		}
		fmt.Fprintf(w, "# %-28s %7d %12.3f %12.3f %7.2f\n", r.name, r.calls,
			float64(r.total.Nanoseconds())/1e6, float64(r.own.Nanoseconds())/1e6, share)
	}
}
