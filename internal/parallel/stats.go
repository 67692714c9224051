package parallel

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"parlog/internal/hashpart"
)

// ProcStats accounts one processor's work.
type ProcStats struct {
	Proc int
	// Firings counts successful ground substitutions of this processor's
	// rules (after constraints) — the Definition 1 / Theorem 2 currency.
	Firings int64
	// Generated counts distinct tuples this processor derived (first
	// derivations at this site).
	Generated int64
	// DupFirings counts firings whose head tuple this processor had already
	// generated (local rederivations).
	DupFirings int64
	// TuplesSent / TuplesReceived count inter-processor traffic only;
	// self-routed tuples are free, as in the paper.
	TuplesSent     int64
	TuplesReceived int64
	// DupReceived counts received tuples already present locally.
	DupReceived int64
	// Unhomed counts received tuples of a one-home predicate whose home is
	// another processor: a misrouted batch's. Accept drops them.
	Unhomed int64
	// Iterations is the number of local semi-naive rounds.
	Iterations int64
	// Busy is time spent evaluating; the difference to the run's wall clock
	// is idle/blocked time, the utilization input of the paper's future-work
	// study (Section 8).
	Busy time.Duration
	// EDBTuples is the number of base-relation tuples materialized here.
	EDBTuples int
	// Sent[d] accounts the batches this processor sent to the processor of
	// dense index d; Stats.Edges is built from it (see EdgesOf).
	Sent []EdgeStats
}

// EdgeStats accounts one directed channel i→j.
type EdgeStats struct {
	Messages int64
	Tuples   int64
}

// Stats aggregates a parallel run.
type Stats struct {
	Procs []ProcStats
	// Edges maps [from,to] (processor ids) to channel usage. Only edges that
	// carried at least one message appear.
	Edges map[[2]int]*EdgeStats
	// Placements describes base-relation layout per predicate.
	Placements map[string]hashpart.Placement
	// Wall is the end-to-end run time.
	Wall time.Duration
	// ForbiddenSends counts tuples that the topology restriction suppressed;
	// nonzero means the chosen topology was insufficient for the scheme.
	ForbiddenSends int64
}

// EdgesOf builds the Stats.Edges map — [from,to] processor ids to channel
// usage — from per-processor Sent counters; ids maps dense indexes to
// processor ids. Processors that share an id (strata of one run) add up.
func EdgesOf(procs []ProcStats, ids []int) map[[2]int]*EdgeStats {
	edges := make(map[[2]int]*EdgeStats)
	for _, ps := range procs {
		for d, es := range ps.Sent {
			if es.Messages == 0 {
				continue
			}
			key := [2]int{ps.Proc, ids[d]}
			if prev, ok := edges[key]; ok {
				prev.Messages += es.Messages
				prev.Tuples += es.Tuples
			} else {
				cp := es
				edges[key] = &cp
			}
		}
	}
	return edges
}

// TotalFirings sums firings over all processors.
func (s *Stats) TotalFirings() int64 {
	var n int64
	for _, p := range s.Procs {
		n += p.Firings
	}
	return n
}

// TotalTuplesSent sums inter-processor tuple traffic.
func (s *Stats) TotalTuplesSent() int64 {
	var n int64
	for _, p := range s.Procs {
		n += p.TuplesSent
	}
	return n
}

// TotalMessages sums inter-processor messages (batches).
func (s *Stats) TotalMessages() int64 {
	var n int64
	for _, e := range s.Edges {
		n += e.Messages
	}
	return n
}

// TotalDupFirings sums local rederivations — the redundancy measure of the
// Section 6 trade-off.
func (s *Stats) TotalDupFirings() int64 {
	var n int64
	for _, p := range s.Procs {
		n += p.DupFirings
	}
	return n
}

// MaxBusy returns the longest per-processor busy time (the critical path
// under perfect overlap); Speedup-style metrics divide total work by it.
func (s *Stats) MaxBusy() time.Duration {
	var m time.Duration
	for _, p := range s.Procs {
		if p.Busy > m {
			m = p.Busy
		}
	}
	return m
}

// UsedEdges returns the inter-processor edges that carried tuples, sorted.
func (s *Stats) UsedEdges() [][2]int {
	var out [][2]int
	for e, es := range s.Edges {
		if e[0] != e[1] && es.Tuples > 0 {
			out = append(out, e)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i][0] != out[j][0] {
			return out[i][0] < out[j][0]
		}
		return out[i][1] < out[j][1]
	})
	return out
}

// String renders a compact report.
func (s *Stats) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "wall=%v firings=%d dup=%d sent=%d msgs=%d\n",
		s.Wall.Round(time.Microsecond), s.TotalFirings(), s.TotalDupFirings(), s.TotalTuplesSent(), s.TotalMessages())
	for _, p := range s.Procs {
		fmt.Fprintf(&b, "  proc %d: firings=%d gen=%d dup=%d sent=%d recv=%d recvDup=%d iters=%d busy=%v edb=%d\n",
			p.Proc, p.Firings, p.Generated, p.DupFirings, p.TuplesSent, p.TuplesReceived, p.DupReceived,
			p.Iterations, p.Busy.Round(time.Microsecond), p.EDBTuples)
	}
	return b.String()
}
