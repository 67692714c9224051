package parallel

import (
	"sort"
	"time"

	"parlog/internal/ast"
	"parlog/internal/hashpart"
	"parlog/internal/obs"
	"parlog/internal/relation"
	"parlog/internal/seminaive"
)

// EmitFunc carries one logical outgoing batch to a transport: dest is a
// dense worker index (never the emitting node itself), pred a derived
// predicate. The tuples slice must not be retained past the call unless the
// transport copies it; the in-process and TCP transports both forward it
// immediately.
type EmitFunc func(dest int, pred string, tuples []relation.Tuple)

// Node is the transport-agnostic processor of the paper's abstract
// architecture: it owns the local base-relation fragments and the @in/@out
// relations, fires initialization rules, accepts incoming tuples, runs local
// semi-naive iterations and routes freshly derived tuples per the scheme's
// sending rules. Transports — the in-process goroutine runtime here and the
// TCP runtime in internal/dist — deliver batches via Accept and carry the
// batches handed to the EmitFunc, plus termination detection.
//
// A Node is not safe for concurrent use; each transport drives it from a
// single goroutine.
type Node struct {
	prog   *Program
	wi     int // dense index
	procID int

	// rules is this worker's compiled rule set — the program's shared
	// plans, or armed copies of them after EnableProfile.
	rules []compiledRule

	store relation.Store                // EDB fragments + @in relations
	in    map[string]*relation.Relation // derived tuples received/kept, by pred
	out   map[string]*relation.Relation // derived tuples generated here, by pred
	wm    *seminaive.Watermarks

	stats ProcStats

	// profile arms per-rule runtime counters; ruleProfs[i] accounts
	// n.rules[i].
	profile   bool
	ruleProfs []*seminaive.RuleProfile

	// sink receives this node's events; nil disables observability.
	sink obs.EventSink

	// outBatch accumulates tuples per (destination, pred) within one local
	// iteration.
	outBatch map[int]map[string][]relation.Tuple

	// scratch holds the head tuple being probed, avoiding an allocation per
	// firing.
	scratch relation.Tuple

	// routers holds the program's sending rules precompiled against this
	// processor: pattern constants/repeated variables become column checks
	// and the discriminating sequence becomes column positions, so routing
	// a tuple allocates nothing.
	routers map[string][]nodeRouter
	// routeVals and destScratch are route's reusable buffers.
	routeVals   []ast.Value
	destScratch []int
}

// nodeRouter is one Router specialized to a processor: the per-tuple
// substitution matching of the generic Router is flattened into column
// comparisons.
type nodeRouter struct {
	self      bool
	broadcast bool
	arity     int // pattern arity; tuples of other widths never match
	// consts are the pattern's constant positions: tuple[col] must be val.
	consts []struct {
		col int
		val ast.Value
	}
	// eqs are repeated-variable positions: tuple[a] must equal tuple[b].
	eqs [][2]int
	// seqPos are the columns of v(r) inside the pattern (point-to-point
	// routing only), and h the processor's routing function.
	seqPos []int
	h      hashpart.Func
}

// compileRouter flattens rt for the processor procID. Build has already
// validated that a point-to-point router's sequence is contained in its
// pattern, so every sequence variable resolves to a column.
func compileRouter(rt Router, procID int) nodeRouter {
	nr := nodeRouter{self: rt.Self, broadcast: rt.Broadcast, arity: len(rt.Pattern.Args)}
	if rt.Self {
		return nr
	}
	firstCol := make(map[string]int, len(rt.Pattern.Args))
	for i, t := range rt.Pattern.Args {
		if t.IsVar() {
			if j, ok := firstCol[t.VarName]; ok {
				nr.eqs = append(nr.eqs, [2]int{j, i})
			} else {
				firstCol[t.VarName] = i
			}
		} else {
			nr.consts = append(nr.consts, struct {
				col int
				val ast.Value
			}{i, t.Value})
		}
	}
	if !rt.Broadcast {
		nr.seqPos = make([]int, len(rt.Seq))
		for i, v := range rt.Seq {
			nr.seqPos[i] = firstCol[v]
		}
		nr.h = rt.HFor(procID)
	}
	return nr
}

// NewNode materializes processor wi's node, including its base-relation
// fragments (the paper's b_k^i / D_in^i) drawn from the global EDB.
func NewNode(p *Program, wi int, global relation.Store) *Node {
	procID := p.Procs.IDs()[wi]
	n := &Node{
		prog:     p,
		wi:       wi,
		procID:   procID,
		rules:    p.rules[wi],
		store:    relation.Store{},
		in:       make(map[string]*relation.Relation),
		out:      make(map[string]*relation.Relation),
		wm:       &seminaive.Watermarks{Prev: map[string]int{}, Cur: map[string]int{}},
		outBatch: make(map[int]map[string][]relation.Tuple),
	}
	n.stats.Proc = procID
	for pred := range p.EDB {
		frag := fragmentFor(p, pred, wi, procID, global)
		n.store[pred] = frag
		n.stats.EDBTuples += frag.Len()
	}
	maxAr := 0
	for pred, ar := range p.IDB {
		rel := relation.New(ar)
		n.in[pred] = rel
		n.store[pred+inSuffix] = rel
		n.out[pred] = relation.New(ar)
		n.wm.Prev[pred+inSuffix] = 0
		n.wm.Cur[pred+inSuffix] = 0
		if ar > maxAr {
			maxAr = ar
		}
	}
	n.scratch = make(relation.Tuple, maxAr)
	n.routers = make(map[string][]nodeRouter, len(p.routers))
	maxSeq := 0
	for pred, rts := range p.routers {
		crs := make([]nodeRouter, len(rts))
		for i, rt := range rts {
			crs[i] = compileRouter(rt, procID)
			if len(crs[i].seqPos) > maxSeq {
				maxSeq = len(crs[i].seqPos)
			}
		}
		n.routers[pred] = crs
	}
	n.routeVals = make([]ast.Value, maxSeq)
	return n
}

// EnableProfile arms per-rule runtime counters on this node: every plan is
// swapped for an armed copy, so the program's shared plans stay untouched.
// Transports call it before Init. Rule keys strip the per-processor
// restriction constraint (seminaive.ProfileKey), so all workers' records of
// one source rule merge.
func (n *Node) EnableProfile() {
	n.profile = true
	n.ruleProfs = make([]*seminaive.RuleProfile, len(n.rules))
	rules := make([]compiledRule, len(n.rules))
	for i, cr := range n.rules {
		nr := cr
		nr.plans = make([]*seminaive.Plan, len(cr.plans))
		for j, pl := range cr.plans {
			nr.plans[j] = pl.WithProfile()
		}
		rules[i] = nr
		n.ruleProfs[i] = &seminaive.RuleProfile{
			Key:  seminaive.ProfileKey(n.prog.src, cr.plans[0].Rule),
			Pred: cr.head,
		}
	}
	n.rules = rules
}

// Profile folds the armed plan counters into the per-rule records and returns
// them with this processor's attribution attached. Call at most once, after
// the node's last Drain; nil when profiling is disabled.
func (n *Node) Profile() []*seminaive.RuleProfile {
	if !n.profile {
		return nil
	}
	out := make([]*seminaive.RuleProfile, len(n.ruleProfs))
	for i := range n.rules {
		rp := n.ruleProfs[i]
		for _, pl := range n.rules[i].plans {
			pl.ProfileInto(rp)
		}
		rp.Procs = []seminaive.ProcProfile{{
			Proc:    n.procID,
			Firings: rp.Firings,
			Dup:     rp.Dup,
			WallNs:  rp.WallNs,
		}}
		out[i] = rp
	}
	return out
}

// Index returns the node's dense worker index.
func (n *Node) Index() int { return n.wi }

// Proc returns the node's processor id.
func (n *Node) Proc() int { return n.procID }

// SetSink attaches an event sink; transports call it before Init. A nil
// sink (the default) disables observability.
func (n *Node) SetSink(s obs.EventSink) { n.sink = s }

// Sink returns the attached event sink, nil when disabled.
func (n *Node) Sink() obs.EventSink { return n.sink }

// PeerProc maps a dense worker index to its processor id, passing through
// out-of-range values (transports use it to label message events).
func (n *Node) PeerProc(wi int) int {
	ids := n.prog.Procs.IDs()
	if wi < 0 || wi >= len(ids) {
		return wi
	}
	return ids[wi]
}

// Init fires the rules without derived body atoms once (the initialization
// step), then drains: the complete first unit of work. The sink sees the
// initialization pass as iteration 0.
func (n *Node) Init(emit EmitFunc) {
	if n.sink != nil {
		n.sink.IterationStart(n.procID, 0)
	}
	genBefore := n.stats.Generated
	for ri := range n.rules {
		cr := &n.rules[ri]
		if !cr.init {
			continue
		}
		fBefore, dupBefore := n.stats.Firings, n.stats.DupFirings
		var t0 time.Time
		if n.profile {
			t0 = time.Now()
		}
		for _, plan := range cr.plans {
			buf := n.scratch[:cr.arity]
			n.stats.Firings += plan.Enumerate(n.store, nil, func(vals []ast.Value) bool {
				n.emitTuple(cr.head, plan.HeadTupleInto(buf, vals))
				return true
			})
		}
		if n.profile {
			n.recordRule(ri, fBefore, dupBefore, t0)
		}
		if n.sink != nil {
			n.sink.RuleFirings(n.procID, cr.head, n.stats.Firings-fBefore, n.stats.DupFirings-dupBefore)
		}
	}
	if n.sink != nil {
		n.sink.IterationEnd(n.procID, 0, int(n.stats.Generated-genBefore))
	}
	n.flush(emit)
	n.Drain(emit)
}

// Accept merges received tuples of one predicate into the local @in
// relation, eliminating duplicates by difference (the paper's receive
// step). from is the sender's dense worker index (-1 when unknown). Call
// Drain afterwards; transports may Accept several batches per Drain.
func (n *Node) Accept(from int, pred string, tuples []relation.Tuple) {
	rel, ok := n.in[pred]
	if !ok {
		return // unknown predicate: a corrupt or stale message; ignore
	}
	dupBefore := n.stats.DupReceived
	for _, t := range tuples {
		n.stats.TuplesReceived++
		if !rel.Insert(t) {
			n.stats.DupReceived++
		}
	}
	if n.sink != nil {
		n.sink.MessageReceived(n.procID, n.PeerProc(from), pred, len(tuples), int(n.stats.DupReceived-dupBefore))
	}
}

// Drain runs local semi-naive iterations until no new tuples appear,
// flushing outgoing batches after each iteration (the paper's per-iteration
// send step).
func (n *Node) Drain(emit EmitFunc) {
	for {
		grew := false
		for pred, rel := range n.in {
			key := pred + inSuffix
			if rel.Len() > n.wm.Cur[key] {
				grew = true
			}
			n.wm.Prev[key] = n.wm.Cur[key]
			n.wm.Cur[key] = rel.Len()
		}
		if !grew {
			return
		}
		n.stats.Iterations++
		iter := int(n.stats.Iterations)
		if n.sink != nil {
			n.sink.IterationStart(n.procID, iter)
		}
		genBefore := n.stats.Generated
		for ri := range n.rules {
			cr := &n.rules[ri]
			if cr.init {
				continue
			}
			fBefore, dupBefore := n.stats.Firings, n.stats.DupFirings
			var t0 time.Time
			if n.profile {
				t0 = time.Now()
			}
			for _, plan := range cr.plans {
				buf := n.scratch[:cr.arity]
				n.stats.Firings += plan.Enumerate(n.store, n.wm, func(vals []ast.Value) bool {
					n.emitTuple(cr.head, plan.HeadTupleInto(buf, vals))
					return true
				})
			}
			if n.profile {
				n.recordRule(ri, fBefore, dupBefore, t0)
			}
			if n.sink != nil {
				n.sink.RuleFirings(n.procID, cr.head, n.stats.Firings-fBefore, n.stats.DupFirings-dupBefore)
			}
		}
		if n.sink != nil {
			n.sink.IterationEnd(n.procID, iter, int(n.stats.Generated-genBefore))
		}
		n.flush(emit)
	}
}

// recordRule accumulates one rule pass into its profile record. A firing that
// survived local dedup is a New tuple at this site (emitTuple inserts into the
// out relation before routing), so New = firings − local rederivations.
func (n *Node) recordRule(ri int, fBefore, dupBefore int64, t0 time.Time) {
	rp := n.ruleProfs[ri]
	f := n.stats.Firings - fBefore
	d := n.stats.DupFirings - dupBefore
	rp.Firings += f
	rp.Dup += d
	rp.New += f - d
	rp.Iterations++
	rp.WallNs += time.Since(t0).Nanoseconds()
}

// emitTuple handles one freshly derived head tuple: dedup against this
// processor's previous outputs, then route. t may be a scratch buffer; the
// routed tuple is the stable copy the out relation stored.
func (n *Node) emitTuple(pred string, t relation.Tuple) {
	out := n.out[pred]
	if !out.Insert(t) {
		n.stats.DupFirings++
		return
	}
	n.stats.Generated++
	n.route(pred, out.Row(out.Len()-1))
}

// route applies every router of pred to t and queues the tuple for its
// destinations. Self-destinations enter the local @in relation immediately
// (they are free, not communication). The precompiled routers and the
// node-owned scratch buffers make this allocation-free per tuple.
func (n *Node) route(pred string, t relation.Tuple) {
	routers := n.routers[pred]
	if len(routers) == 0 {
		return
	}
	dests := n.destScratch[:0]
	add := func(wi int) []int {
		for _, d := range dests {
			if d == wi {
				return dests
			}
		}
		return append(dests, wi)
	}
	for i := range routers {
		rt := &routers[i]
		if rt.self {
			dests = add(n.wi)
			continue
		}
		if len(t) != rt.arity {
			continue
		}
		ok := true
		for _, cv := range rt.consts {
			if t[cv.col] != cv.val {
				ok = false
				break
			}
		}
		for _, eq := range rt.eqs {
			if !ok || t[eq[0]] != t[eq[1]] {
				ok = false
				break
			}
		}
		if !ok {
			continue // cannot ever fire through this occurrence
		}
		if rt.broadcast {
			for wi := 0; wi < n.prog.Procs.Len(); wi++ {
				dests = add(wi)
			}
			continue
		}
		vals := n.routeVals[:len(rt.seqPos)]
		for k, c := range rt.seqPos {
			vals[k] = t[c]
		}
		dest := rt.h.Apply(vals)
		if wi, ok := n.prog.Procs.Index(dest); ok {
			dests = add(wi)
		}
	}
	n.destScratch = dests[:0]
	for _, wi := range dests {
		if wi == n.wi {
			n.in[pred].Insert(t) // local keep: visible to the next iteration
			continue
		}
		m := n.outBatch[wi]
		if m == nil {
			m = make(map[string][]relation.Tuple)
			n.outBatch[wi] = m
		}
		m[pred] = append(m[pred], t)
	}
}

// flush hands the accumulated logical batches to the transport, in sorted
// (destination, pred) order so a deterministic scheduler sees an identical
// send sequence run-to-run. The batch maps are tiny (bounded by procs and
// channel predicates), so the sort is noise next to the sends themselves.
func (n *Node) flush(emit EmitFunc) {
	if len(n.outBatch) == 0 {
		return
	}
	dests := make([]int, 0, len(n.outBatch))
	for wi := range n.outBatch {
		dests = append(dests, wi)
	}
	sort.Ints(dests)
	for _, wi := range dests {
		byPred := n.outBatch[wi]
		preds := make([]string, 0, len(byPred))
		for pred := range byPred {
			preds = append(preds, pred)
		}
		sort.Strings(preds)
		for _, pred := range preds {
			emit(wi, pred, byPred[pred])
		}
		delete(n.outBatch, wi)
	}
}

// Stats returns a snapshot of the node's accounting (transport-recorded
// fields included).
func (n *Node) Stats() ProcStats { return n.stats }

// RecordSent adds transport-level tuple-send accounting.
func (n *Node) RecordSent(tuples int) { n.stats.TuplesSent += int64(tuples) }

// RecordBusy adds transport-measured busy time.
func (n *Node) RecordBusy(d time.Duration) { n.stats.Busy += d }

// Outputs exposes the node's generated relations for final pooling. Callers
// must not modify them.
func (n *Node) Outputs() map[string]*relation.Relation { return n.out }

// Snapshot captures the node's @in relations — the derived tuples this
// bucket has received or kept. Because every other piece of node state
// (the out relations, the local keeps, the watermarks) is a monotone
// function of the EDB fragment and these tuples, a fresh node that runs
// Init, Accepts the snapshot and Drains converges to a state at least as
// advanced as this one: the snapshot is a complete bucket checkpoint.
// Predicates with no tuples are omitted. The rows are headers into the
// relations' arenas, not copies: arena rows are immutable once written,
// so the snapshot stays valid however the node evolves afterwards.
func (n *Node) Snapshot() map[string][]relation.Tuple {
	snap := make(map[string][]relation.Tuple, len(n.in))
	for pred, rel := range n.in {
		if rel.Len() == 0 {
			continue
		}
		rows := make([]relation.Tuple, rel.Len())
		for i := range rows {
			rows[i] = rel.Row(i)
		}
		snap[pred] = rows
	}
	return snap
}
