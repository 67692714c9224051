package parallel

import (
	"math/bits"
	"time"

	"parlog/internal/ast"
	"parlog/internal/hashpart"
	"parlog/internal/obs"
	"parlog/internal/relation"
	"parlog/internal/seminaive"
)

// EmitFunc carries one logical outgoing batch to a transport: dest is a
// dense worker index (never the emitting node itself), pred a derived
// predicate. The batch may be a capacity-capped window of the node's arena
// (the rows its channel relation to dest gained since the last send) rather
// than a copy. Its rows are immutable: the node never writes them again, and
// neither may the transport, so a transport may queue the batch, send it
// twice or read it from another goroutine while the node runs on.
type EmitFunc func(dest int, pred string, b relation.Batch)

// Node is the transport-agnostic processor of the paper's abstract
// architecture: it owns the local base-relation fragments and one slot per
// derived predicate, fires initialization rules, accepts incoming tuples,
// runs local semi-naive iterations and routes freshly derived tuples per the
// scheme's sending rules. Transports — the in-process superstep loop here
// and the TCP runtime in internal/dist — deliver batches via Accept, carry
// the batches handed to the EmitFunc and decide when the run has ended.
//
// Each derived tuple is stored once. The paper's processors keep a t_out and
// a t_in per derived predicate, but Theorems 1 and 2 need only the
// receive-side difference: a tuple routed to this node itself lives in the
// slot's @in relation, with an origin bit marking it generated here, and a
// tuple bound solely for other nodes lives in the channel relation of its
// first destination d, the slot's out[d] (the paper's t_ij). Routing runs
// before dedup, and because a tuple's destinations are a function of the
// tuple, every derivation of it probes the same relation — one hash probe
// per firing serves both the send-side dedup and the receive-side
// difference. A channel relation is also the outbox: each pass hands d the
// rows out[d] gained since the last pass, as a window of its arena.
//
// A Node is not safe for concurrent use; each transport drives it from a
// single goroutine.
type Node struct {
	prog   *Program
	wi     int // dense index
	procID int

	store relation.Store // EDB fragments + @in relations, read by the plans
	preds []predSlot     // one per derived predicate, in Program.preds order

	// fix is the node's local semi-naive loop over the program's rules for
	// this processor (their shared plans, or armed copies after
	// EnableProfile), watching the @in relations; its counters are the
	// node's Firings, Generated, DupFirings and Iterations.
	fix *seminaive.Fixpoint
	// emit is the transport's send function for the current Init or Drain;
	// the loop flushes into it after every pass.
	emit EmitFunc

	// stats holds the transport-side counters.
	stats ProcStats

	// profile arms per-rule runtime counters.
	profile bool

	// sink receives this node's events; nil disables observability.
	sink obs.EventSink

	// batch[dest][slot] accumulates, within one local iteration, the copies
	// a tuple owes the destinations its channel relation does not hold: every
	// remote destination of a tuple kept here (a broadcast), and every
	// destination after the first of a tuple with several homes. Dense
	// indexes in sorted predicate order make flush's send order
	// deterministic without sorting.
	batch [][]relation.Batch

	// suppressed counts the tuples of this node's batches that Run did not
	// send, over a channel the topology lacks: their home never received
	// them, so Pool cannot concatenate.
	suppressed int64

	// routeVals and destScratch are route's reusable buffers; destScratch
	// has room for every peer, so route never reallocates it.
	routeVals   []ast.Value
	destScratch []int
}

// predSlot is a node's state for one derived predicate.
type predSlot struct {
	name  string
	inKey string // name + inSuffix, the plans' and watermarks' key
	// in holds the tuples this node received or kept for itself; mine has
	// bit r set when row r of in was also generated here.
	in   *relation.Relation
	mine []uint64
	// out[d] is the channel relation to the node of dense index d, nil
	// until first used: the tuples generated here whose destinations are
	// all other nodes, d first. sent[d] counts the rows of out[d] already
	// handed to d. out[wi], at the node's own index, holds the tuples with
	// no destination at all and is never sent. Pooling reads every out[d]
	// alongside in.
	out  []*relation.Relation
	sent []int
	// routers are the program's sending rules for this predicate,
	// precompiled against this processor; selfOnly marks the
	// communication-free scheme, whose only destination is the node itself,
	// and one the single point-to-point router over distinct variables,
	// whose one destination emitTuple computes directly.
	routers  []nodeRouter
	selfOnly bool
	one      *nodeRouter
	// homeless is set once one of this node's tuples had no home: its
	// router's h named a processor outside the set.
	homeless bool
}

// outTo returns the channel relation to dense index d, allocating it on
// first use.
func (s *predSlot) outTo(d int) *relation.Relation {
	if s.out[d] == nil {
		s.out[d] = relation.New(s.in.Arity())
	}
	return s.out[d]
}

// markMine sets row's origin bit, reporting whether it was already set.
func (s *predSlot) markMine(row int) bool {
	w, bit := row>>6, uint64(1)<<(row&63)
	for w >= len(s.mine) {
		s.mine = append(s.mine, 0)
	}
	had := s.mine[w]&bit != 0
	s.mine[w] |= bit
	return had
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
	// routing only), and h the processor's routing function; mod is h when
	// h is a ModHash (isMod), hashed without the interface call.
	seqPos []int
	h      hashpart.Func
	mod    hashpart.ModHash
	isMod  bool
	// dest caches a one-column router's answers for the values below its
	// length, the node's value bound (valueBound); it is empty for other
	// routers. dest[v] is 0 until home first routes v, then v's dense index
	// plus one, or -1 when h names a processor outside the set. h is
	// deterministic and fixed per processor, so the answer never changes.
	dest []int32
}

// compileRouter flattens rt for the processor procID; a one-column
// point-to-point router caches its answers for the values below bound.
// Build has already validated that a point-to-point router's sequence is
// contained in its pattern, so every sequence variable resolves to a
// column.
func compileRouter(rt Router, procID, bound int) nodeRouter {
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
		nr.mod, nr.isMod = nr.h.(hashpart.ModHash)
		if len(nr.seqPos) == 1 {
			nr.dest = make([]int32, bound)
		}
	}
	return nr
}

// valueBound bounds the values a node routes by a table: one more than the
// largest value of the base relations p reads from global, and at most
// their number of values. Datalog derives no constant its input lacks, so
// only a rule's own constants lie beyond the first bound; the second caps
// a routing table at a fraction of the EDB's arena when values are sparse.
func valueBound(p *Program, global relation.Store) int {
	hi, total := -1, 0
	for pred := range p.EDB {
		r := global[pred]
		if r == nil {
			continue
		}
		total += r.NumRows() * r.Arity()
		for i := 0; i < r.NumRows(); i++ {
			for _, v := range r.Row(i) {
				hi = max(hi, int(v))
			}
		}
	}
	return min(hi+1, total)
}

// NewNode materializes processor wi's node, including its base-relation
// fragments (the paper's b_k^i / D_in^i) drawn from the global EDB.
func NewNode(p *Program, wi int, global relation.Store) *Node {
	procID := p.Procs.IDs()[wi]
	n := &Node{
		prog:   p,
		wi:     wi,
		procID: procID,
		store:  relation.Store{},
		preds:  make([]predSlot, len(p.preds)),
		batch:  make([][]relation.Batch, p.Procs.Len()),
	}
	n.fix = &seminaive.Fixpoint{Store: n.store, Proc: procID, AfterPass: func() { n.flush(n.emit) }}
	n.stats.Proc = procID
	n.stats.Sent = make([]EdgeStats, p.Procs.Len())
	for pred := range p.EDB {
		frag := fragmentFor(p, pred, wi, procID, global)
		n.store[pred] = frag
		n.stats.EDBTuples += frag.Len()
	}
	maxSeq, bound := 0, valueBound(p, global)
	for si, pred := range p.preds {
		ar := p.IDB[pred]
		s := &n.preds[si]
		s.name, s.inKey = pred, pred+inSuffix
		s.in = relation.New(ar)
		s.out, s.sent = make([]*relation.Relation, p.Procs.Len()), make([]int, p.Procs.Len())
		n.store[s.inKey] = s.in
		n.fix.Watch(s.inKey, 0)
		for _, rt := range p.routers[pred] {
			nr := compileRouter(rt, procID, bound)
			s.routers = append(s.routers, nr)
			if len(nr.seqPos) > maxSeq {
				maxSeq = len(nr.seqPos)
			}
		}
		if len(s.routers) == 1 {
			rt := &s.routers[0]
			s.selfOnly = rt.self
			if !rt.self && !rt.broadcast && len(rt.consts) == 0 && len(rt.eqs) == 0 {
				s.one = rt
			}
		}
	}
	for d := range n.batch {
		n.batch[d] = make([]relation.Batch, len(p.preds))
		for si, pred := range p.preds {
			n.batch[d][si].Arity = p.IDB[pred]
		}
	}
	for _, cr := range p.rules[wi] {
		n.fix.Rules = append(n.fix.Rules, seminaive.FixRule{
			Head: cr.head, Plans: cr.plans, Init: cr.init,
			Absorb: func(t relation.Tuple) bool { return n.emitTuple(cr.slot, cr.home, t) },
		})
	}
	n.routeVals = make([]ast.Value, maxSeq)
	n.destScratch = make([]int, 0, p.Procs.Len())
	return n
}

// EnableProfile arms per-rule runtime counters on this node: every plan is
// swapped for an armed copy, so the program's shared plans stay untouched.
// Transports call it before Init. Rule keys strip the per-processor
// restriction constraint (seminaive.ProfileKey), so all workers' records of
// one source rule merge.
func (n *Node) EnableProfile() {
	n.profile = true
	for i := range n.fix.Rules {
		r := &n.fix.Rules[i]
		plans := make([]*seminaive.Plan, len(r.Plans))
		for j, pl := range r.Plans {
			plans[j] = pl.WithProfile()
		}
		r.Profile = &seminaive.RuleProfile{Key: seminaive.ProfileKey(n.prog.src, r.Plans[0].Rule), Pred: r.Head}
		r.Plans = plans
	}
}

// Profile folds the armed plan counters into the per-rule records and returns
// them with this processor's attribution attached. Call at most once, after
// the node's last Drain; nil when profiling is disabled.
func (n *Node) Profile() []*seminaive.RuleProfile {
	if !n.profile {
		return nil
	}
	n.fix.FoldProfiles()
	out := make([]*seminaive.RuleProfile, len(n.fix.Rules))
	for i, r := range n.fix.Rules {
		rp := r.Profile
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
func (n *Node) SetSink(s obs.EventSink) {
	n.sink = s
	n.fix.Sink = s
}

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
	n.emit = emit
	n.fix.Init()
	n.Drain(emit)
}

// Accept merges a received batch of one predicate into the local @in
// relation, eliminating duplicates by difference (the paper's receive
// step). from is the sender's dense worker index (-1 when unknown). It is
// the one receive path: transports Accept both channel batches and
// checkpoint snapshots. Call Drain afterwards; transports may Accept
// several batches per Drain.
//
// A tuple of a one-home predicate (Program.disjoint) whose home is another
// processor reached this node by a misroute; Accept drops and counts it
// (Unhomed). This keeps such an @in relation exactly the tuples homed
// here, which is what Pool's concatenation and build's implied h(…)=i
// tests (routedImplies) rely on.
func (n *Node) Accept(from int, pred string, b relation.Batch) {
	si, ok := n.prog.slots[pred]
	if !ok {
		return // unknown predicate: a corrupt or stale message; ignore
	}
	s := &n.preds[si]
	rel := s.in
	if b.N > 0 && b.Arity != rel.Arity() {
		return // a corrupt message; ignore
	}
	homed := n.prog.disjoint[si]
	dupBefore := n.stats.DupReceived
	n.stats.TuplesReceived += int64(b.N)
	for i := 0; i < b.N; i++ {
		t := b.Row(i)
		if homed {
			if wi, ok := n.home(s.one, t); !ok || wi != n.wi {
				n.stats.Unhomed++
				continue
			}
		}
		if !rel.Insert(t) {
			n.stats.DupReceived++
		}
	}
	if n.sink != nil {
		n.sink.MessageReceived(n.procID, n.PeerProc(from), pred, b.N, int(n.stats.DupReceived-dupBefore))
	}
}

// Message is one batch of tuples of one predicate, sent by the processor
// of dense index From (-1 for a checkpoint's rows).
type Message struct {
	From  int
	Pred  string
	Batch relation.Batch
}

// Turn is the node's turn in one superstep, the unit both transports
// schedule: Init first when init is set (the node's first superstep),
// then, if the inbox holds anything, Accept each message in order and
// Drain once. It adds the time taken to Busy and returns it.
func (n *Node) Turn(init bool, inbox []Message, emit EmitFunc) time.Duration {
	begin := time.Now()
	if init {
		n.Init(emit)
	}
	if len(inbox) > 0 {
		for _, m := range inbox {
			n.Accept(m.From, m.Pred, m.Batch)
		}
		n.Drain(emit)
	}
	d := time.Since(begin)
	n.RecordBusy(d)
	return d
}

// Drain runs local semi-naive iterations until no new tuples appear,
// flushing outgoing batches after each iteration (the paper's per-iteration
// send step).
func (n *Node) Drain(emit EmitFunc) {
	n.emit = emit
	n.fix.Drain() // no iteration bound or context: it cannot fail
}

// emitTuple handles one freshly derived head tuple of slot si: route it,
// dedup it once, and queue a first generation for its remote destinations,
// reporting whether it was one. A tuple routed to this node itself dedups
// against @in, where the origin bit tells a rederivation (DupFirings) from
// a tuple only received so far (a first generation here, still owed to
// its other destinations). A tuple bound only elsewhere dedups against,
// and is stored in, the channel relation of its first destination, which
// also sends it there; a tuple with no destination goes to out[wi]. home
// (the rule's heads are proven to route here alone) skips routing. t may
// be a scratch buffer: the relations and batches copy its values.
func (n *Node) emitTuple(si int, home bool, t relation.Tuple) bool {
	s := &n.preds[si]
	var dests []int
	self := home || s.selfOnly
	if !self {
		if s.one != nil {
			switch wi, ok := n.home(s.one, t); {
			case !ok:
				s.homeless = true
			case wi == n.wi:
				self = true
			default:
				dests = append(n.destScratch[:0], wi)
			}
		} else {
			dests, self = n.route(s, t)
		}
	}
	if self {
		if row, _ := s.in.InsertRow(t); s.markMine(row) {
			return false
		}
	} else {
		first := n.wi
		if len(dests) > 0 {
			first, dests = dests[0], dests[1:]
		}
		if _, fresh := s.outTo(first).InsertRow(t); !fresh {
			return false
		}
	}
	for _, wi := range dests {
		n.batch[wi][si].Append(t)
	}
	return true
}

// home returns the dense index of the one processor the point-to-point
// router rt sends t to, false when rt's h names a processor outside the set.
// A one-column router reads a value below its bound from its table, and
// hashes it only the first time.
func (n *Node) home(rt *nodeRouter, t relation.Tuple) (int, bool) {
	if len(rt.dest) == 0 {
		return n.hash(rt, t)
	}
	// A negative value converts to a uint past the table's end.
	v := uint(t[rt.seqPos[0]])
	if v >= uint(len(rt.dest)) {
		return n.hash(rt, t)
	}
	switch d := rt.dest[v]; {
	case d > 0:
		return int(d) - 1, true
	case d < 0:
		return 0, false
	}
	wi, ok := n.hash(rt, t)
	rt.dest[v] = -1
	if ok {
		rt.dest[v] = int32(wi) + 1
	}
	return wi, ok
}

// hash computes home's answer from rt's h.
func (n *Node) hash(rt *nodeRouter, t relation.Tuple) (int, bool) {
	var id int
	if rt.isMod {
		id = rt.mod.ApplyCols(t, rt.seqPos)
	} else {
		vals := n.routeVals[:len(rt.seqPos)]
		for k, c := range rt.seqPos {
			vals[k] = t[c]
		}
		id = rt.h.Apply(vals)
	}
	return n.prog.Procs.Index(id)
}

// route applies every router of s to t. It returns the remote destinations
// (dense indexes, deduplicated, valid until the next call) and whether the
// node itself is a destination — self-routed tuples are free, not
// communication. The precompiled routers and the node-owned scratch buffers
// make this allocation-free per tuple.
func (n *Node) route(s *predSlot, t relation.Tuple) (dests []int, self bool) {
	dests = n.destScratch[:0]
	add := func(wi int) {
		if wi == n.wi {
			self = true
			return
		}
		for _, d := range dests {
			if d == wi {
				return
			}
		}
		dests = append(dests, wi)
	}
	for i := range s.routers {
		rt := &s.routers[i]
		if rt.self {
			self = true
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
			for wi := 0; wi < len(n.batch); wi++ {
				add(wi)
			}
			continue
		}
		if wi, ok := n.home(rt, t); ok {
			add(wi)
		}
	}
	return dests, self
}

// flush hands the transport, in (destination, pred) order, one batch per
// channel that has tuples to send, so a deterministic schedule sees an
// identical send sequence run-to-run: the rows the channel relation out[d]
// gained since its last send, as a window of its arena, and the copies
// queued in batch[d]. Only when a channel has both are they copied into one
// batch. Each handed-off batch belongs to the transport from then on (the
// in-process runtime queues it).
func (n *Node) flush(emit EmitFunc) {
	for wi, byPred := range n.batch {
		for si := range byPred {
			s := &n.preds[si]
			var w relation.Batch
			if s.out[wi] != nil && wi != n.wi {
				w = s.out[wi].Flat(s.sent[wi])
				s.sent[wi] = s.out[wi].Len()
			}
			b := byPred[si]
			switch {
			case b.N == 0:
				if w.N > 0 {
					emit(wi, s.name, w)
				}
			case w.N == 0:
				byPred[si] = relation.Batch{Arity: b.Arity}
				emit(wi, s.name, b)
			default:
				both := relation.Batch{Arity: b.Arity, N: w.N + b.N, Vals: make([]ast.Value, 0, len(w.Vals)+len(b.Vals))}
				both.Vals = append(append(both.Vals, w.Vals...), b.Vals...)
				byPred[si] = relation.Batch{Arity: b.Arity, Vals: b.Vals[:0]}
				emit(wi, s.name, both)
			}
		}
	}
}

// Stats returns a snapshot of the node's accounting (transport-recorded
// fields included).
func (n *Node) Stats() ProcStats {
	st := n.stats
	st.Firings, st.Generated = n.fix.Totals()
	st.DupFirings = st.Firings - st.Generated
	st.Iterations = int64(n.fix.Iterations)
	st.Sent = append([]EdgeStats(nil), n.stats.Sent...)
	return st
}

// RecordSent accounts one batch of tuples the transport sent to the dense
// worker index dest: the processor's TuplesSent and its per-destination
// channel usage, from which both runtimes build Stats.Edges.
func (n *Node) RecordSent(dest, tuples int) {
	n.stats.TuplesSent += int64(tuples)
	n.stats.Sent[dest].Messages++
	n.stats.Sent[dest].Tuples += int64(tuples)
}

// RecordBusy adds transport-measured busy time.
func (n *Node) RecordBusy(d time.Duration) { n.stats.Busy += d }

// generated calls fn with every row this slot's node generated: its
// origin-marked @in rows and the rows of every channel relation, skipping
// the relation skip (nil skips none). Each generated tuple sits in exactly
// one of these places. Every other @in row was received, so it was
// generated at another node.
func (s *predSlot) generated(skip *relation.Relation, fn func(relation.Tuple)) {
	if s.in != skip {
		for w, word := range s.mine {
			for ; word != 0; word &= word - 1 {
				fn(s.in.Row(w<<6 | bits.TrailingZeros64(word)))
			}
		}
	}
	for _, r := range s.out {
		if r != nil && r != skip {
			for row := 0; row < r.Len(); row++ {
				fn(r.Row(row))
			}
		}
	}
}

// generatedLen counts the rows generated visits under the same skip.
func (s *predSlot) generatedLen(skip *relation.Relation) int {
	n := 0
	if s.in != skip {
		for _, w := range s.mine {
			n += bits.OnesCount64(w)
		}
	}
	for _, r := range s.out {
		if r != nil && r != skip {
			n += r.Len()
		}
	}
	return n
}

// Output hands fn, per derived predicate, this node's share of the final
// pooling step, which a transport ships instead of the node's relations.
// When the predicate's tuples provably reached their one home (homeSet),
// the share is the node's whole @in, flagged home: exactly the tuples homed
// here, so the home sets of all nodes are pairwise disjoint and their
// concatenation is the pooled result. It is handed over even when empty,
// so a collector can tell that every node's share was a home set. Any other
// predicate's share is the tuples this node generated, handed over only
// when there are some; across the nodes these add up to the run's
// Generated count, and their union is the pooled result. A home set shares
// the relation's arena instead of copying it; arena rows are immutable, so
// it stays valid however the node evolves.
func (n *Node) Output(fn func(pred string, home bool, b relation.Batch)) {
	for si := range n.preds {
		s := &n.preds[si]
		if n.homeSet(si) {
			fn(s.name, true, s.in.Flat(0))
			continue
		}
		k := s.generatedLen(nil)
		if k == 0 {
			continue
		}
		b := relation.Batch{Arity: s.in.Arity(), Vals: make([]ast.Value, 0, k*s.in.Arity())}
		s.generated(nil, b.Append)
		fn(s.name, false, b)
	}
}

// homeSet reports whether slot si's @in holds exactly the tuples homed at
// this node: build proved every tuple of the predicate has one home
// (Program.disjoint), none of this node's tuples was homeless, and the
// transport suppressed none of its sends.
func (n *Node) homeSet(si int) bool {
	return n.prog.disjoint[si] && n.suppressed == 0 && !n.preds[si].homeless
}

// Pool performs the final pooling step over finished nodes: each derived
// predicate's result is the union, over the nodes, of the tuples each
// generated. It adopts the largest of the nodes' relations, so the nodes
// must not be used afterwards. The nodes must share one Program; every
// derived predicate of it gets an entry, empty or not.
//
// When build proved that every tuple of a predicate has exactly one home
// (Program.disjoint) and every tuple reached it — none was homeless and
// the transport suppressed no send — each generated tuple sits in its
// home's @in and in no other, so the @in relations are pairwise disjoint
// and their union is the result: Pool adopts the largest and appends the
// others without a dedup probe. Otherwise every tuple a node generated
// sits in its @in (with its origin bit) when the node is among the
// tuple's destinations and in one of its channel relations otherwise, so
// Pool adopts the largest of these relations — received rows included,
// since each was generated elsewhere — and adds every other node's
// generated rows into it.
func Pool(nodes []*Node) relation.Store {
	out := relation.Store{}
	if len(nodes) == 0 {
		return out
	}
	p := nodes[0].prog
	for si, pred := range p.preds {
		if reachedHome(nodes, si) {
			out[pred] = concatIn(nodes, si)
			continue
		}
		dst := nodes[0].preds[si].in
		for _, n := range nodes {
			s := &n.preds[si]
			if s.in.Len() > dst.Len() {
				dst = s.in
			}
			for _, r := range s.out {
				if r != nil && r.Len() > dst.Len() {
					dst = r
				}
			}
		}
		more := 0
		for _, n := range nodes {
			more += n.preds[si].generatedLen(dst)
		}
		dst.Grow(more)
		for _, n := range nodes {
			n.preds[si].generated(dst, func(t relation.Tuple) { dst.Insert(t) })
		}
		out[pred] = dst
	}
	return out
}

// reachedHome reports whether every node's @in of slot si is its home set.
func reachedHome(nodes []*Node, si int) bool {
	for _, n := range nodes {
		if !n.homeSet(si) {
			return false
		}
	}
	return true
}

// concatIn pools slot si of nodes whose @in relations are pairwise
// disjoint: the largest absorbs the others.
func concatIn(nodes []*Node, si int) *relation.Relation {
	dst := nodes[0].preds[si].in
	for _, n := range nodes {
		if r := n.preds[si].in; r.Len() > dst.Len() {
			dst = r
		}
	}
	rest := make([]*relation.Relation, 0, len(nodes)-1)
	for _, n := range nodes {
		if r := n.preds[si].in; r != dst {
			rest = append(rest, r)
		}
	}
	dst.AppendDisjoint(rest...)
	return dst
}

// Snapshot captures the node's @in relations — the derived tuples this
// bucket has received or kept. Because every other piece of node state
// (the channel relations, the origin bits, the watermarks) is a monotone
// function of the EDB fragment and these tuples, a fresh node that runs
// Init, Accepts the snapshot and Drains converges to a state at least as
// advanced as this one: the snapshot is a complete bucket checkpoint.
// Predicates with no tuples are omitted. The rows are headers into the
// relations' arenas, not copies: arena rows are immutable once written,
// so the snapshot stays valid however the node evolves afterwards.
func (n *Node) Snapshot() map[string][]relation.Tuple {
	snap := make(map[string][]relation.Tuple, len(n.preds))
	for si := range n.preds {
		rel := n.preds[si].in
		if rel.Len() == 0 {
			continue
		}
		rows := make([]relation.Tuple, rel.Len())
		for i := range rows {
			rows[i] = rel.Row(i)
		}
		snap[n.preds[si].name] = rows
	}
	return snap
}
