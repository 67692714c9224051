package parallel

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"time"

	"parlog/internal/ast"
	"parlog/internal/hashpart"
	"parlog/internal/obs"
	"parlog/internal/relation"
	"parlog/internal/seminaive"
	"parlog/internal/termdetect"
)

// TerminationMode selects the distributed termination detector.
type TerminationMode int

const (
	// TermCredit uses the credit/outstanding-work detector (default): exact
	// and poll-free.
	TermCredit TerminationMode = iota
	// TermCounting uses Mattern's four-counter two-wave detector with a
	// polling coordinator.
	TermCounting
	// TermDijkstraScholten uses the diffusing-computation detector the paper
	// cites.
	TermDijkstraScholten
)

// Topology restricts which inter-processor channels exist (Section 5's
// network graphs). A nil Topology is the full mesh. Self-loops are always
// permitted: a processor may keep its own tuples.
type Topology struct {
	allowed map[[2]int]bool
}

// NewTopology builds a topology from directed edges (processor ids).
func NewTopology(edges [][2]int) *Topology {
	t := &Topology{allowed: make(map[[2]int]bool, len(edges))}
	for _, e := range edges {
		t.allowed[e] = true
	}
	return t
}

// Allowed reports whether i may send to j.
func (t *Topology) Allowed(i, j int) bool {
	if t == nil || i == j {
		return true
	}
	return t.allowed[[2]int{i, j}]
}

// Edges returns the edge set, sorted.
func (t *Topology) Edges() [][2]int {
	out := make([][2]int, 0, len(t.allowed))
	for e := range t.allowed {
		out = append(out, e)
	}
	sortEdges(out)
	return out
}

func sortEdges(out [][2]int) {
	sort.Slice(out, func(i, j int) bool {
		if out[i][0] != out[j][0] {
			return out[i][0] < out[j][0]
		}
		return out[i][1] < out[j][1]
	})
}

// RunConfig configures a parallel execution.
type RunConfig struct {
	Mode TerminationMode
	// Topology restricts channels; nil means full mesh. Sends over missing
	// edges are suppressed and counted; Run fails if any occur.
	Topology *Topology
	// PollInterval is the counting detector's wave period (default 100µs).
	PollInterval time.Duration
	// MaxBatch splits outgoing tuple batches (default: unlimited — one batch
	// per destination per local iteration, the paper's per-iteration send).
	MaxBatch int
	// ChaosDuplicate delivers every inter-processor batch twice, modelling an
	// at-least-once channel instead of the paper's exactly-once idealization.
	// Results must be unaffected: receivers eliminate duplicates by
	// difference. For fault-injection tests.
	ChaosDuplicate bool
	// ChaosJitter sleeps a pseudorandom duration below this bound before
	// each send, perturbing message interleavings; for schedule-fuzzing
	// tests.
	ChaosJitter time.Duration
	// Ctx, when non-nil, cancels the run: workers stop at their next
	// scheduling point and Run returns the context's error.
	Ctx context.Context
	// Sink, when non-nil, receives the run's event stream (iterations,
	// rule firings, messages, busy/idle transitions, detector probes).
	Sink obs.EventSink
	// Profile arms per-rule runtime counters on every worker and merges them
	// into Result.Profile with per-processor attribution. Off by default:
	// the disabled path pays nothing.
	Profile bool
}

// Result is the outcome of a parallel run.
type Result struct {
	// Output holds the pooled derived relations (final pooling step) plus
	// nothing else; base relations are the caller's input.
	Output relation.Store
	Stats  *Stats
	// Profile is the merged per-rule runtime profile; nil unless
	// RunConfig.Profile was set.
	Profile *seminaive.Profile
}

// message is a batch of tuples of one predicate sent over one channel.
type message struct {
	from   int // dense worker index
	pred   string
	tuples []relation.Tuple
}

// mailbox is an unbounded, non-blocking inbox: senders never block, so
// bounded-buffer deadlocks cannot occur regardless of topology.
type mailbox struct {
	mu     sync.Mutex
	msgs   []message
	notify chan struct{}
}

func newMailbox() *mailbox {
	return &mailbox{notify: make(chan struct{}, 1)}
}

func (m *mailbox) push(msg message) {
	m.mu.Lock()
	m.msgs = append(m.msgs, msg)
	m.mu.Unlock()
	select {
	case m.notify <- struct{}{}:
	default:
	}
}

func (m *mailbox) takeAll() []message {
	m.mu.Lock()
	out := m.msgs
	m.msgs = nil
	m.mu.Unlock()
	return out
}

// detector abstracts the three termination algorithms behind the hooks the
// worker loop needs.
type detector interface {
	// beforeSend is called by the sender just before enqueueing a batch.
	beforeSend(from int)
	// afterReceive is called by the receiver for each dequeued batch, after
	// it has cleared its idle state.
	afterReceive(w, from int)
	// workDone retires one unit of work (one batch fully processed, or the
	// initial activation).
	workDone(w int)
	// idle publishes that w is about to block with nothing to do.
	idle(w int)
	// busy publishes that w woke up.
	busy(w int)
	// quiesced is closed when global termination is established.
	quiesced() <-chan struct{}
	// stop tears down any auxiliary goroutine.
	stop()
}

// creditDetector adapts termdetect.Credit.
type creditDetector struct{ c *termdetect.Credit }

func newCreditDetector(n int) *creditDetector {
	c := termdetect.NewCredit()
	c.Add(n) // one unit per worker's initialization
	return &creditDetector{c: c}
}

func (d *creditDetector) beforeSend(int)            { d.c.Add(1) }
func (d *creditDetector) afterReceive(int, int)     {}
func (d *creditDetector) workDone(int)              { d.c.Done() }
func (d *creditDetector) idle(int)                  {}
func (d *creditDetector) busy(int)                  {}
func (d *creditDetector) quiesced() <-chan struct{} { return d.c.Quiesced() }
func (d *creditDetector) stop()                     {}

// countingDetector adapts termdetect.Counting with a polling coordinator.
type countingDetector struct {
	c    *termdetect.Counting
	done chan struct{}
	quit chan struct{}
}

func newCountingDetector(n int, poll time.Duration, sink obs.EventSink) *countingDetector {
	d := &countingDetector{
		c:    termdetect.NewCounting(n),
		done: make(chan struct{}),
		quit: make(chan struct{}),
	}
	go func() {
		tick := time.NewTicker(poll)
		defer tick.Stop()
		probe := 0
		for {
			select {
			case <-tick.C:
				ok := d.c.Check()
				if sink != nil {
					sink.TermProbe("counting", probe, ok)
				}
				probe++
				if ok {
					close(d.done)
					return
				}
			case <-d.quit:
				return
			}
		}
	}()
	return d
}

func (d *countingDetector) beforeSend(from int)       { d.c.Sent(from) }
func (d *countingDetector) afterReceive(w, _ int)     { d.c.Received(w) }
func (d *countingDetector) workDone(int)              {}
func (d *countingDetector) idle(w int)                { d.c.SetIdle(w, true) }
func (d *countingDetector) busy(w int)                { d.c.SetIdle(w, false) }
func (d *countingDetector) quiesced() <-chan struct{} { return d.done }
func (d *countingDetector) stop()                     { close(d.quit) }

// dsDetector adapts termdetect.DijkstraScholten.
type dsDetector struct{ d *termdetect.DijkstraScholten }

func newDSDetector(n int) *dsDetector {
	return &dsDetector{d: termdetect.NewDijkstraScholten(n)}
}

func (d *dsDetector) beforeSend(from int)       { d.d.MessageSent(from) }
func (d *dsDetector) afterReceive(w, from int)  { d.d.MessageReceived(w, from) }
func (d *dsDetector) workDone(int)              {}
func (d *dsDetector) idle(w int)                { d.d.SetPassive(w) }
func (d *dsDetector) busy(w int)                { d.d.SetActive(w) }
func (d *dsDetector) quiesced() <-chan struct{} { return d.d.Quiesced() }
func (d *dsDetector) stop()                     {}

// PrepareEDB merges the program's embedded facts with the caller's base
// relations into the global EDB that nodes fragment, validating that no
// ground tuples were supplied for derived predicates. The input store is
// not modified.
func PrepareEDB(p *Program, edb relation.Store) (relation.Store, error) {
	global := relation.Store{}
	for pred, ar := range p.EDB {
		global.Get(pred, ar)
	}
	for pred, r := range edb {
		// The caller's store is user data: reject an arity clash with the
		// program's declared relations instead of panicking.
		dst, err := global.GetChecked(pred, r.Arity())
		if err != nil {
			return nil, fmt.Errorf("parallel: EDB %w", err)
		}
		for i := 0; i < r.Len(); i++ {
			dst.Insert(r.Row(i))
		}
	}
	for pred, tuples := range p.facts {
		global.InsertAll(pred, tuples)
	}
	for pred := range p.IDB {
		if r, ok := global[pred]; ok && r.Len() > 0 {
			return nil, fmt.Errorf("parallel: input provides ground tuples for derived predicate %s; seed them through a base relation and an exit rule instead", pred)
		}
	}
	return global, nil
}

// Placements computes the per-predicate base-relation layout the program
// induces over the prepared global EDB.
func Placements(p *Program, global relation.Store) map[string]hashpart.Placement {
	return makePlacements(p, global, func(pred string, wi int) int {
		return fragmentFor(p, pred, wi, p.Procs.IDs()[wi], global).Len()
	})
}

// nodePlacements reads the layout off the fragments the nodes already
// materialized, instead of fragmenting the EDB a second time.
func nodePlacements(p *Program, global relation.Store, nodes []*Node) map[string]hashpart.Placement {
	return makePlacements(p, global, func(pred string, wi int) int {
		return nodes[wi].store[pred].Len()
	})
}

// Run executes the compiled program over the given base relations and pools
// the results. The EDB store is not modified.
func Run(p *Program, edb relation.Store, cfg RunConfig) (*Result, error) {
	n := p.Procs.Len()
	if cfg.PollInterval <= 0 {
		cfg.PollInterval = 100 * time.Microsecond
	}

	global, err := PrepareEDB(p, edb)
	if err != nil {
		return nil, err
	}

	// Distribute the EDB: each worker materializes the union of the
	// fragments its rules need (the paper's b_k^i / D_in^i).
	workers := make([]*worker, n)
	nodes := make([]*Node, n)
	for wi := 0; wi < n; wi++ {
		workers[wi] = newWorker(p, wi, global)
		nodes[wi] = workers[wi].node
		workers[wi].node.SetSink(cfg.Sink)
		if cfg.Profile {
			workers[wi].node.EnableProfile()
		}
	}

	if cfg.Sink != nil {
		cfg.Sink.RunStart("parallel", p.Procs.IDs())
	}

	var det detector
	switch cfg.Mode {
	case TermCounting:
		det = newCountingDetector(n, cfg.PollInterval, cfg.Sink)
	case TermDijkstraScholten:
		det = newDSDetector(n)
	default:
		det = newCreditDetector(n)
	}

	start := time.Now()
	var wg sync.WaitGroup
	for wi := 0; wi < n; wi++ {
		wg.Add(1)
		go func(w *worker) {
			defer wg.Done()
			w.run(workers, det, cfg)
		}(workers[wi])
	}
	wg.Wait()
	det.stop()
	wall := time.Since(start)
	if cfg.Sink != nil {
		cfg.Sink.RunEnd(wall)
	}
	if cfg.Ctx != nil {
		if err := cfg.Ctx.Err(); err != nil {
			return nil, err
		}
	}

	// Final pooling: union each derived predicate across processors.
	stats := &Stats{Placements: nodePlacements(p, global, nodes), Wall: wall}
	var prof *seminaive.Profile
	if cfg.Profile {
		prof = &seminaive.Profile{Engine: "parallel", WallNs: wall.Nanoseconds()}
	}
	var forbidden int64
	for _, w := range workers {
		if prof != nil {
			prof.AddRules(w.node.Profile())
		}
		stats.Procs = append(stats.Procs, w.node.Stats())
		forbidden += w.forbidden
	}
	out := Pool(nodes)
	stats.Edges = EdgesOf(stats.Procs, p.Procs.IDs())
	stats.ForbiddenSends = forbidden
	if forbidden > 0 {
		return &Result{Output: out, Stats: stats, Profile: prof},
			fmt.Errorf("parallel: topology suppressed %d tuple sends — the given network cannot execute this scheme", forbidden)
	}
	return &Result{Output: out, Stats: stats, Profile: prof}, nil
}

// makePlacements computes per-predicate placement statistics from the
// fragment size of each (predicate, dense worker index).
func makePlacements(p *Program, global relation.Store, fragLen func(pred string, wi int) int) map[string]hashpart.Placement {
	placements := make(map[string]hashpart.Placement, len(p.EDB))
	for pred := range p.EDB {
		pl := hashpart.Placement{Pred: pred, Partitioned: true, TuplesPerProc: make([]int, p.Procs.Len())}
		for wi := range pl.TuplesPerProc {
			pl.TuplesPerProc[wi] = fragLen(pred, wi)
		}
		// Partitioned iff the total equals at most the relation size.
		total := 0
		for _, c := range pl.TuplesPerProc {
			total += c
		}
		pl.Partitioned = total <= global[pred].Len()
		placements[pred] = pl
	}
	return placements
}

// fragmentFor materializes the union of EDB subsets worker wi needs of pred.
func fragmentFor(p *Program, pred string, wi, procID int, global relation.Store) *relation.Relation {
	src := global[pred]
	frag := relation.New(src.Arity())
	for _, need := range p.needs {
		if need.pred != pred {
			continue
		}
		if need.seq == nil || need.hFor == nil {
			for i := 0; i < src.Len(); i++ {
				frag.Insert(src.Row(i))
			}
			continue
		}
		pos, ok := hashpart.SeqPositions(need.pattern, need.seq)
		if !ok {
			for i := 0; i < src.Len(); i++ {
				frag.Insert(src.Row(i))
			}
			continue
		}
		h := need.hFor(procID)
		vals := make([]ast.Value, len(pos))
		for i := 0; i < src.Len(); i++ {
			t := src.Row(i)
			if !hashpart.MatchesPattern(need.pattern, t) {
				continue
			}
			for k, c := range pos {
				vals[k] = t[c]
			}
			if h.Apply(vals) == procID {
				frag.Insert(t)
			}
		}
	}
	return frag
}

// worker is the in-process transport around a Node: an unbounded mailbox,
// termination-detector instrumentation, topology enforcement, batching and
// chaos injection.
type worker struct {
	node      *Node
	wi        int
	procID    int
	inbox     *mailbox
	forbidden int64
	jitter    uint64 // xorshift state for ChaosJitter
}

func newWorker(p *Program, wi int, global relation.Store) *worker {
	return &worker{
		node:   NewNode(p, wi, global),
		wi:     wi,
		procID: p.Procs.IDs()[wi],
		inbox:  newMailbox(),
		jitter: uint64(wi)*0x9e3779b97f4a7c15 + 1,
	}
}

// run is the worker main loop: initialization, then receive/process until
// global termination.
func (w *worker) run(workers []*worker, det detector, cfg RunConfig) {
	emit := w.emitFunc(workers, det, cfg)
	sink := w.node.Sink()
	var cancelled <-chan struct{} // nil (never ready) without a Ctx
	if cfg.Ctx != nil {
		cancelled = cfg.Ctx.Done()
	}
	if sink != nil {
		sink.WorkerBusy(w.procID)
	}
	begin := time.Now()
	w.node.Init(emit)
	w.node.RecordBusy(time.Since(begin))
	det.workDone(w.wi) // retire the initialization unit
	if sink != nil {
		sink.WorkerIdle(w.procID)
	}
	det.idle(w.wi)

	for {
		select {
		case <-w.inbox.notify:
			det.busy(w.wi)
			if sink != nil {
				sink.WorkerBusy(w.procID)
			}
			begin = time.Now()
			msgs := w.inbox.takeAll()
			for _, m := range msgs {
				det.afterReceive(w.wi, m.from)
				w.node.Accept(m.from, m.pred, m.tuples)
			}
			w.node.Drain(emit)
			w.node.RecordBusy(time.Since(begin))
			for range msgs {
				det.workDone(w.wi)
			}
			if sink != nil {
				sink.WorkerIdle(w.procID)
			}
			det.idle(w.wi)
		case <-det.quiesced():
			return
		case <-cancelled:
			return
		}
	}
}

// emitFunc builds the transport-side send path: topology enforcement,
// optional batch splitting and chaos, per-edge accounting, detector
// instrumentation, mailbox delivery.
func (w *worker) emitFunc(workers []*worker, det detector, cfg RunConfig) EmitFunc {
	return func(wi int, pred string, tuples []relation.Tuple) {
		toProc := w.node.prog.Procs.IDs()[wi]
		if !cfg.Topology.Allowed(w.procID, toProc) {
			w.forbidden += int64(len(tuples))
			return
		}
		for len(tuples) > 0 {
			batch := tuples
			if cfg.MaxBatch > 0 && len(batch) > cfg.MaxBatch {
				batch = tuples[:cfg.MaxBatch]
			}
			tuples = tuples[len(batch):]
			sends := 1
			if cfg.ChaosDuplicate {
				sends = 2
			}
			for s := 0; s < sends; s++ {
				if cfg.ChaosJitter > 0 {
					w.jitter ^= w.jitter << 13
					w.jitter ^= w.jitter >> 7
					w.jitter ^= w.jitter << 17
					time.Sleep(time.Duration(w.jitter % uint64(cfg.ChaosJitter)))
				}
				w.node.RecordSent(wi, len(batch))
				if sink := w.node.Sink(); sink != nil {
					sink.MessageSent(w.procID, toProc, pred, len(batch))
				}
				det.beforeSend(w.wi)
				workers[wi].inbox.push(message{from: w.wi, pred: pred, tuples: batch})
			}
		}
	}
}
