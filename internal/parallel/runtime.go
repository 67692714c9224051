package parallel

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"parlog/internal/ast"
	"parlog/internal/hashpart"
	"parlog/internal/obs"
	"parlog/internal/relation"
	"parlog/internal/seminaive"
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
	// Topology restricts channels; nil means full mesh. Sends over missing
	// edges are suppressed and counted; Run fails if any occur.
	Topology *Topology
	// ChaosDuplicate delivers every inter-processor batch twice, modelling an
	// at-least-once channel instead of the paper's exactly-once idealization.
	// Results must be unaffected: receivers eliminate duplicates by
	// difference. For fault-injection tests.
	ChaosDuplicate bool
	// Ctx, when non-nil, cancels the run: it is checked at every barrier,
	// and Run returns the context's error.
	Ctx context.Context
	// Sink, when non-nil, receives the run's event stream (iterations,
	// rule firings, messages, busy/idle transitions, one termination probe).
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

// addressed is a Message on its way to the dense worker index to.
type addressed struct {
	to int
	Message
}

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
		for i := 0; i < r.NumRows(); i++ {
			if r.Alive(i) {
				dst.Insert(r.Row(i))
			}
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

// NodePlacements computes the per-predicate base-relation layout the
// program induces over the prepared global EDB, reading each processor's
// share off the fragment its node materialized (nodes[wi] is dense worker
// wi's), so the EDB is not fragmented a second time.
func NodePlacements(p *Program, global relation.Store, nodes []*Node) map[string]hashpart.Placement {
	placements := make(map[string]hashpart.Placement, len(p.EDB))
	for pred := range p.EDB {
		pl := hashpart.Placement{Pred: pred, TuplesPerProc: make([]int, p.Procs.Len())}
		// Partitioned iff the fragments together hold at most the relation.
		total := 0
		for wi := range pl.TuplesPerProc {
			pl.TuplesPerProc[wi] = nodes[wi].store[pred].Len()
			total += pl.TuplesPerProc[wi]
		}
		pl.Partitioned = total <= global[pred].Len()
		placements[pred] = pl
	}
	return placements
}

// Run executes the compiled program over the given base relations in
// supersteps and pools the results. In each superstep every worker with
// input takes one turn: it Accepts its inbox in sender order and Drains to
// its local fixpoint, and each per-iteration batch it emits goes to its
// own outbox. The turns run on min(turns, GOMAXPROCS) goroutines, the
// first the calling one, each taking the next untaken turn, so a run
// starts goroutines by the CPU count, not the worker count. The barrier
// then hands every sender's batches to their receivers, in sender order.
// The first superstep's turns are the workers' initializations; the run
// ends at the first barrier with nothing in flight, so no termination
// detector is needed. Because a worker's inbox is a function of the
// previous superstep alone, every per-processor counter except Busy is
// schedule-independent and equals RunLockstep's. The EDB store is not
// modified.
func Run(p *Program, edb relation.Store, cfg RunConfig) (*Result, error) {
	return supersteps(p, edb, cfg, "parallel", func(turns []func()) {
		var next atomic.Int64
		take := func() {
			for i := next.Add(1) - 1; i < int64(len(turns)); i = next.Add(1) - 1 {
				turns[i]()
			}
		}
		var wg sync.WaitGroup
		k := min(len(turns), runtime.GOMAXPROCS(0))
		wg.Add(k - 1)
		for range k - 1 {
			go func() {
				defer wg.Done()
				take()
			}()
		}
		take()
		wg.Wait()
	})
}

// supersteps is the one loop behind Run and RunLockstep; runTurns executes
// one superstep's turns (never none) and returns once all of them have
// finished.
func supersteps(p *Program, edb relation.Store, cfg RunConfig, engine string, runTurns func(turns []func())) (*Result, error) {
	n := p.Procs.Len()
	ids := p.Procs.IDs()
	global, err := PrepareEDB(p, edb)
	if err != nil {
		return nil, err
	}

	// Distribute the EDB: each node materializes the union of the
	// fragments its rules need (the paper's b_k^i / D_in^i).
	nodes := make([]*Node, n)
	for wi := range nodes {
		nodes[wi] = NewNode(p, wi, global)
		nodes[wi].SetSink(cfg.Sink)
		if cfg.Profile {
			nodes[wi].EnableProfile()
		}
	}
	if cfg.Sink != nil {
		cfg.Sink.RunStart(engine, ids)
	}
	start := time.Now()

	// Worker wi alone writes outbox[wi] during a superstep; inbox[wi] is
	// read-only until the barrier.
	inbox := make([][]Message, n)
	outbox := make([][]addressed, n)
	copies := 1
	if cfg.ChaosDuplicate {
		copies = 2
	}
	emits := make([]EmitFunc, n)
	for wi := range emits {
		wi := wi
		emits[wi] = func(dest int, pred string, b relation.Batch) {
			if !cfg.Topology.Allowed(ids[wi], ids[dest]) {
				nodes[wi].suppressed += int64(b.N)
				return
			}
			for c := 0; c < copies; c++ {
				nodes[wi].RecordSent(dest, b.N)
				if cfg.Sink != nil {
					cfg.Sink.MessageSent(ids[wi], ids[dest], pred, b.N)
				}
				outbox[wi] = append(outbox[wi], addressed{dest, Message{From: wi, Pred: pred, Batch: b}})
			}
		}
	}
	turn := func(wi int, init bool) func() {
		return func() {
			if cfg.Sink != nil {
				cfg.Sink.WorkerBusy(ids[wi])
			}
			nodes[wi].Turn(init, inbox[wi], emits[wi])
			if cfg.Sink != nil {
				cfg.Sink.WorkerIdle(ids[wi])
			}
		}
	}

	steps := 0
	for ; ; steps++ {
		if cfg.Ctx != nil {
			if err = cfg.Ctx.Err(); err != nil {
				break
			}
		}
		var turns []func()
		for wi := range nodes {
			if steps == 0 || len(inbox[wi]) > 0 {
				turns = append(turns, turn(wi, steps == 0))
			}
		}
		if len(turns) == 0 {
			break
		}
		runTurns(turns)
		// The barrier: deliver each sender's batches in sender order.
		inbox = make([][]Message, n)
		for wi, msgs := range outbox {
			for _, m := range msgs {
				inbox[m.to] = append(inbox[m.to], m.Message)
			}
			outbox[wi] = nil
		}
	}
	wall := time.Since(start)
	if cfg.Sink != nil {
		if err == nil {
			cfg.Sink.TermProbe("superstep", steps, true)
		}
		cfg.Sink.RunEnd(wall)
	}
	if err != nil {
		return nil, err
	}

	// Final pooling: union each derived predicate across processors.
	stats := &Stats{Placements: NodePlacements(p, global, nodes), Wall: wall}
	var prof *seminaive.Profile
	if cfg.Profile {
		prof = &seminaive.Profile{Engine: engine, WallNs: wall.Nanoseconds()}
	}
	for _, node := range nodes {
		if prof != nil {
			prof.AddRules(node.Profile())
		}
		stats.Procs = append(stats.Procs, node.Stats())
		stats.ForbiddenSends += node.suppressed
	}
	res := &Result{Output: Pool(nodes), Stats: stats, Profile: prof}
	stats.Edges = EdgesOf(stats.Procs, ids)
	if stats.ForbiddenSends > 0 {
		return res, fmt.Errorf("parallel: topology suppressed %d tuple sends — the given network cannot execute this scheme", stats.ForbiddenSends)
	}
	return res, nil
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
