package parlog

import (
	"context"
	"fmt"
	"sort"

	"parlog/internal/analysis"
	"parlog/internal/ast"
	"parlog/internal/dist"
	"parlog/internal/hashpart"
	"parlog/internal/network"
	"parlog/internal/obs"
	"parlog/internal/parallel"
	"parlog/internal/rewrite"
	"parlog/internal/seminaive"
)

// Strategy selects the parallelization scheme.
type Strategy int

const (
	// StrategyAuto picks for linear sirups the communication-free choice of
	// Theorem 3 when the dataflow graph has a cycle, and otherwise the
	// Section 3 hash-partitioned scheme with a heuristic discriminating
	// sequence; non-sirup programs use the general scheme.
	StrategyAuto Strategy = iota
	// StrategyHashPartition is the Section 3 non-redundant scheme Q with the
	// discriminating sequences given in the options (paper Examples 1–3,
	// depending on VR/VE).
	StrategyHashPartition
	// StrategyNoComm is the Section 6 communication-free scheme: replicated
	// base relations, possible duplicated work, zero messages.
	StrategyNoComm
	// StrategyTradeoff is the Section 6 scheme R with per-processor mixing
	// functions h_i: Locality 0 is non-redundant (≡ Q), Locality 1 is
	// communication-free (≡ NoComm).
	StrategyTradeoff
	// StrategyGeneral is the Section 7 scheme, applicable to every Datalog
	// program.
	StrategyGeneral
)

// ParallelStats aggregates a parallel run's accounting.
type ParallelStats = parallel.Stats

// Topology restricts the processor interconnect (Section 5).
type Topology = parallel.Topology

// NewTopology builds a topology from directed processor-id edges.
func NewTopology(edges [][2]int) *Topology { return parallel.NewTopology(edges) }

// runConfig translates the public options (plus ctx and the built sink)
// into the in-process runtime's configuration.
func runConfig(ctx context.Context, opts EvalOptions, sink obs.EventSink) parallel.RunConfig {
	return parallel.RunConfig{
		Topology: opts.Topology,
		Ctx:      ctx,
		Sink:     sink,
		Profile:  opts.Profile,
	}
}

// EvalParallel evaluates the program on Workers goroutine-processors
// communicating over channels, per the selected scheme, and pools the
// result. The edb argument may be nil if all facts are embedded in the
// program. A nil ctx means no cancellation. Equivalent to Eval with
// EvalOptions.Engine = EngineParallel.
func EvalParallel(ctx context.Context, p *Program, edb Store, opts EvalOptions) (*Result, error) {
	opts.Engine = EngineParallel
	return eval(ctx, p, edb, opts)
}

// evalParallel is the in-process engine behind the dispatcher; opts are
// filled, edb is non-nil, and sink is the dispatcher's telemetry stack.
func evalParallel(ctx context.Context, p *Program, edb Store, opts EvalOptions, sink obs.EventSink) (*Result, error) {
	if analysis.HasNegation(p.ast) && (opts.Strategy == StrategyAuto || opts.Strategy == StrategyGeneral) {
		return evalParallelStratified(ctx, p, edb, opts, sink)
	}
	prog, err := compileParallel(p, opts)
	if err != nil {
		return nil, err
	}
	res, err := parallel.Run(prog, edb, runConfig(ctx, opts, sink))
	if err != nil {
		return nil, err
	}
	return &Result{Output: res.Output, Stats: res.Stats, Profile: res.Profile}, nil
}

// evalParallelStratified runs a stratified-negation program as a sequence of
// parallel phases, one per stratum: each phase evaluates its stratum's rules
// with the Section 7 general scheme, treating all lower strata (now
// complete) as base relations — the stratum barrier is exactly what makes
// negation-as-absence sound in a distributed setting.
func evalParallelStratified(ctx context.Context, p *Program, edb Store, opts EvalOptions, sink obs.EventSink) (*Result, error) {
	strata, err := analysis.Strata(p.ast)
	if err != nil {
		return nil, err
	}
	rules, facts := p.ast.FactTuples()
	maxS := 0
	for _, s := range strata {
		if s > maxS {
			maxS = s
		}
	}
	store := edb.Clone()
	for pred, tuples := range facts {
		store.InsertAll(pred, tuples)
	}

	h := hashpart.ModHash{N: opts.Workers, Seed: opts.Seed}
	agg := &parallel.Stats{Placements: map[string]hashpart.Placement{}}
	perProc := map[int]parallel.ProcStats{}
	output := Store{}
	var prof *Profile
	if opts.Profile {
		prof = &seminaive.Profile{Engine: "parallel"}
	}

	for s := 0; s <= maxS; s++ {
		sub := &ast.Program{Interner: p.ast.Interner}
		for _, r := range rules {
			if strata[r.Head.Pred] == s {
				sub.AddRule(r.Clone())
			}
		}
		if len(sub.Rules) == 0 {
			continue
		}
		gspec := rewrite.GeneralSpec{Procs: hashpart.RangeProcs(opts.Workers)}
		for _, r := range sub.Rules {
			gspec.Rules = append(gspec.Rules, rewrite.RuleSpec{Seq: defaultSeq(sub, r), H: h})
		}
		pp, err := parallel.BuildGeneral(sub, gspec)
		if err != nil {
			return nil, fmt.Errorf("parlog: stratum %d: %w", s, err)
		}
		res, err := parallel.Run(pp, store, runConfig(ctx, opts, sink))
		if err != nil {
			return nil, fmt.Errorf("parlog: stratum %d: %w", s, err)
		}
		// Derived relations feed the next stratum and the pooled output.
		for pred, rel := range res.Output {
			dst := store.Get(pred, rel.Arity())
			out := output.Get(pred, rel.Arity())
			for _, t := range rel.Rows() {
				dst.Insert(t)
				out.Insert(t)
			}
		}
		agg.Wall += res.Stats.Wall
		agg.ForbiddenSends += res.Stats.ForbiddenSends
		if prof != nil && res.Profile != nil {
			// Strata run one after another: their rule records fold by key
			// (addProc sums same-processor entries) and their walls add.
			prof.AddRules(res.Profile.Rules)
			prof.WallNs += res.Profile.WallNs
		}
		for _, ps := range res.Stats.Procs {
			cur := perProc[ps.Proc]
			cur.Proc = ps.Proc
			cur.Firings += ps.Firings
			cur.Generated += ps.Generated
			cur.DupFirings += ps.DupFirings
			cur.TuplesSent += ps.TuplesSent
			cur.TuplesReceived += ps.TuplesReceived
			cur.DupReceived += ps.DupReceived
			cur.Unhomed += ps.Unhomed
			cur.Iterations += ps.Iterations
			cur.Busy += ps.Busy
			cur.EDBTuples += ps.EDBTuples
			if cur.Sent == nil {
				cur.Sent = make([]parallel.EdgeStats, len(ps.Sent))
			}
			for d, es := range ps.Sent {
				cur.Sent[d].Messages += es.Messages
				cur.Sent[d].Tuples += es.Tuples
			}
			perProc[ps.Proc] = cur
		}
		for pred, pl := range res.Stats.Placements {
			agg.Placements[pred] = pl
		}
	}
	ids := make([]int, 0, len(perProc))
	for id := range perProc {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	for _, id := range ids {
		agg.Procs = append(agg.Procs, perProc[id])
	}
	// Every stratum runs on the same processor set {0, …, Workers−1}.
	agg.Edges = parallel.EdgesOf(agg.Procs, hashpart.RangeProcs(opts.Workers).IDs())
	return &Result{Output: output, Stats: agg, Profile: prof}, nil
}

// RewriteListings returns the per-processor rewritten programs — the paper's
// central artifact (Q_i for StrategyHashPartition, the three-rule program
// for StrategyNoComm, R_i for StrategyTradeoff, T_i for StrategyGeneral) —
// as printable Datalog keyed by processor id. The listings show the exact
// initialization/processing/sending/receiving/pooling rules, with the
// discriminating conditions as "h(...) = i" atoms.
func RewriteListings(p *Program, opts EvalOptions) (map[int]string, error) {
	if opts.Workers <= 0 {
		opts.Workers = 4
	}
	procs := hashpart.RangeProcs(opts.Workers)
	h := hashpart.ModHash{N: opts.Workers, Seed: opts.Seed}

	strategy := opts.Strategy
	s, sirupErr := analysis.ExtractSirup(p.ast)
	if strategy == StrategyAuto {
		if sirupErr != nil {
			strategy = StrategyGeneral
		} else if spec, err := network.CommFree(s, procs); err == nil {
			return listingsOf(rewrite.Q(s, *spec))
		} else {
			strategy = StrategyHashPartition
		}
	}
	switch strategy {
	case StrategyHashPartition:
		if sirupErr != nil {
			return nil, fmt.Errorf("parlog: StrategyHashPartition needs a linear sirup: %w", sirupErr)
		}
		vr, ve := opts.VR, opts.VE
		if vr == nil {
			vr = []string{s.BodyVars[0]}
		}
		if ve == nil {
			ve = defaultVE(s, vr)
		}
		return listingsOf(rewrite.Q(s, rewrite.SirupSpec{Procs: procs, VR: vr, VE: ve, H: h}))
	case StrategyNoComm:
		if sirupErr != nil {
			return nil, fmt.Errorf("parlog: StrategyNoComm needs a linear sirup: %w", sirupErr)
		}
		ve := opts.VE
		if ve == nil {
			ve = []string{s.ExitVars[0]}
		}
		return listingsOf(rewrite.NoComm(s, rewrite.NoCommSpec{Procs: procs, VE: ve, HP: h}))
	case StrategyTradeoff:
		if sirupErr != nil {
			return nil, fmt.Errorf("parlog: StrategyTradeoff needs a linear sirup: %w", sirupErr)
		}
		vr, ve := opts.VR, opts.VE
		if vr == nil {
			vr = []string{s.BodyVars[0]}
		}
		if ve == nil {
			ve = defaultVE(s, vr)
		}
		keep := int(opts.Locality * 1000)
		seed := opts.Seed
		return listingsOf(rewrite.R(s, rewrite.RSpec{
			Procs: procs, VR: vr, VE: ve, HP: h,
			HI: func(i int) hashpart.Func {
				return hashpart.Mix{Local: i, Shared: h, KeepPermille: keep, Seed: seed}
			},
		}))
	case StrategyGeneral:
		rules, _ := p.ast.FactTuples()
		gspec := rewrite.GeneralSpec{Procs: procs}
		for _, r := range rules {
			gspec.Rules = append(gspec.Rules, rewrite.RuleSpec{Seq: defaultSeq(p.ast, r), H: h})
		}
		return listingsOf(rewrite.General(p.ast, gspec))
	default:
		return nil, fmt.Errorf("parlog: unknown strategy %d", strategy)
	}
}

func listingsOf(rw *rewrite.Rewritten, err error) (map[int]string, error) {
	if err != nil {
		return nil, err
	}
	out := make(map[int]string, len(rw.ByProc))
	for proc := range rw.ByProc {
		out[proc] = rw.Listing(proc)
	}
	return out, nil
}

// EvalDistributed is EvalParallel over real message passing: every processor
// is a TCP endpoint (loopback sockets within this process), no memory is
// shared between processors, and the processors run EvalParallel's
// supersteps with the coordinator's star as the barrier — the paper's
// non-shared-memory architecture taken literally. The run ends at the first
// barrier with nothing in flight, so no termination detector is needed, and
// with no fault every per-processor counter but Busy equals EvalParallel's.
// The runtime is fault tolerant: worker deaths are detected by heartbeat
// (see EvalOptions.HeartbeatInterval and WorkerDeadline) and survived by
// hash-bucket recovery, and failures surface as errors testing true with
// errors.Is against ErrWorkerLost or ErrTimeout. Topology restriction is
// not supported on this transport. A nil ctx means no cancellation.
// Equivalent to Eval with EvalOptions.Engine = EngineDistributed.
func EvalDistributed(ctx context.Context, p *Program, edb Store, opts EvalOptions) (*Result, error) {
	opts.Engine = EngineDistributed
	return eval(ctx, p, edb, opts)
}

// evalDistributed is the TCP engine behind the dispatcher; opts are
// filled, edb is non-nil, and sink is the dispatcher's telemetry stack.
func evalDistributed(ctx context.Context, p *Program, edb Store, opts EvalOptions, sink obs.EventSink) (*Result, error) {
	if opts.Topology != nil {
		return nil, fmt.Errorf("parlog: EvalDistributed does not support topology restriction")
	}
	// The compiled partition may be finer than the worker count: with
	// opts.Buckets set, the program is compiled for that many hash
	// buckets and dist.Run spreads them over opts.Workers processes.
	copts := opts
	if opts.Buckets > 0 {
		if opts.Buckets < opts.Workers {
			return nil, fmt.Errorf("parlog: Buckets (%d) must be at least Workers (%d)", opts.Buckets, opts.Workers)
		}
		copts.Workers = opts.Buckets
	}
	prog, err := compileParallel(p, copts)
	if err != nil {
		return nil, err
	}
	workers := 0
	if opts.Buckets > 0 {
		workers = opts.Workers
	}
	res, err := dist.Run(prog, edb, dist.Config{
		Workers: workers,
		Rebalance: dist.RebalanceConfig{
			Enabled:       opts.Rebalance.Enabled,
			SkewThreshold: opts.Rebalance.SkewThreshold,
			Interval:      opts.Rebalance.Interval,
			Window:        opts.Rebalance.Window,
			Cooldown:      opts.Rebalance.Cooldown,
			MaxMigrations: opts.Rebalance.MaxMigrations,
			MinVolume:     opts.Rebalance.MinVolume,
		},
		HeartbeatInterval: opts.HeartbeatInterval,
		WorkerDeadline:    opts.WorkerDeadline,
		MaxRetries:        opts.MaxRetries,
		CheckpointEvery:   opts.CheckpointEvery,
		MaxMemoryBytes:    opts.MaxMemoryBytes,
		Ctx:               ctx,
		Sink:              sink,
		Profile:           opts.Profile,
	})
	if err != nil {
		return nil, err
	}
	stats := &parallel.Stats{
		Procs:      res.Stats,
		Edges:      parallel.EdgesOf(res.Stats, prog.Procs.IDs()),
		Placements: res.Placements,
		Wall:       res.Wall,
	}
	return &Result{Output: res.Output, Stats: stats, Profile: res.Profile}, nil
}

func compileParallel(p *Program, opts EvalOptions) (*parallel.Program, error) {
	procs := hashpart.RangeProcs(opts.Workers)
	h := hashpart.ModHash{N: opts.Workers, Seed: opts.Seed}

	strategy := opts.Strategy
	s, sirupErr := analysis.ExtractSirup(p.ast)
	if strategy == StrategyAuto {
		switch {
		case sirupErr != nil:
			strategy = StrategyGeneral
		default:
			if spec, err := network.CommFree(s, procs); err == nil {
				return parallel.BuildQ(s, *spec)
			}
			strategy = StrategyHashPartition
		}
	}

	switch strategy {
	case StrategyHashPartition:
		if sirupErr != nil {
			return nil, fmt.Errorf("parlog: %s needs a linear sirup: %w", "StrategyHashPartition", sirupErr)
		}
		vr, ve := opts.VR, opts.VE
		if vr == nil {
			vr = []string{s.BodyVars[0]}
		}
		if ve == nil {
			ve = defaultVE(s, vr)
		}
		var hf hashpart.Func = h
		if opts.HashBits != nil {
			if len(opts.Procs) == 0 {
				return nil, fmt.Errorf("parlog: HashBits requires Procs")
			}
			procs = hashpart.NewProcSet(opts.Procs...)
			hf = network.FuncFromBits("hbits", opts.HashBits, hashpart.GParity)
		}
		return parallel.BuildQ(s, rewrite.SirupSpec{Procs: procs, VR: vr, VE: ve, H: hf})
	case StrategyNoComm:
		if sirupErr != nil {
			return nil, fmt.Errorf("parlog: %s needs a linear sirup: %w", "StrategyNoComm", sirupErr)
		}
		ve := opts.VE
		if ve == nil {
			ve = []string{s.ExitVars[0]}
		}
		return parallel.BuildNoComm(s, rewrite.NoCommSpec{Procs: procs, VE: ve, HP: h})
	case StrategyTradeoff:
		if sirupErr != nil {
			return nil, fmt.Errorf("parlog: %s needs a linear sirup: %w", "StrategyTradeoff", sirupErr)
		}
		if opts.Locality < 0 || opts.Locality > 1 {
			return nil, fmt.Errorf("parlog: Locality %v outside [0,1]", opts.Locality)
		}
		vr, ve := opts.VR, opts.VE
		if vr == nil {
			vr = []string{s.BodyVars[0]}
		}
		if ve == nil {
			ve = defaultVE(s, vr)
		}
		keep := int(opts.Locality * 1000)
		seed := opts.Seed
		return parallel.BuildR(s, rewrite.RSpec{
			Procs: procs, VR: vr, VE: ve, HP: h,
			HI: func(i int) hashpart.Func {
				return hashpart.Mix{Local: i, Shared: h, KeepPermille: keep, Seed: seed}
			},
		})
	case StrategyGeneral:
		rules, _ := p.ast.FactTuples()
		gspec := rewrite.GeneralSpec{Procs: procs}
		for _, r := range rules {
			gspec.Rules = append(gspec.Rules, rewrite.RuleSpec{Seq: defaultSeq(p.ast, r), H: h})
		}
		return parallel.BuildGeneral(p.ast, gspec)
	default:
		return nil, fmt.Errorf("parlog: unknown strategy %d", strategy)
	}
}

// defaultVE picks v(e) aligned with v(r): for each v(r) variable at position
// l of Ȳ, the exit-head variable at position l — the choice that routes
// exit tuples straight to their consumer. Falls back to the first exit-head
// variable.
func defaultVE(s *analysis.Sirup, vr []string) []string {
	var ve []string
	for _, v := range vr {
		for l, y := range s.BodyVars {
			if y == v {
				ve = append(ve, s.ExitVars[l])
				break
			}
		}
	}
	if len(ve) != len(vr) {
		return []string{s.ExitVars[0]}
	}
	return ve
}

// defaultSeq picks a discriminating sequence for a rule in the general
// scheme: the first variable of the first recursive body atom (so tuples of
// that predicate route point-to-point), else the first body variable.
func defaultSeq(prog *ast.Program, r ast.Rule) []string {
	if recs := analysis.RecursiveAtoms(prog, r); len(recs) > 0 {
		if vars := r.Body[recs[0]].Vars(nil); len(vars) > 0 {
			return vars[:1]
		}
	}
	if vars := r.BodyVars(); len(vars) > 0 {
		return vars[:1]
	}
	return nil
}
