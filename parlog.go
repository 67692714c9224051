// Package parlog is a framework for the parallel, bottom-up evaluation of
// Datalog queries, reproducing Ganguly, Silberschatz and Tsur, "A Framework
// for the Parallel Processing of Datalog Queries" (SIGMOD 1990).
//
// The computation is partitioned across processors with discriminating
// functions — hash functions applied to a chosen sequence of rule variables
// — yielding a spectrum of parallel evaluation schemes:
//
//   - the non-redundant scheme of Section 3 (no ground substitution fires at
//     two processors),
//   - the communication-free scheme and the redundancy/communication
//     trade-off of Section 6,
//   - the general scheme of Section 7 for arbitrary Datalog programs,
//
// plus the Section 5 toolkit: dataflow graphs, communication-free choices
// from dataflow cycles (Theorem 3), and compile-time derivation of the
// minimal processor interconnect.
//
// Quick start:
//
//	prog, _ := parlog.Parse(`
//	    anc(X, Y) :- par(X, Y).
//	    anc(X, Y) :- par(X, Z), anc(Z, Y).
//	    par(a, b). par(b, c).
//	`)
//	res, _ := parlog.EvalParallel(context.Background(), prog, nil, parlog.EvalOptions{Workers: 4})
//	fmt.Println(prog.Format(res.Output, "anc"))
//
// All three entry points — Eval (sequential), EvalParallel (goroutine
// processors) and EvalDistributed (TCP processors) — share one EvalOptions
// and return one Result. Set EvalOptions.Trace or EvalOptions.Metrics to
// observe a run (see trace.go).
package parlog

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"time"

	"parlog/internal/analysis"
	"parlog/internal/ast"
	"parlog/internal/obs"
	"parlog/internal/parser"
	"parlog/internal/relation"
	"parlog/internal/seminaive"
)

// Value is an interned constant.
type Value = ast.Value

// Tuple is a ground tuple of interned constants.
type Tuple = relation.Tuple

// Store maps predicate names to relations.
type Store = relation.Store

// Relation is a duplicate-free set of equal-arity tuples.
type Relation = relation.Relation

// NewRelation returns an empty relation of the given arity.
func NewRelation(arity int) *Relation { return relation.New(arity) }

// SeqStats reports sequential evaluation work; Firings counts successful
// ground substitutions (the paper's redundancy currency).
type SeqStats = seminaive.Stats

// Profile is a runtime query profile — the "analyze" half of
// explain-analyze: per-rule firing/dedup/iteration counters, per-atom
// planned-vs-actual join cardinalities, and (on the parallel engines)
// per-processor attribution. Render it with Result.Explain or String.
type Profile = seminaive.Profile

// RuleProfile is one rule's runtime record inside a Profile.
type RuleProfile = seminaive.RuleProfile

// AtomProfile is one body atom's runtime record inside a RuleProfile.
type AtomProfile = seminaive.AtomProfile

// ProcProfile is one processor's share of a rule's runtime.
type ProcProfile = seminaive.ProcProfile

// Program is a parsed Datalog program together with its constant interner.
type Program struct {
	ast *ast.Program
}

// Parse parses a Datalog program. Identifiers starting with an upper-case
// letter are variables; facts are ground bodiless clauses; '%' starts a
// comment.
func Parse(src string) (*Program, error) {
	p, err := parser.Parse(src)
	if err != nil {
		return nil, err
	}
	return &Program{ast: p}, nil
}

// MustParse is Parse or panic, for tests and examples.
func MustParse(src string) *Program {
	p, err := Parse(src)
	if err != nil {
		panic(err)
	}
	return p
}

// AddFacts parses additional clauses (typically facts) into the program,
// sharing its interner.
func (p *Program) AddFacts(src string) error {
	_, err := parser.ParseInto(src, p.ast)
	return err
}

// String renders the program.
func (p *Program) String() string { return p.ast.String() }

// IDB returns the derived predicate names, sorted.
func (p *Program) IDB() []string { return p.ast.IDBPreds() }

// EDB returns the base predicate names, sorted.
func (p *Program) EDB() []string { return p.ast.EDBPreds() }

// IsLinearSirup reports whether the program (ignoring facts) is a linear
// sirup — one linear recursive rule plus one exit rule — the class Sections
// 3–6 address.
func (p *Program) IsLinearSirup() bool {
	_, err := analysis.ExtractSirup(p.ast)
	return err == nil
}

// Intern returns the Value for a constant spelling, interning it if new.
func (p *Program) Intern(name string) Value { return p.ast.Interner.Intern(name) }

// ConstName returns the spelling of an interned constant.
func (p *Program) ConstName(v Value) string { return p.ast.Interner.Name(v) }

// ExtractFacts removes the program's ground facts and returns them as an
// EDB store, leaving only proper rules behind. Facts written in the program
// text are otherwise axioms — a View opened on the program treats them as
// permanently true, so Apply can never delete them. Callers that want every
// base tuple mutable (parlogd does) extract the facts first and hand the
// store to Open as the initial EDB; evaluation results are identical either
// way.
func (p *Program) ExtractFacts() Store {
	rules, facts := p.ast.FactTuples()
	p.ast.Rules = rules
	store := Store{}
	for pred, rows := range facts {
		if len(rows) == 0 {
			continue
		}
		rel := store.Get(pred, len(rows[0]))
		for _, row := range rows {
			rel.Insert(Tuple(row))
		}
	}
	return store
}

// Format renders one derived relation of a result store as sorted ground
// facts, one per line.
func (p *Program) Format(store Store, pred string) string {
	rel, ok := store[pred]
	if !ok {
		return ""
	}
	var b strings.Builder
	rows := rel.SortedRows()
	sort.SliceStable(rows, func(i, j int) bool {
		for k := range rows[i] {
			a, c := p.ConstName(rows[i][k]), p.ConstName(rows[j][k])
			if a != c {
				return a < c
			}
		}
		return false
	})
	for _, t := range rows {
		b.WriteString(pred)
		b.WriteByte('(')
		for i, v := range t {
			if i > 0 {
				b.WriteString(", ")
			}
			b.WriteString(p.ConstName(v))
		}
		b.WriteString(").\n")
	}
	return b.String()
}

// Engine selects the execution engine behind the evaluation front door.
// The three exported entry points are thin wrappers that set this field
// and call one internal dispatcher, so Eval with an explicit Engine is
// exactly equivalent to calling the corresponding wrapper.
type Engine int

const (
	// EngineSequential is the single-processor semi-naive baseline.
	EngineSequential Engine = iota
	// EngineParallel runs goroutine processors over channels.
	EngineParallel
	// EngineDistributed runs TCP processors with heartbeat liveness and
	// hash-bucket failure recovery.
	EngineDistributed
)

// EvalOptions is the single option set shared by Eval, EvalParallel and
// EvalDistributed. The zero value is a sensible default everywhere:
// sequential semi-naive for Eval, four workers under StrategyAuto for the
// parallel engines, observability disabled.
type EvalOptions struct {
	// Engine selects the execution engine when calling Eval directly; the
	// EvalParallel and EvalDistributed wrappers override it.
	Engine Engine

	// Naive switches the sequential engine to naive iteration (the
	// ablation baseline); default is semi-naive. Ignored by the parallel
	// engines.
	Naive bool
	// MaxIterations aborts runaway sequential evaluations; 0 means
	// unlimited.
	MaxIterations int
	// Explain records the planning decisions — join order, constraint
	// pushdowns, demand rewrite — into Result.Plan for Result.Explain().
	Explain bool
	// Profile arms runtime counters on the compiled plans and fills
	// Result.Profile — explain-analyze. Honored by all three engines (the
	// parallel engines merge per-worker records with per-processor
	// attribution). Off by default; the disabled path is a nil check.
	Profile bool
	// NoDemand disables Query's magic-sets (demand) rewrite; the goal is
	// then answered from a full bottom-up materialization. Ignored by
	// Eval, which never rewrites.
	NoDemand bool

	// Workers is the number of processors for the parallel engines
	// (default 4). Ignored by Eval.
	Workers int
	// Strategy selects the parallel scheme (default StrategyAuto).
	Strategy Strategy
	// VR and VE override the discriminating sequences v(r) and v(e) for
	// the sirup strategies. Defaults depend on the strategy.
	VR, VE []string
	// Locality ∈ [0,1] positions StrategyTradeoff on the
	// redundancy/communication spectrum: the probability mass each h_i
	// keeps local.
	Locality float64
	// Topology restricts the interconnect; nil is a full mesh.
	Topology *Topology
	// Seed varies the hash functions.
	Seed uint64
	// HashBits, when non-nil, makes StrategyHashPartition use the
	// bit-level discriminating function h(ā) = HashBits(g(a1), …) — the
	// same function DeriveNetwork reasons about, so executions can be
	// matched against derived network graphs. Procs then gives the
	// processor ids (possibly sparse, e.g. {−1, 0, 1, 2} as in Example 7)
	// and Workers is ignored.
	HashBits BitFunc
	// Procs lists processor ids for HashBits runs.
	Procs []int
	// MaxRetries bounds a distributed worker's connect attempts, retried
	// with exponential backoff and jitter (default 5). EngineDistributed
	// only.
	MaxRetries int
	// HeartbeatInterval is how long a distributed worker may stay silent
	// before the coordinator records a heartbeat miss (default 100ms).
	HeartbeatInterval time.Duration
	// WorkerDeadline is how long a distributed worker may stay silent
	// before it is declared dead and its hash bucket is recovered on a
	// survivor (default 2s).
	WorkerDeadline time.Duration
	// CheckpointEvery checkpoints a hash bucket after that many data
	// batches have been logged for it since its last checkpoint, letting
	// the coordinator truncate the covered send-log prefix; recovery then
	// replays only the suffix. The check runs at superstep barriers, so
	// a run without faults takes the same checkpoints every time. 0
	// disables checkpoints. EngineDistributed only.
	CheckpointEvery int
	// MaxMemoryBytes is a coordinator budget over send logs and stored
	// checkpoints. Overrunning it forces an early
	// checkpoint+truncate cycle; if the budget is still exceeded after
	// that, the run fails with an error wrapping ErrResourceExhausted.
	// 0 means unlimited. EngineDistributed only.
	MaxMemoryBytes int64
	// Buckets compiles the program for this many hash buckets while
	// Workers OS workers host them (bucket b starts on worker b mod
	// Workers); 0 keeps one bucket per worker. More buckets than workers
	// is what gives Rebalance moves to make. EngineDistributed only.
	Buckets int
	// Rebalance enables skew-triggered live migration of hot hash
	// buckets between distributed workers. EngineDistributed only.
	Rebalance RebalanceOptions

	// Trace, when non-nil, receives the run's full event stream —
	// iterations, rule firings, messages, busy/idle transitions and
	// termination probes. Leave nil to disable observability at zero
	// cost.
	Trace EventSink
	// Metrics additionally attaches the built-in counting sink and
	// fills Result.Metrics with its snapshot.
	Metrics bool
	// MetricsAddr, when non-empty, serves live telemetry over HTTP for
	// the duration of the run: Prometheus text at /metrics, an indented
	// JSON snapshot at /debug/parlog, and (with Pprof) the net/http/pprof
	// handlers. Use ":0" for an ephemeral port and TelemetryReady to
	// learn the bound address. The endpoint shuts down gracefully when
	// the run completes (after MetricsHold) or the context is canceled.
	MetricsAddr string
	// Pprof additionally mounts /debug/pprof/ on the MetricsAddr server.
	Pprof bool
	// MetricsHold keeps the MetricsAddr endpoint alive after a
	// successful run, so external scrapers can collect the final state;
	// context cancellation cuts the hold short. 0 closes immediately.
	MetricsHold time.Duration
	// TelemetryReady, when non-nil, is called with the MetricsAddr
	// server's bound address once it is listening (before evaluation
	// starts).
	TelemetryReady func(addr string)
	// AuditNetwork runs the Section 5 conformance auditor after the run:
	// the observed t_{i,j} communication matrix is checked against the
	// minimal network graph derived from HashBits, every unpredicted
	// channel is reported as a NetworkViolation event, and the report is
	// returned in Result.Audit. Requires StrategyHashPartition with
	// HashBits and Procs.
	AuditNetwork bool

	// Dir, when non-empty, makes Open durable: every Apply batch is
	// write-ahead-logged to this state directory before it is
	// acknowledged, snapshots are compacted into checksummed segments,
	// and a later Open on the same directory recovers the exact
	// pre-crash epoch and model. The program text (and any constants
	// interned before Open) must be identical across opens. Open only —
	// the one-shot evaluators reject it.
	Dir string
	// Durability tunes the Dir state directory: fsync policy,
	// corruption handling, compaction cadence. Requires Dir.
	Durability DurabilityOptions

	// demand carries Query's rewrite summary into the dispatcher so the
	// sink stack sees the DemandRewrite event; unexported — only Query
	// sets it.
	demand *demandNote
}

// RebalanceOptions configures the distributed runtime's adaptive load
// balancer (DESIGN §12). The coordinator samples per-bucket routed
// volume into a sliding window; when max/mean skew crosses the threshold
// it migrates the hottest bucket from the most-loaded worker to the
// least-loaded one, live, through the checkpoint + send-log-replay
// machinery — a reassignment is a recovery without a death, so the least
// model (and the per-rule firing counts) are preserved exactly. A
// candidate move that would violate the derived communication
// constraints — in particular a bucket pinned by a rule's restriction
// set — is rejected before anything migrates.
type RebalanceOptions struct {
	// Enabled turns the rebalancer on.
	Enabled bool
	// SkewThreshold triggers a migration when max bucket window load /
	// mean bucket window load reaches it (default 2.0).
	SkewThreshold float64
	// Interval is the load-sampling period (default 10ms).
	Interval time.Duration
	// Window is the number of samples in the sliding window (default 3).
	Window int
	// Cooldown is the minimum gap between migration decisions,
	// migrations and rejections alike (default 2×Interval).
	Cooldown time.Duration
	// MaxMigrations bounds migrations per run; 0 = unlimited.
	MaxMigrations int
	// MinVolume is the minimum tuples routed inside the window for the
	// skew signal to be trusted (default 64).
	MinVolume int64
}

// demandNote is the rewrite summary Query threads through eval.
type demandNote struct {
	goal         string
	adornment    string
	rules, magic int
}

// Result is the outcome of any evaluation: the pooled output store, the
// engine's statistics (SeqStats for Eval, Stats for the parallel engines)
// and, when requested, the metrics snapshot.
type Result struct {
	// Output holds the derived relations (plus, for Eval, the base
	// relations of the complete store).
	Output Store
	// SeqStats reports sequential work; nil for the parallel engines.
	SeqStats *SeqStats
	// Stats reports parallel firings, communication, placement and
	// timing; nil for Eval.
	Stats *ParallelStats
	// Metrics is the counting sink's snapshot when EvalOptions.Metrics
	// was set, nil otherwise.
	Metrics *Metrics
	// Audit is the network-conformance report when
	// EvalOptions.AuditNetwork was set, nil otherwise.
	Audit *NetworkAudit
	// Plan reports the planner's decisions when EvalOptions.Explain was
	// set (always set by Query), nil otherwise. Render it with Explain().
	Plan *PlanReport
	// Profile is the runtime query profile when EvalOptions.Profile was
	// set, nil otherwise. Render it with Explain().
	Profile *Profile
}

// fill applies the defaults shared by every engine. The per-engine
// evaluators assume it already ran.
func (o *EvalOptions) fill() {
	if o.Engine != EngineSequential && o.Workers <= 0 {
		o.Workers = 4
	}
	if o.MaxRetries <= 0 {
		o.MaxRetries = 5
	}
	if o.HeartbeatInterval <= 0 {
		o.HeartbeatInterval = 100 * time.Millisecond
	}
	if o.WorkerDeadline <= 0 {
		o.WorkerDeadline = 2 * time.Second
	}
}

// Eval evaluates the program on the engine opts.Engine selects — the
// sequential semi-naive baseline by default. The edb argument supplies base
// relations beyond the program's embedded facts; it may be nil. A nil ctx
// means no cancellation.
func Eval(ctx context.Context, p *Program, edb Store, opts EvalOptions) (*Result, error) {
	return eval(ctx, p, edb, opts)
}

// eval is the single dispatcher behind Eval, EvalParallel and
// EvalDistributed: one defaulting path, one nil-EDB rule, one telemetry
// bundle, one switch. Telemetry (the sink stack, the optional HTTP
// endpoint, the post-run audit) is assembled here so every engine gets
// identical observability for free.
func eval(ctx context.Context, p *Program, edb Store, opts EvalOptions) (*Result, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	if opts.Dir != "" {
		return nil, badOptions("Dir opens a durable View; use Open — the one-shot evaluators write no state")
	}
	opts.fill()
	if edb == nil {
		edb = Store{}
	}
	tel, err := buildTelemetry(&opts)
	if err != nil {
		return nil, err
	}
	if opts.demand != nil {
		obs.DemandRewrite(tel.sink, opts.demand.goal, opts.demand.rules, opts.demand.magic)
	}
	var res *Result
	switch opts.Engine {
	case EngineSequential:
		res, err = evalSequential(ctx, p, edb, opts, tel.sink)
	case EngineParallel:
		res, err = evalParallel(ctx, p, edb, opts, tel.sink)
	case EngineDistributed:
		res, err = evalDistributed(ctx, p, edb, opts, tel.sink)
	default:
		err = fmt.Errorf("parlog: unknown engine %d", opts.Engine)
	}
	if err != nil {
		tel.abort()
		return nil, err
	}
	if opts.Explain && res.Plan == nil {
		// The parallel engines plan per worker fragment; their report
		// carries the demand summary without per-rule orders.
		res.Plan = newPlanReport(opts)
	}
	if err := tel.finish(ctx, p, opts, res); err != nil {
		return nil, err
	}
	return res, nil
}

// evalSequential computes the least model on one processor (semi-naive by
// default) and returns the full store — the paper's baseline execution.
func evalSequential(ctx context.Context, p *Program, edb Store, opts EvalOptions, sink obs.EventSink) (*Result, error) {
	snOpts := seminaive.Options{
		Naive:         opts.Naive,
		MaxIterations: opts.MaxIterations,
		Ctx:           ctx,
		Sink:          sink,
		Profile:       opts.Profile,
	}
	var report *PlanReport
	if opts.Explain {
		report = newPlanReport(opts)
		snOpts.OnPlan = func(pl *seminaive.Plan) { report.observe(p, pl) }
	}
	store, stats, err := seminaive.Eval(p.ast, edb, snOpts)
	if err != nil {
		return nil, err
	}
	return &Result{Output: store, SeqStats: stats, Plan: report, Profile: stats.Profile}, nil
}

// sirup extracts the canonical linear-sirup decomposition.
func (p *Program) sirup() (*analysis.Sirup, error) {
	s, err := analysis.ExtractSirup(p.ast)
	if err != nil {
		return nil, fmt.Errorf("parlog: %w", err)
	}
	return s, nil
}
