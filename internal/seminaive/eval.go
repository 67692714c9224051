package seminaive

import (
	"context"
	"fmt"
	"time"

	"parlog/internal/analysis"
	"parlog/internal/ast"
	"parlog/internal/obs"
	"parlog/internal/relation"
)

// Options configures sequential evaluation.
type Options struct {
	// Naive switches to naive (full re-evaluation) iteration — the ablation
	// baseline against which semi-naive's non-redundancy is measured.
	Naive bool
	// MaxIterations aborts runaway evaluations; 0 means unlimited.
	MaxIterations int
	// Ctx, when non-nil, cancels the evaluation between iterations.
	Ctx context.Context
	// Sink, when non-nil, receives the evaluation's event stream; the
	// sequential engine reports as processor 0.
	Sink obs.EventSink
	// OnPlan, when non-nil, observes every compiled plan (one call per
	// delta variant) — the hook Result.Explain() is built on.
	OnPlan func(*Plan)
	// Profile arms runtime counters on every compiled plan and collects
	// them into Stats.Profile — the analyze half of explain-analyze. Off
	// (the default), plans stay on the zero-overhead path.
	Profile bool
}

// observePlan records a freshly compiled plan's relation sizes in store
// and reports it to the OnPlan hook and the event stream.
func (o Options) observePlan(p *Plan, store relation.Store) *Plan {
	p.recordPlanned(store)
	if o.OnPlan != nil {
		o.OnPlan(p)
	}
	obs.PlanCompiled(o.Sink, 0, p.Rule.Head.Pred, p.Moved(), p.Pushdowns())
	return p
}

// interrupted reports a pending cancellation of opts.Ctx.
func (o Options) interrupted() error {
	if o.Ctx == nil {
		return nil
	}
	select {
	case <-o.Ctx.Done():
		return o.Ctx.Err()
	default:
		return nil
	}
}

// Stats reports what an evaluation did. Firings is the number of successful
// ground substitutions of rules (after constraints) — the quantity
// Definition 1 and Theorems 2/6 compare. Firings minus New is the number of
// rederivations of already-known tuples.
type Stats struct {
	Iterations int
	Firings    int64
	New        int64
	// FiringsByPred counts successful substitutions per head predicate.
	FiringsByPred map[string]int64
	// Profile holds the runtime query profile when Options.Profile was
	// set; nil otherwise.
	Profile *Profile
}

func newStats() *Stats { return &Stats{FiringsByPred: make(map[string]int64)} }

// Eval computes the least model of prog over the given EDB and returns the
// complete store (input relations plus all derived relations). The input
// store is not modified. Facts embedded in prog are added to the store
// first. Rules may carry constraints (as produced by the rewriting schemes);
// a substitution rejected by a constraint is not a firing.
func Eval(prog *ast.Program, edb relation.Store, opts Options) (relation.Store, *Stats, error) {
	rules, facts := prog.FactTuples()
	if err := analysis.CheckSafety(prog); err != nil {
		return nil, nil, err
	}
	if analysis.HasNegation(prog) {
		if _, err := analysis.Stratify(prog); err != nil {
			return nil, nil, err
		}
		if opts.Naive {
			return nil, nil, fmt.Errorf("seminaive: naive iteration does not support negation; use the default stratified semi-naive mode")
		}
	}
	arities := prog.Arities()

	store := edb.Clone()
	for pred, r := range store {
		if want, ok := arities[pred]; ok && r.Arity() != want {
			return nil, nil, fmt.Errorf("seminaive: EDB relation %s has arity %d, program uses %d", pred, r.Arity(), want)
		}
	}
	for pred, tuples := range facts {
		store.InsertAll(pred, tuples)
	}
	// Materialize every predicate so lookups never miss.
	for pred, ar := range arities {
		store.Get(pred, ar)
	}

	if opts.Sink != nil {
		opts.Sink.RunStart("seminaive", []int{0})
		opts.Sink.WorkerBusy(0)
		start := time.Now()
		defer func() {
			opts.Sink.WorkerIdle(0)
			opts.Sink.RunEnd(time.Since(start))
		}()
	}

	stats := newStats()
	var evalStart time.Time
	if opts.Profile {
		engine := "seminaive"
		if opts.Naive {
			engine = "naive"
		}
		stats.Profile = &Profile{Engine: engine}
		evalStart = time.Now()
	}
	if opts.Naive {
		if err := evalNaive(prog, rules, store, stats, opts); err != nil {
			return nil, nil, err
		}
		if stats.Profile != nil {
			stats.Profile.WallNs = time.Since(evalStart).Nanoseconds()
		}
		return store, stats, nil
	}

	for _, c := range components(prog, rules) {
		if len(c.rules) == 0 {
			continue
		}
		if err := evalComponent(prog, c, store, opts, stats); err != nil {
			return nil, nil, err
		}
	}
	if stats.Profile != nil {
		stats.Profile.WallNs = time.Since(evalStart).Nanoseconds()
	}
	return store, stats, nil
}

// evalComponent runs one component's fixpoint, inserting into store. Each
// rule's plans are observed just before their first pass, so the planned
// sizes of recursive rules include the component's initial tuples.
func evalComponent(prog *ast.Program, c component, store relation.Store, opts Options, stats *Stats) error {
	f := c.fixpoint(store, opts, func(head string) func(relation.Tuple) bool { return store[head].Insert })
	f.Sink = opts.Sink
	observe := func(rules []FixRule) {
		for i := range rules {
			r := &rules[i]
			if stats.Profile != nil {
				r.Profile = stats.Profile.Rule(ProfileKey(prog, r.Plans[0].Rule), r.Head)
			}
			for _, p := range r.Plans {
				opts.observePlan(p, store)
				if r.Profile != nil {
					p.EnableProfile()
				}
			}
		}
	}
	observe(f.Rules[:c.init])
	f.Init()
	observe(f.Rules[c.init:])
	err := f.Drain()
	f.FoldProfiles()
	f.addTo(stats)
	return err
}

// evalNaive iterates every rule over the full store until fixpoint.
func evalNaive(prog *ast.Program, rules []ast.Rule, store relation.Store, stats *Stats, opts Options) error {
	plans := make([]*Plan, len(rules))
	rps := make([]*RuleProfile, len(rules))
	for i, r := range rules {
		plans[i] = opts.observePlan(Compile(r, nil), store)
		if stats.Profile != nil {
			rps[i] = stats.Profile.Rule(ProfileKey(prog, r), r.Head.Pred)
			plans[i].EnableProfile()
		}
	}
	for {
		stats.Iterations++
		if opts.MaxIterations > 0 && stats.Iterations > opts.MaxIterations {
			return fmt.Errorf("seminaive: exceeded %d iterations (naive)", opts.MaxIterations)
		}
		if err := opts.interrupted(); err != nil {
			return err
		}
		if opts.Sink != nil {
			opts.Sink.IterationStart(0, stats.Iterations)
		}
		newBefore := stats.New
		changed := false
		for i, plan := range plans {
			head := rules[i].Head
			rel := store.Get(head.Pred, head.Arity())
			scratch := make(relation.Tuple, head.Arity())
			var toInsert []relation.Tuple
			var t0 time.Time
			if rps[i] != nil {
				t0 = time.Now()
			}
			n := plan.Enumerate(store, nil, func(vals []ast.Value) bool {
				t := plan.HeadTupleInto(scratch, vals)
				if !rel.Contains(t) {
					toInsert = append(toInsert, t.Clone())
				}
				return true
			})
			stats.Firings += n
			stats.FiringsByPred[head.Pred] += n
			inserted := int64(0)
			for _, t := range toInsert {
				if rel.Insert(t) {
					stats.New++
					inserted++
					changed = true
				}
			}
			if rp := rps[i]; rp != nil {
				rp.Firings += n
				rp.New += inserted
				rp.Dup += n - inserted
				rp.Iterations++
				rp.WallNs += time.Since(t0).Nanoseconds()
			}
			if opts.Sink != nil {
				opts.Sink.RuleFirings(0, head.Pred, n, n-inserted)
			}
		}
		if opts.Sink != nil {
			opts.Sink.IterationEnd(0, stats.Iterations, int(stats.New-newBefore))
		}
		if !changed {
			for i, plan := range plans {
				if rps[i] != nil {
					plan.ProfileInto(rps[i])
				}
			}
			return nil
		}
	}
}
