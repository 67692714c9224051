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

// add merges other into s.
func (s *Stats) add(other *Stats) {
	s.Iterations += other.Iterations
	s.Firings += other.Firings
	s.New += other.New
	for k, v := range other.FiringsByPred {
		s.FiringsByPred[k] += v
	}
}

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

	g := analysis.Dependencies(prog)
	comp := make(map[string]int)
	sccs := g.SCCs()
	for i, scc := range sccs {
		for _, p := range scc {
			comp[p] = i
		}
	}
	for i, scc := range sccs {
		inSCC := make(map[string]bool, len(scc))
		for _, p := range scc {
			inSCC[p] = true
		}
		var nonRec, rec []ast.Rule
		for _, r := range rules {
			if comp[r.Head.Pred] != i {
				continue
			}
			recursive := false
			for _, a := range r.Body {
				if inSCC[a.Pred] {
					recursive = true
					break
				}
			}
			if recursive {
				rec = append(rec, r)
			} else {
				nonRec = append(nonRec, r)
			}
		}
		if len(nonRec) == 0 && len(rec) == 0 {
			continue
		}
		s, err := evalSCC(prog, nonRec, rec, inSCC, store, opts, stats.Profile)
		if err != nil {
			return nil, nil, err
		}
		stats.add(s)
	}
	if stats.Profile != nil {
		stats.Profile.WallNs = time.Since(evalStart).Nanoseconds()
	}
	return store, stats, nil
}

// evalSCC runs the semi-naive loop for one strongly connected component.
// prof, when non-nil, is the evaluation-wide profile the SCC's rule
// counters fold into.
func evalSCC(prog *ast.Program, nonRec, rec []ast.Rule, inSCC map[string]bool, store relation.Store, opts Options, prof *Profile) (*Stats, error) {
	stats := newStats()

	// One-shot rules: their bodies read only completed components, so a
	// single pass suffices. The sink sees this as iteration 0.
	if len(nonRec) > 0 && opts.Sink != nil {
		opts.Sink.IterationStart(0, 0)
	}
	newBeforeInit := stats.New
	for _, r := range nonRec {
		plan := opts.observePlan(Compile(r, nil), store)
		head := r.Head.Pred
		rel := store.Get(head, r.Head.Arity())
		newBefore := stats.New
		var rp *RuleProfile
		var t0 time.Time
		if prof != nil {
			rp = prof.Rule(ProfileKey(prog, r), head)
			plan.EnableProfile()
			t0 = time.Now()
		}
		n := plan.Enumerate(store, nil, func(vals []ast.Value) bool {
			if rel.Insert(plan.HeadTuple(vals)) {
				stats.New++
			}
			return true
		})
		stats.Firings += n
		stats.FiringsByPred[head] += n
		if rp != nil {
			fresh := stats.New - newBefore
			rp.Firings += n
			rp.New += fresh
			rp.Dup += n - fresh
			rp.Iterations++
			rp.WallNs += time.Since(t0).Nanoseconds()
			plan.ProfileInto(rp)
		}
		if opts.Sink != nil {
			opts.Sink.RuleFirings(0, head, n, n-(stats.New-newBefore))
		}
	}
	if len(nonRec) > 0 && opts.Sink != nil {
		opts.Sink.IterationEnd(0, 0, int(stats.New-newBeforeInit))
	}
	if len(rec) == 0 {
		return stats, nil
	}

	// Compile the exact delta decomposition of every recursive rule.
	type compiled struct {
		plans []*Plan
		head  string
		arity int
		rp    *RuleProfile
	}
	var cs []compiled
	for _, r := range rec {
		var recAtoms []int
		for j, a := range r.Body {
			if inSCC[a.Pred] {
				recAtoms = append(recAtoms, j)
			}
		}
		plans := DeltaVariants(r, recAtoms)
		for _, pl := range plans {
			opts.observePlan(pl, store)
		}
		c := compiled{
			plans: plans,
			head:  r.Head.Pred,
			arity: r.Head.Arity(),
		}
		if prof != nil {
			c.rp = prof.Rule(ProfileKey(prog, r), c.head)
			for _, pl := range plans {
				pl.EnableProfile()
			}
		}
		cs = append(cs, c)
	}

	// Watermarks: everything present now is the initial delta.
	w := &Watermarks{Prev: map[string]int{}, Cur: map[string]int{}}
	for p := range inSCC {
		w.Prev[p] = 0
		if rel, ok := store[p]; ok {
			w.Cur[p] = rel.Len()
		}
	}

	// Derived tuples are inserted straight into the arena as they are
	// enumerated — no staging copies. This is sound because every plan's
	// bounds come from w, whose Cur entries were taken at iteration start: a
	// tuple inserted mid-iteration lands at a row id >= Cur and is invisible
	// to every RangePrev/RangeDelta/RangeFull scan of this iteration,
	// exactly as if it had been staged. Insert's return value replaces the
	// old Contains+stagedSeen dedup: it is false for pre-existing and
	// same-iteration duplicates alike.
	scratch := make(relation.Tuple, 8)
	for {
		stats.Iterations++
		if opts.MaxIterations > 0 && stats.Iterations > opts.MaxIterations {
			return nil, fmt.Errorf("seminaive: exceeded %d iterations", opts.MaxIterations)
		}
		if err := opts.interrupted(); err != nil {
			return nil, err
		}
		if opts.Sink != nil {
			opts.Sink.IterationStart(0, stats.Iterations)
		}
		delta := 0
		for _, c := range cs {
			rel := store.Get(c.head, c.arity)
			if cap(scratch) < c.arity {
				scratch = make(relation.Tuple, c.arity)
			}
			buf := scratch[:c.arity]
			var ruleFirings, fresh int64
			var t0 time.Time
			if c.rp != nil {
				t0 = time.Now()
			}
			for _, plan := range c.plans {
				n := plan.Enumerate(store, w, func(vals []ast.Value) bool {
					if rel.Insert(plan.HeadTupleInto(buf, vals)) {
						fresh++
					}
					return true
				})
				ruleFirings += n
			}
			if c.rp != nil {
				c.rp.Firings += ruleFirings
				c.rp.New += fresh
				c.rp.Dup += ruleFirings - fresh
				c.rp.Iterations++
				c.rp.WallNs += time.Since(t0).Nanoseconds()
			}
			stats.Firings += ruleFirings
			stats.FiringsByPred[c.head] += ruleFirings
			stats.New += fresh
			delta += int(fresh)
			if opts.Sink != nil {
				opts.Sink.RuleFirings(0, c.head, ruleFirings, ruleFirings-fresh)
			}
		}
		if opts.Sink != nil {
			opts.Sink.IterationEnd(0, stats.Iterations, delta)
		}
		if delta == 0 {
			for _, c := range cs {
				if c.rp == nil {
					continue
				}
				for _, plan := range c.plans {
					plan.ProfileInto(c.rp)
				}
			}
			return stats, nil
		}
		// Advance the watermarks: this iteration's inserts become the next
		// delta. Cur was rel.Len() at iteration start, so the new window
		// [Prev, Cur) covers exactly the fresh rows.
		for p := range inSCC {
			if rel, ok := store[p]; ok {
				w.Prev[p] = w.Cur[p]
				w.Cur[p] = rel.Len()
			}
		}
	}
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
