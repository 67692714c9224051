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

// FixRule is one rule of a Fixpoint: its compiled plans and the function
// that absorbs its head tuples. The loop fills the counters.
type FixRule struct {
	// Head is the head predicate, the key of FiringsByPred and of the
	// RuleFirings events.
	Head string
	// Plans are the rule's delta variants, or its one all-full plan when
	// Init is set.
	Plans []*Plan
	// Init marks a rule whose body reads no watched relation: it fires once,
	// as iteration 0, over full extents.
	Init bool
	// Absorb takes one head tuple and reports whether it is new. The tuple
	// is a scratch buffer, valid only during the call.
	Absorb func(t relation.Tuple) bool
	// Profile, when non-nil, accumulates the rule's runtime account; its
	// per-atom counters come from plans armed with EnableProfile.
	Profile *RuleProfile

	// Firings counts the rule's successful ground substitutions and New
	// those whose head tuple Absorb reported new.
	Firings, New int64
}

// Fixpoint is the semi-naive loop every engine runs: Eval per component,
// the incremental view's materialization and maintenance passes, and each
// parallel worker (Theorem 1: Q₀ on one processor is the sequential
// program). Watch names the relations whose growth drives it; each pass
// reads as delta the rows a watched relation gained since the previous
// pass began, so tuples absorbed mid-pass (appended beyond the window) wait
// for the next one. The loop alone counts iterations, firings and new
// tuples, enforces MaxIterations and Ctx, emits the iteration and
// rule-firing events, and fills the rules' profiles. It keeps its
// watermarks between calls, so a worker may Drain again after its
// relations grew from outside.
type Fixpoint struct {
	Store relation.Store
	Rules []FixRule
	// MaxIterations bounds the passes (0: unlimited); Ctx, when non-nil,
	// cancels before a pass.
	MaxIterations int
	Ctx           context.Context
	// Sink receives the events, labelled with processor Proc.
	Sink obs.EventSink
	Proc int
	// AfterPass, when non-nil, runs after every pass (a worker's send step).
	AfterPass func()

	// Iterations counts the passes over delta variants.
	Iterations int

	watch   []watched
	wm      Watermarks
	scratch relation.Tuple
}

// watched is one relation whose growth drives the loop.
type watched struct {
	pred string
	rel  *relation.Relation
}

// Watch makes the store's relation pred drive the loop, its rows from row
// from on forming the first delta.
func (f *Fixpoint) Watch(pred string, from int) {
	if f.wm.Cur == nil {
		f.wm = Watermarks{Prev: map[string]int{}, Cur: map[string]int{}}
	}
	f.watch = append(f.watch, watched{pred, f.Store[pred]})
	f.wm.Prev[pred] = from
	f.wm.Cur[pred] = from
}

// Init fires the init rules once, as iteration 0; without init rules it does
// nothing.
func (f *Fixpoint) Init() {
	for i := range f.Rules {
		if f.Rules[i].Init {
			f.pass(0, true, nil)
			return
		}
	}
}

// Drain passes over the delta variants while a watched relation grew since
// the previous pass began. A pass that would read only empty deltas is not
// run.
func (f *Fixpoint) Drain() error {
	for f.advance() {
		f.Iterations++
		if f.MaxIterations > 0 && f.Iterations > f.MaxIterations {
			return fmt.Errorf("seminaive: exceeded %d iterations", f.MaxIterations)
		}
		if f.Ctx != nil {
			if err := f.Ctx.Err(); err != nil {
				return err
			}
		}
		f.pass(f.Iterations, false, &f.wm)
	}
	return nil
}

// advance moves every watched window to the rows added since it last
// moved, reporting whether any is non-empty.
func (f *Fixpoint) advance() bool {
	grew := false
	for _, w := range f.watch {
		cur, n := f.wm.Cur[w.pred], w.rel.NumRows()
		if n > cur {
			grew = true
		}
		f.wm.Prev[w.pred] = cur
		f.wm.Cur[w.pred] = n
	}
	return grew
}

// pass fires every rule of the given kind once under w.
func (f *Fixpoint) pass(iter int, init bool, w *Watermarks) {
	if f.Sink != nil {
		f.Sink.IterationStart(f.Proc, iter)
	}
	var fresh int64
	for i := range f.Rules {
		r := &f.Rules[i]
		if r.Init != init {
			continue
		}
		var t0 time.Time
		if r.Profile != nil {
			t0 = time.Now()
		}
		n, nw := f.fire(r, w)
		r.Firings += n
		r.New += nw
		fresh += nw
		if rp := r.Profile; rp != nil {
			rp.Firings += n
			rp.New += nw
			rp.Dup += n - nw
			rp.Iterations++
			rp.WallNs += time.Since(t0).Nanoseconds()
		}
		if f.Sink != nil {
			f.Sink.RuleFirings(f.Proc, r.Head, n, n-nw)
		}
	}
	if f.Sink != nil {
		f.Sink.IterationEnd(f.Proc, iter, int(fresh))
	}
	if f.AfterPass != nil {
		f.AfterPass()
	}
}

// fire enumerates r's plans under w, handing each head tuple to Absorb, and
// returns the firings and the new tuples. Absorbed tuples land beyond the
// window's upper bounds (Cur, taken when the pass began), so every plan of
// the pass reads the same extents, as if the tuples had been staged.
func (f *Fixpoint) fire(r *FixRule, w *Watermarks) (n, fresh int64) {
	for _, p := range r.Plans {
		if cap(f.scratch) < p.HeadArity() {
			// At least a cache line: the loops of concurrent workers write
			// their buffers on every firing, and two small buffers from
			// one allocator block would share a line.
			f.scratch = make(relation.Tuple, max(p.HeadArity(), 16))
		}
		buf := f.scratch[:p.HeadArity()]
		var c Cursor
		c.open(p, f.Store, w)
		for c.Next() {
			if r.Absorb(p.HeadTupleInto(buf, c.vals)) {
				fresh++
			}
		}
		n += c.fired
	}
	return n, fresh
}

// FoldProfiles folds every rule's armed plan counters into its Profile.
// Call once, after the last pass.
func (f *Fixpoint) FoldProfiles() {
	for _, r := range f.Rules {
		if r.Profile == nil {
			continue
		}
		for _, p := range r.Plans {
			p.ProfileInto(r.Profile)
		}
	}
}

// Totals sums the rules' firings and new tuples.
func (f *Fixpoint) Totals() (firings, fresh int64) {
	for _, r := range f.Rules {
		firings += r.Firings
		fresh += r.New
	}
	return firings, fresh
}

// addTo adds the loop's counters to s.
func (f *Fixpoint) addTo(s *Stats) {
	s.Iterations += f.Iterations
	for _, r := range f.Rules {
		s.Firings += r.Firings
		s.New += r.New
		s.FiringsByPred[r.Head] += r.Firings
	}
}

// component is one strongly connected component of a program's predicate
// dependency graph with the rules whose heads it defines. Components come
// in evaluation order: a rule reads only its own and earlier components.
type component struct {
	preds []string
	in    map[string]bool
	// rules lists the non-recursive rules (rules[:init]), then the
	// recursive ones, each in program order; rec[i] holds the body
	// positions of rules[i] that read the component's own predicates.
	rules []ast.Rule
	rec   [][]int
	init  int
}

// components splits rules by the component of their head predicate.
func components(prog *ast.Program, rules []ast.Rule) []component {
	sccs := analysis.Dependencies(prog).SCCs()
	comps := make([]component, len(sccs))
	of := map[string]int{}
	for i, scc := range sccs {
		comps[i] = component{preds: scc, in: make(map[string]bool, len(scc))}
		for _, p := range scc {
			comps[i].in[p] = true
			of[p] = i
		}
	}
	for _, recursive := range []bool{false, true} {
		for _, r := range rules {
			c := &comps[of[r.Head.Pred]]
			var pos []int
			for j, a := range r.Body {
				if c.in[a.Pred] {
					pos = append(pos, j)
				}
			}
			if (len(pos) > 0) == recursive {
				c.rules = append(c.rules, r)
				c.rec = append(c.rec, pos)
			}
		}
		if !recursive {
			for i := range comps {
				comps[i].init = len(comps[i].rules)
			}
		}
	}
	return comps
}

// fixpoint returns the component's loop over store under opts' iteration
// bound and context: the non-recursive rules fire once, the recursive ones
// pass while the component's relations grow. absorb gives the absorb
// function of a head predicate.
func (c component) fixpoint(store relation.Store, opts Options, absorb func(head string) func(relation.Tuple) bool) *Fixpoint {
	f := &Fixpoint{Store: store, MaxIterations: opts.MaxIterations, Ctx: opts.Ctx}
	for i, r := range c.rules {
		f.Rules = append(f.Rules, FixRule{Head: r.Head.Pred, Plans: DeltaVariants(r, c.rec[i]), Init: i < c.init, Absorb: absorb(r.Head.Pred)})
	}
	if c.init < len(c.rules) {
		for _, p := range c.preds {
			f.Watch(p, 0)
		}
	}
	return f
}
