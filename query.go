package parlog

import (
	"context"
	"fmt"
	"strings"

	"parlog/internal/ast"
	"parlog/internal/parser"
	"parlog/internal/rewrite"
	"parlog/internal/seminaive"
)

// PlanReport is the planner's account of one evaluation, collected when
// EvalOptions.Explain is set. The sequential engine reports every compiled
// rule plan; the parallel engines report the demand summary only (their
// per-worker plans are fragment-local).
type PlanReport struct {
	// Demand summarizes the magic-sets rewrite Query applied, nil when no
	// rewrite happened.
	Demand *DemandReport
	// Rules holds one entry per distinct rule, in compile order.
	Rules []RulePlan
}

// DemandReport summarizes a magic-sets (demand) rewrite.
type DemandReport struct {
	// Goal is the original goal atom; Adornment its binding pattern.
	Goal      string
	Adornment string
	// Rules is the rewritten program's rule count; MagicRules how many of
	// them are demand (magic/seed) rules.
	Rules      int
	MagicRules int
}

// RulePlan reports the chosen execution strategy of one rule.
type RulePlan struct {
	// Rule is the rule as written.
	Rule string
	// Order lists the body atoms in execution order.
	Order []string
	// Reordered is true when the order differs from the textual one.
	Reordered bool
	// Pushdowns describes constraints checked before the final join level.
	Pushdowns []string
}

// newPlanReport starts a report for one evaluation.
func newPlanReport(opts EvalOptions) *PlanReport {
	r := &PlanReport{}
	if opts.demand != nil {
		r.Demand = &DemandReport{
			Goal:       opts.demand.goal,
			Adornment:  opts.demand.adornment,
			Rules:      opts.demand.rules,
			MagicRules: opts.demand.magic,
		}
	}
	return r
}

// observe folds one compiled plan into the report. Delta variants of the
// same rule share an order decision; only the first is kept.
func (r *PlanReport) observe(p *Program, pl *seminaive.Plan) {
	text := p.ast.FormatRule(pl.Rule)
	for _, existing := range r.Rules {
		if existing.Rule == text {
			return
		}
	}
	rp := RulePlan{Rule: text, Reordered: pl.Moved() > 0}
	for _, idx := range pl.Order {
		rp.Order = append(rp.Order, p.ast.FormatAtom(pl.Rule.Body[idx]))
	}
	last := len(pl.Order) - 1
	for ci, pos := range pl.ConstraintPositions() {
		if pos >= last {
			continue
		}
		c := pl.Rule.Constraints[ci]
		where := "before the join"
		if pos >= 0 {
			where = fmt.Sprintf("after atom %d", pos+1)
		}
		rp.Pushdowns = append(rp.Pushdowns, fmt.Sprintf("%s checked %s", c.String(), where))
	}
	r.Rules = append(r.Rules, rp)
}

// Explain renders the plan report as stable, line-oriented text: the
// demand rewrite if any, and per rule the chosen join order
// and constraint pushdowns. When the run also collected a runtime profile
// (EvalOptions.Profile), an "analyze" section with actual-vs-planned
// cardinalities follows — explain-analyze in one transcript. Returns ""
// when the run was evaluated with neither Explain nor Profile set.
func (r *Result) Explain() string {
	if r.Plan == nil && r.Profile == nil {
		return ""
	}
	var b strings.Builder
	if r.Plan != nil {
		if d := r.Plan.Demand; d != nil {
			fmt.Fprintf(&b, "demand: goal=%s adornment=%s rules=%d magic=%d\n",
				d.Goal, d.Adornment, d.Rules, d.MagicRules)
		}
		for _, rp := range r.Plan.Rules {
			fmt.Fprintf(&b, "rule %s\n", rp.Rule)
			suffix := ""
			if rp.Reordered {
				suffix = "  (reordered)"
			}
			fmt.Fprintf(&b, "  order: %s%s\n", strings.Join(rp.Order, ", "), suffix)
			for _, pd := range rp.Pushdowns {
				fmt.Fprintf(&b, "  pushdown: %s\n", pd)
			}
		}
	}
	if r.Profile != nil {
		b.WriteString(r.Profile.String())
	}
	return b.String()
}

// QueryResult is a streaming answer set: the underlying evaluation Result
// plus a single-use tuple iterator over the goal's matches. With demand
// rewriting applied, Result.Output holds the rewritten (adorned) relations;
// the iterator always yields tuples of the original goal predicate's arity.
//
// The iterator is single-use: once exhausted, Next keeps returning false
// and All returns nil — re-iterate by issuing the query again. When the
// query's context is canceled mid-iteration, Next returns false early and
// Err reports the cause.
type QueryResult struct {
	*Result
	// Pred is the goal predicate as queried.
	Pred string
	ctx  context.Context
	cur  *seminaive.Cursor
	pre  []Tuple // preloaded answers (Snapshot.Query); nil when streaming
	pi   int
	err  error
}

// Next returns the next answer tuple; ok is false when the stream is
// exhausted, the context is canceled, or an earlier call already drained
// it. The tuple is freshly allocated and safe to retain.
func (q *QueryResult) Next() (Tuple, bool) {
	if q.err != nil {
		return nil, false
	}
	if q.ctx != nil {
		if err := q.ctx.Err(); err != nil {
			q.err = err
			return nil, false
		}
	}
	if q.pre != nil {
		if q.pi >= len(q.pre) {
			return nil, false
		}
		t := q.pre[q.pi]
		q.pi++
		return t, true
	}
	if q.cur == nil || !q.cur.Next() {
		return nil, false
	}
	return q.cur.Head(), true
}

// All drains the remaining stream into a slice — the materializing
// convenience. Answers already consumed via Next are not replayed; a
// second All on the same result returns nil.
func (q *QueryResult) All() []Tuple {
	var out []Tuple
	for {
		t, ok := q.Next()
		if !ok {
			return out
		}
		out = append(out, t)
	}
}

// Err reports why iteration stopped early — a canceled or expired context —
// or nil after a normally exhausted stream.
func (q *QueryResult) Err() error {
	return q.err
}

// Query evaluates prog goal-directed and streams the goal atom's answers.
// The goal is a single atom such as "anc(a, X)?" (the trailing '?' is
// optional); constants must be bound, variables are answer columns. Unless
// opts.NoDemand is set, the program is first specialized to the goal with
// the magic-sets (demand) rewrite of internal/rewrite, so only the portion
// of the IDB the goal depends on is materialized; evaluation then runs on
// the engine opts selects. Explain is
// implied — the static plan report is free to collect, and
// QueryResult.Explain() reports the decisions taken. Runtime profiling
// (opts.Profile) stays strictly opt-in: the hot serving path pays nothing
// unless the caller asks for the analyze section.
func Query(ctx context.Context, p *Program, edb Store, goal string, opts EvalOptions) (*QueryResult, error) {
	goalAtom, err := p.parseGoal(goal)
	if err != nil {
		return nil, err
	}
	opts.Explain = true

	runProg, runStore, matchAtom := p, edb, goalAtom
	if !opts.NoDemand {
		d, err := rewrite.DemandRewrite(p.ast, goalAtom)
		if err != nil {
			return nil, fmt.Errorf("parlog: %w", err)
		}
		if d != nil {
			runProg = &Program{ast: d.Program}
			matchAtom = d.Goal
			if runStore == nil {
				runStore = Store{}
			} else {
				runStore = runStore.Clone()
			}
			seed := NewRelation(len(d.SeedTuple))
			seed.Insert(Tuple(d.SeedTuple))
			runStore[d.SeedPred] = seed
			opts.demand = &demandNote{
				goal:      p.ast.FormatAtom(goalAtom),
				adornment: d.Adornment,
				rules:     d.Rules,
				magic:     d.MagicRules,
			}
		}
	}

	res, err := eval(ctx, runProg, runStore, opts)
	if err != nil {
		return nil, err
	}
	qr := &QueryResult{Result: res, Pred: goalAtom.Pred, ctx: ctx}

	// Stream the matches of the (possibly adorned) goal atom out of the
	// result store. The parallel engines' Output omits base relations, so
	// an EDB goal falls back to the input store.
	cursorStore := res.Output
	if _, ok := cursorStore[matchAtom.Pred]; !ok && runStore != nil {
		cursorStore = runStore
	}
	if rel, ok := cursorStore[matchAtom.Pred]; ok && rel != nil {
		if rel.Arity() != matchAtom.Arity() {
			return nil, fmt.Errorf("parlog: %s has arity %d, goal uses %d", goalAtom.Pred, rel.Arity(), matchAtom.Arity())
		}
		match := ast.Rule{Head: matchAtom.Clone(), Body: []ast.Atom{matchAtom.Clone()}}
		qr.cur = seminaive.Compile(match, nil).Stream(cursorStore, nil)
	}
	return qr, nil
}

// trimGoal strips the optional trailing '?' or '.' of a goal atom.
func trimGoal(goal string) string {
	q := strings.TrimSpace(goal)
	q = strings.TrimSuffix(q, "?")
	return strings.TrimSuffix(strings.TrimSpace(q), ".")
}

// parseGoal parses a goal atom ("anc(a, X)" or "anc(a, X)?"), interning
// its constants into the program's interner so they line up with the
// program's values.
func (p *Program) parseGoal(goal string) (ast.Atom, error) {
	q := trimGoal(goal)
	// Wrap the atom in a rule with a ground head so the parser's safety
	// check passes regardless of the goal's variables.
	tmp, err := parser.Parse("qwrap(ok) :- " + q + ".")
	if err != nil {
		return ast.Atom{}, fmt.Errorf("parlog: bad goal %q: %w", goal, err)
	}
	rule := tmp.Rules[0]
	if len(rule.Body) != 1 || len(rule.Negated) > 0 {
		return ast.Atom{}, fmt.Errorf("parlog: goal must be a single positive atom, got %q", goal)
	}
	atom := rule.Body[0]
	if err := p.checkGoalPred(atom); err != nil {
		return ast.Atom{}, err
	}
	for i, term := range atom.Args {
		if term.IsVar() {
			continue
		}
		atom.Args[i] = ast.C(p.ast.Interner.Intern(tmp.Interner.Name(term.Value)))
	}
	return atom, nil
}

// checkGoalPred rejects a goal atom whose predicate the program never
// mentions (an error wrapping ErrUnknownPredicate) or uses at another
// arity.
func (p *Program) checkGoalPred(atom ast.Atom) error {
	ar, ok := p.ast.Arities()[atom.Pred]
	if !ok {
		return fmt.Errorf("parlog: goal %s: %w", atom.Pred, ErrUnknownPredicate)
	}
	if ar != atom.Arity() {
		return fmt.Errorf("parlog: %s has arity %d, goal uses %d", atom.Pred, ar, atom.Arity())
	}
	return nil
}
