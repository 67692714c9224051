// Package parallel implements the paper's abstract parallel architecture and
// executes the rewritten programs on it: processors taking turns in
// bulk-synchronous supersteps on up to GOMAXPROCS goroutines, reliable
// point-to-point channels t_ij delivered at each barrier, duplicate
// elimination by difference (Section 3), termination at the first barrier
// with nothing in flight, and full accounting of communication, redundancy
// and base-relation placement — the quantities behind Examples 1–3 and the
// Section 6 trade-off.
package parallel

import (
	"fmt"
	"reflect"
	"sort"

	"parlog/internal/analysis"
	"parlog/internal/ast"
	"parlog/internal/hashpart"
	"parlog/internal/rewrite"
	"parlog/internal/seminaive"
)

// inSuffix marks a worker-local received-tuple relation; body IDB atoms of
// compiled rules read pred+inSuffix.
const inSuffix = "@in"

// Router decides where a freshly generated tuple of one derived predicate
// must be sent, mirroring the paper's sending rules: the tuple is matched
// against the body occurrence's pattern; if the rule's discriminating
// sequence is fully bound by the match, the tuple goes to h(v(r)θ),
// otherwise it is broadcast.
type Router struct {
	// Pred is the derived predicate this router applies to.
	Pred string
	// Pattern is the body atom occurrence, e.g. anc(Z, Y).
	Pattern ast.Atom
	// Self routes every tuple to the generating processor only (the
	// no-communication scheme).
	Self bool
	// Broadcast sends every pattern-matching tuple to all processors.
	Broadcast bool
	// Seq and HFor implement point-to-point routing: destination is
	// HFor(sender).Apply(v(r)θ). Unused when Self or Broadcast.
	Seq  []string
	HFor func(sender int) hashpart.Func
	// SameH records that HFor returns the same function for every sender,
	// so a tuple's destination does not depend on where it was generated
	// (the h of Sections 3 and 7, not the trade-off scheme's h_i).
	SameH bool
}

// compiledRule is one rule specialized to a processor.
type compiledRule struct {
	// plans are the semi-naive delta variants (a single all-full plan for
	// rules without derived body atoms — those run once at initialization).
	plans []*seminaive.Plan
	head  string
	slot  int  // head's index into Program.preds (a node's per-predicate slots)
	init  bool // no derived body atoms: fires once at start
	// home marks a rule whose every head tuple routes to the processor
	// that derived it, and nowhere else (see routedOn): its firings skip
	// routing.
	home bool
}

// edbNeed records which subset of one base relation a rule's body atom needs
// at each processor: the paper's b_k^i / D_in^i.
type edbNeed struct {
	pred string
	// pattern is the body atom (constants/repeated variables restrict which
	// tuples can ever match).
	pattern ast.Atom
	// seq/hFor define the fragment σ_{h_i(v(r))=i}; nil seq (or seq not
	// fully inside the atom) means the processor needs the full relation.
	seq  []string
	hFor func(i int) hashpart.Func
}

// Program is a compiled parallel Datalog program ready to Run.
type Program struct {
	Procs *hashpart.ProcSet
	// IDB and EDB map predicates to arities.
	IDB map[string]int
	EDB map[string]int
	// preds lists the derived predicates in sorted order; a node keeps its
	// per-predicate state in slots of the same order, and slots maps a name
	// back to its index.
	preds []string
	slots map[string]int
	// rules[k] is the k-th worker's compiled rule set (indexed by dense
	// processor index).
	rules [][]compiledRule
	// routers by predicate (same for every worker; sender-dependence is
	// inside HFor).
	routers map[string][]Router
	// disjoint[k] records build's proof that every tuple of preds[k] has
	// exactly one home (see oneHome), so the nodes' @in relations of it
	// are pairwise disjoint and Pool concatenates them.
	disjoint []bool
	// needs lists the EDB subsets each worker materializes.
	needs []edbNeed
	// facts embedded in the source program, merged into the EDB at Run.
	facts map[string][][]ast.Value
	// src retains the source program; profile records key rules through its
	// formatter (seminaive.ProfileKey).
	src *ast.Program
}

// PinnedBuckets reports, per dense bucket index, whether that bucket's
// compiled rule set carries restriction-set constraints (the h_i(seq)=i
// processing guards of Section 3). A pinned bucket's rules only fire on
// instances its own constraint admits, so a repartitioning may move the
// bucket between hosts but never relabel it — the co-location condition the
// rebalancer's transferability check enforces (network.CheckTransferable).
func (p *Program) PinnedBuckets() []bool {
	out := make([]bool, len(p.rules))
	for wi, ws := range p.rules {
		for _, cr := range ws {
			if len(cr.plans[0].Rule.Constraints) > 0 {
				out[wi] = true
				break
			}
		}
	}
	return out
}

// ruleSpec is the scheme-independent description handed to build: one per
// proper rule of the source program. If hFor is non-nil, worker i's copy of
// the rule carries the constraint h_i(seq) = i, and base atoms containing
// all of seq are fragmented accordingly.
type ruleSpec struct {
	seq  []string
	hFor func(i int) hashpart.Func
	// routerH records that hFor is the very function the head
	// predicate's router applies, so routedOn may compare columns alone.
	routerH bool
}

// build compiles the generic scheme description into a Program.
func build(prog *ast.Program, procs *hashpart.ProcSet, specs []ruleSpec, routers []Router) (*Program, error) {
	if procs == nil || procs.Len() == 0 {
		return nil, fmt.Errorf("parallel: empty processor set")
	}
	if err := analysis.CheckSafety(prog); err != nil {
		return nil, err
	}
	rules, facts := prog.FactTuples()
	if len(specs) != len(rules) {
		return nil, fmt.Errorf("parallel: %d rule specs for %d rules", len(specs), len(rules))
	}

	idb := make(map[string]int)
	for _, r := range rules {
		idb[r.Head.Pred] = r.Head.Arity()
	}
	edb := make(map[string]int)
	for _, r := range rules {
		for _, a := range r.Body {
			if _, ok := idb[a.Pred]; !ok {
				edb[a.Pred] = a.Arity()
			}
		}
		for _, a := range r.Negated {
			// Stratified semantics: a negated predicate must be complete
			// before this program runs, so it cannot be derived here. The
			// facade's stratified driver feeds lower strata in as base
			// relations.
			if _, ok := idb[a.Pred]; ok {
				return nil, fmt.Errorf("parallel: %s is negated but derived in the same phase; evaluate lower strata first", a.Pred)
			}
			edb[a.Pred] = a.Arity()
		}
	}
	for pred, tuples := range facts {
		if _, ok := idb[pred]; ok {
			continue
		}
		if len(tuples) > 0 {
			edb[pred] = len(tuples[0])
		}
	}

	preds := make([]string, 0, len(idb))
	for pred := range idb {
		preds = append(preds, pred)
	}
	sort.Strings(preds)
	slots := make(map[string]int, len(preds))
	for i, pred := range preds {
		slots[pred] = i
	}
	p := &Program{
		Procs:   procs,
		IDB:     idb,
		EDB:     edb,
		preds:   preds,
		slots:   slots,
		rules:   make([][]compiledRule, procs.Len()),
		routers: make(map[string][]Router),
		facts:   facts,
		src:     prog,
	}
	for _, rt := range routers {
		if _, ok := idb[rt.Pred]; !ok {
			return nil, fmt.Errorf("parallel: router for non-derived predicate %s", rt.Pred)
		}
		if !rt.Self && !rt.Broadcast {
			if _, ok := hashpart.SeqPositions(rt.Pattern, rt.Seq); !ok {
				return nil, fmt.Errorf("parallel: router for %s: sequence %v not contained in pattern %s",
					rt.Pred, rt.Seq, rt.Pattern)
			}
		}
		p.routers[rt.Pred] = append(p.routers[rt.Pred], rt)
	}
	p.disjoint = make([]bool, len(preds))
	for i, pred := range preds {
		p.disjoint[i] = oneHome(p.routers[pred])
	}

	// Record EDB needs and compile per-worker rules.
	for si, spec := range specs {
		r := rules[si]
		for _, a := range r.Body {
			if _, isEDB := edb[a.Pred]; !isEDB {
				continue
			}
			need := edbNeed{pred: a.Pred, pattern: a.Clone()}
			if spec.hFor != nil {
				if _, ok := hashpart.SeqPositions(a, spec.seq); ok {
					need.seq = spec.seq
					need.hFor = spec.hFor
				}
			}
			p.needs = append(p.needs, need)
		}
		// Negated relations must be complete at every reader: replicate.
		for _, a := range r.Negated {
			p.needs = append(p.needs, edbNeed{pred: a.Pred, pattern: ast.NewAtom(a.Pred, freshVarTerms(a.Arity())...)})
		}
	}

	for wi, procID := range procs.IDs() {
		var ws []compiledRule
		for si, spec := range specs {
			r := rules[si]
			// Rename derived body atoms to their @in relations.
			body := make([]ast.Atom, len(r.Body))
			var recAtoms []int
			for bi, a := range r.Body {
				if _, isIDB := idb[a.Pred]; isIDB {
					body[bi] = ast.NewAtom(a.Pred+inSuffix, a.Clone().Args...)
					recAtoms = append(recAtoms, bi)
				} else {
					body[bi] = a.Clone()
				}
			}
			var neg []ast.Atom
			for _, a := range r.Negated {
				neg = append(neg, a.Clone()) // reads the replicated lower-stratum copy
			}
			wr := ast.Rule{Head: r.Head.Clone(), Body: body, Negated: neg}
			if spec.hFor != nil {
				h := hashpart.AsHashFunc(spec.hFor(procID))
				wr = wr.WithConstraints(ast.NewHashConstraint(h, spec.seq, procID))
			}
			cr := compiledRule{
				head: r.Head.Pred, slot: slots[r.Head.Pred],
				home: spec.routerH && routedOn(r.Head, spec.seq, p.routers[r.Head.Pred]),
			}
			if len(recAtoms) == 0 {
				cr.init = true
				cr.plans = []*seminaive.Plan{seminaive.Compile(wr, nil)}
			} else {
				cr.plans = seminaive.DeltaVariants(wr, recAtoms)
			}
			for _, bi := range recAtoms {
				if spec.hFor != nil && routedImplies(r.Body[bi], spec, r.Head.Pred, p.routers[r.Body[bi].Pred], procID) {
					// The constraint is wr's last, after any of r's own.
					for _, pl := range cr.plans {
						pl.DropImplied(len(wr.Constraints)-1, bi)
					}
				}
			}
			ws = append(ws, cr)
		}
		p.rules[wi] = ws
	}
	return p, nil
}

// pointToPoint returns the column of each variable of rts's pattern when
// rts is a single point-to-point router whose pattern is distinct
// variables, so it matches every tuple of the predicate and sends each to
// exactly one destination.
func pointToPoint(rts []Router) (map[string]int, bool) {
	if len(rts) != 1 || rts[0].Self || rts[0].Broadcast {
		return nil, false
	}
	args := rts[0].Pattern.Args
	col := make(map[string]int, len(args))
	for i, t := range args {
		if _, dup := col[t.VarName]; !t.IsVar() || dup {
			return nil, false
		}
		col[t.VarName] = i
	}
	return col, true
}

// oneHome reports whether rts give every tuple exactly one home, the same
// whichever processor generated it: a single point-to-point router over
// distinct variables whose h is the same at every sender. Every generator
// of a tuple then sends it to that one home, the home alone keeps it in
// @in, and the union of the nodes' @in relations is a disjoint union.
func oneHome(rts []Router) bool {
	_, ok := pointToPoint(rts)
	return ok && rts[0].SameH
}

// routedOn reports whether rts is a single point-to-point router whose
// pattern (distinct variables) matches every tuple of a's predicate and
// whose sequence columns hold, in order, a's variables seq: the router
// sends a tuple matching a to h(seq) under its h.
//
// For a rule's head a, constrained by h(seq) = i under the router's own h,
// every head tuple then routes to processor i and nowhere else — Theorem
// 3's communication-free argument, applied per rule — so the node may skip
// routing it (compiledRule.home).
func routedOn(a ast.Atom, seq []string, rts []Router) bool {
	col, ok := pointToPoint(rts)
	if !ok || len(rts[0].Seq) != len(seq) || len(rts[0].Pattern.Args) != len(a.Args) {
		return false
	}
	for k, v := range rts[0].Seq {
		if t := a.Args[col[v]]; !t.IsVar() || t.VarName != seq[k] {
			return false
		}
	}
	return true
}

// routedImplies reports whether the constraint h(seq) = procID that spec
// puts on a rule with head predicate head holds for every row of the
// rule's positive body atom a, read from a's @in relation at processor
// procID. That needs a's predicate to have one home (oneHome) and its
// router to route on a's seq variables (routedOn) under the constraint's
// own h: that router sent each tuple to the one processor its h names, so
// the @in relation at procID holds only tuples on which h gives procID.
// The h is the router's when spec applies the head predicate's router's
// function and a reads the head predicate, or when the two functions are
// equal values.
func routedImplies(a ast.Atom, spec ruleSpec, head string, rts []Router, procID int) bool {
	if !oneHome(rts) || !routedOn(a, spec.seq, rts) {
		return false
	}
	return spec.routerH && a.Pred == head || sameFunc(rts[0].HFor(procID), spec.hFor(procID))
}

// sameFunc reports whether f and g are equal values of one comparable type,
// hence the same function. It answers false, never panics, for functions
// it cannot compare (a func or slice field).
func sameFunc(f, g hashpart.Func) bool {
	vf, vg := reflect.ValueOf(f), reflect.ValueOf(g)
	return vf.IsValid() && vg.IsValid() && vf.Type() == vg.Type() && vf.Comparable() && vf.Equal(vg)
}

// BuildQ compiles the Section 3 non-redundant scheme for a linear sirup.
func BuildQ(s *analysis.Sirup, spec rewrite.SirupSpec) (*Program, error) {
	if err := hashpart.ValidateSequence(s.Rec, spec.VR); err != nil {
		return nil, err
	}
	if err := hashpart.ValidateSequence(s.Exit, spec.VE); err != nil {
		return nil, err
	}
	hp := spec.HP
	if hp == nil {
		hp = spec.H
	}
	recAtom := s.Rec.Body[s.RecAtom]
	router := Router{Pred: s.T, Pattern: recAtom.Clone()}
	if _, ok := hashpart.SeqPositions(recAtom, spec.VR); ok {
		router.Seq = spec.VR
		h := spec.H
		router.HFor = func(int) hashpart.Func { return h }
		router.SameH = true
	} else {
		// v(r) ⊄ Ȳ: the sending condition cannot be checked at the sender
		// (Example 2) — broadcast.
		router.Broadcast = true
	}
	rules, _ := s.Program.FactTuples()
	// The router applies h, which also constrains the recursive rule and,
	// unless h' is given separately, the exit rule.
	specs, err := sirupRuleSpecs(rules, s,
		ruleSpec{seq: spec.VR, hFor: func(int) hashpart.Func { return spec.H }, routerH: true},
		ruleSpec{seq: spec.VE, hFor: func(int) hashpart.Func { return hp }, routerH: spec.HP == nil})
	if err != nil {
		return nil, err
	}
	return build(s.Program, spec.Procs, specs, []Router{router})
}

// BuildNoComm compiles the communication-free scheme of Section 6: outputs
// stay at their generating processor, base relations are replicated.
func BuildNoComm(s *analysis.Sirup, spec rewrite.NoCommSpec) (*Program, error) {
	if err := hashpart.ValidateSequence(s.Exit, spec.VE); err != nil {
		return nil, err
	}
	rules, _ := s.Program.FactTuples()
	specs, err := sirupRuleSpecs(rules, s, ruleSpec{},
		ruleSpec{seq: spec.VE, hFor: func(int) hashpart.Func { return spec.HP }})
	if err != nil {
		return nil, err
	}
	router := Router{Pred: s.T, Self: true}
	return build(s.Program, spec.Procs, specs, []Router{router})
}

// BuildR compiles the Section 6 trade-off scheme: no processing constraint,
// per-processor routing functions h_i.
func BuildR(s *analysis.Sirup, spec rewrite.RSpec) (*Program, error) {
	if err := hashpart.ValidateSequence(s.Rec, spec.VR); err != nil {
		return nil, err
	}
	if err := hashpart.ValidateSequence(s.Exit, spec.VE); err != nil {
		return nil, err
	}
	if err := hashpart.ValidateSubsetOf(spec.VR, s.BodyVars, "Ȳ (the recursive body atom)"); err != nil {
		return nil, err
	}
	rules, _ := s.Program.FactTuples()
	specs, err := sirupRuleSpecs(rules, s, ruleSpec{},
		ruleSpec{seq: spec.VE, hFor: func(int) hashpart.Func { return spec.HP }})
	if err != nil {
		return nil, err
	}
	router := Router{
		Pred:    s.T,
		Pattern: s.Rec.Body[s.RecAtom].Clone(),
		Seq:     spec.VR,
		HFor:    spec.HI,
	}
	return build(s.Program, spec.Procs, specs, []Router{router})
}

// freshVarTerms returns n distinct variable terms W1 … Wn.
func freshVarTerms(n int) []ast.Term {
	out := make([]ast.Term, n)
	for i := range out {
		out[i] = ast.V(fmt.Sprintf("W%d", i+1))
	}
	return out
}

// sirupRuleSpecs assigns rec to the sirup's recursive rule and exit to its
// exit rule, in the order the rules appear. A zero rec leaves the
// recursive rule unconstrained.
func sirupRuleSpecs(rules []ast.Rule, s *analysis.Sirup, rec, exit ruleSpec) ([]ruleSpec, error) {
	if len(rules) != 2 {
		return nil, fmt.Errorf("parallel: sirup with %d rules", len(rules))
	}
	specs := make([]ruleSpec, 2)
	for i, r := range rules {
		recursive := false
		for _, a := range r.Body {
			if a.Pred == r.Head.Pred {
				recursive = true
			}
		}
		if recursive {
			specs[i] = rec
		} else {
			specs[i] = exit
		}
	}
	return specs, nil
}

// BuildGeneral compiles the Section 7 scheme for an arbitrary Datalog
// program.
func BuildGeneral(prog *ast.Program, gspec rewrite.GeneralSpec) (*Program, error) {
	rules, _ := prog.FactTuples()
	if len(gspec.Rules) != len(rules) {
		return nil, fmt.Errorf("parallel: %d rule specs for %d rules", len(gspec.Rules), len(rules))
	}
	idb := make(map[string]bool)
	for _, r := range rules {
		idb[r.Head.Pred] = true
	}
	var specs []ruleSpec
	var routers []Router
	seenRouter := map[string]bool{}
	// funcs numbers the distinct discriminating functions: two rules share
	// a router only under the same function, not merely one of the same
	// name (two BalancedTables are both "hbal"). DeepEqual also matches
	// equal values of non-comparable types; a value holding a func (a
	// Linear's G) matches no other, which costs a router, never a tuple.
	var funcs []hashpart.Func
	funcID := func(h hashpart.Func) int {
		for i, g := range funcs {
			if reflect.DeepEqual(g, h) {
				return i
			}
		}
		funcs = append(funcs, h)
		return len(funcs) - 1
	}
	for ri, r := range rules {
		rs := gspec.Rules[ri]
		if err := hashpart.ValidateSequence(r, rs.Seq); err != nil {
			return nil, fmt.Errorf("rule %d: %w", ri, err)
		}
		h := rs.H
		specs = append(specs, ruleSpec{seq: rs.Seq, hFor: func(int) hashpart.Func { return h }})
		for _, a := range r.Body {
			if !idb[a.Pred] {
				continue
			}
			router := Router{Pred: a.Pred, Pattern: a.Clone()}
			if _, ok := hashpart.SeqPositions(a, rs.Seq); ok {
				router.Seq = rs.Seq
				router.HFor = func(int) hashpart.Func { return h }
				router.SameH = true
			} else {
				router.Broadcast = true
			}
			key := fmt.Sprintf("%s|%s|%v|%d|%v", a.Pred, a.String(), rs.Seq, funcID(h), router.Broadcast)
			if seenRouter[key] {
				continue
			}
			seenRouter[key] = true
			routers = append(routers, router)
		}
	}
	return build(prog, gspec.Procs, specs, routers)
}
