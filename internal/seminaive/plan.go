// Package seminaive implements sequential bottom-up evaluation of Datalog
// programs: naive iteration and the semi-naive algorithm the paper assumes
// as its execution model (Section 2, [3,4,14]). It also exports the rule
// plan/enumeration machinery reused by the parallel runtime, and counts
// successful ground substitutions — the currency of the paper's
// non-redundancy results (Definition 1, Definition 4, Theorems 2 and 6).
package seminaive

import (
	"fmt"
	"sort"

	"parlog/internal/ast"
	"parlog/internal/relation"
)

// RangeKind selects which rows of a body atom's relation a rule variant may
// read during one semi-naive iteration.
type RangeKind int

const (
	// RangeFull reads every row present at the start of the iteration.
	RangeFull RangeKind = iota
	// RangePrev reads only rows that existed before the previous iteration's
	// delta (T_{k-1}).
	RangePrev
	// RangeDelta reads only the previous iteration's new rows (Δ_k).
	RangeDelta
)

// Watermarks gives, per predicate, the row counts delimiting the semi-naive
// ranges: Prev rows existed before the last delta, Cur rows exist now.
// Predicates absent from the maps are treated as fully readable.
type Watermarks struct {
	Prev map[string]int
	Cur  map[string]int
}

// bounds returns the half-open row interval for pred under kind. n is the
// relation's current physical length, used when pred has no watermark.
func (w *Watermarks) bounds(pred string, kind RangeKind, n int) (lo, hi int) {
	if w == nil {
		return 0, n
	}
	cur, ok := w.Cur[pred]
	if !ok {
		return 0, n
	}
	switch kind {
	case RangePrev:
		return 0, w.Prev[pred]
	case RangeDelta:
		return w.Prev[pred], cur
	default:
		return 0, cur
	}
}

// Plan is a compiled evaluation strategy for one rule variant: a join order
// over the body atoms, the range each atom reads, slot-compiled variable
// access (no maps on the hot path), and the earliest point at which each
// constraint can be checked.
type Plan struct {
	Rule ast.Rule
	// Order lists body-atom indexes in execution order.
	Order []int
	// Ranges[i] is the range kind for body atom i (indexed by body position,
	// not execution position).
	Ranges []RangeKind

	slotOf map[string]int // variable name → dense slot
	atoms  []atomExec     // one per Order entry
	head   []slotOrConst
	// zeroChecks are constraints with no variables, evaluated once per
	// enumeration (they only arise in degenerate rewrites).
	zeroChecks []compiledConstraint
	// zeroNegs are ground negation probes of bodiless rules.
	zeroNegs []compiledNegation
	// constraintPos[k] is the execution position at which the k-th rule
	// constraint is checked; -1 for variable-free pre-join checks.
	constraintPos []int
	// planned[k] is execution position k's relation size when the rule
	// compiled (recordPlanned); -1 when no store was consulted.
	planned []int64
	// scratch is the widest key, constraint argument list or negation probe
	// the cursor assembles, so one buffer serves them all.
	scratch int
	// prof holds runtime counters, armed by EnableProfile; nil (the
	// default) keeps the enumeration loops on the zero-overhead path.
	prof *planProfile
}

// slotOrConst addresses either a variable slot or an inline constant.
type slotOrConst struct {
	slot  int // ≥0: slot index; <0: constant
	value ast.Value
}

// compiledConstraint is a HashConstraint with its arguments resolved to
// slots; k is its index in the rule's Constraints.
type compiledConstraint struct {
	h     *ast.HashFunc
	slots []int
	proc  int
	k     int
}

// atomExec is one body atom compiled against the boundness state of its
// execution position.
type atomExec struct {
	pred string
	kind RangeKind
	// bound columns feed the index lookup: value comes from a slot (≥0) or
	// an inline constant.
	boundCols []int
	boundSrc  []slotOrConst
	// free columns bind new slots in first-occurrence order.
	freeCols  []int
	freeSlots []int
	// check columns must equal a slot bound earlier within this same atom
	// (repeated fresh variable).
	checkCols  []int
	checkSlots []int
	// constraints become checkable after this atom binds its slots.
	constraints []compiledConstraint
	// negations become probeable after this atom binds their variables.
	negations []compiledNegation
}

// compiledNegation is a stratified-negation filter: the substitution
// survives only if the ground instance of the atom is absent from its
// (completed, lower-stratum) relation.
type compiledNegation struct {
	pred string
	src  []slotOrConst
}

// Compile builds a plan for rule with the given per-atom ranges (nil for an
// all-RangeFull plan). The join starts at the first delta atom (or atom 0)
// and greedily appends the atom with the most bound argument positions,
// lowest body index on ties — a function of the rule text alone, so
// repeated compiles and lockstep replays agree. Constraints are pushed to
// the earliest execution position at which their variables are bound.
// Rules may carry *ast.HashConstraint conditions; other Constraint
// implementations are rejected.
func Compile(rule ast.Rule, ranges []RangeKind) *Plan {
	return compile(rule, ranges, nil)
}

// compileHeadBound builds the all-RangeFull plan that counts rule's
// derivations of one given head tuple: the head variables are bound before
// the join (bindHead writes them), so the body runs as index probes on
// them. This is the plan the IVM's rederivation and recount run.
func compileHeadBound(rule ast.Rule) *Plan {
	return compile(rule, nil, rule.Head.Vars(nil))
}

// bindHead writes the head-bound slots of a compileHeadBound plan from
// tuple t into vals and reports whether t can match the head at all: a head
// constant must equal t's column, and a repeated head variable must see
// equal values. Head variables own slots 0..k-1 in first-occurrence order,
// so a slot equal to the count bound so far is a first occurrence.
func (p *Plan) bindHead(t relation.Tuple, vals []ast.Value) bool {
	next := 0
	for i, h := range p.head {
		switch {
		case h.slot < 0:
			if t[i] != h.value {
				return false
			}
		case h.slot == next:
			vals[h.slot] = t[i]
			next++
		case vals[h.slot] != t[i]:
			return false
		}
	}
	return true
}

// chooseOrder picks the execution order of the body atoms. pre holds the
// variables bound before the join starts.
func chooseOrder(rule ast.Rule, ranges []RangeKind, pre map[string]bool) []int {
	n := len(rule.Body)
	bound := make(map[string]bool, len(pre))
	for v := range pre {
		bound[v] = true
	}
	score := func(i int) int {
		s := 0
		for _, t := range rule.Body[i].Args {
			if !t.IsVar() || bound[t.VarName] {
				s++
			}
		}
		return s
	}

	// Start atom: the delta atom when one exists (each delta variant has at
	// most one, and starting there keeps the enumeration proportional to the
	// delta). Otherwise the atom with the most pre-bound variables, which
	// is atom 0 when nothing is pre-bound.
	first := -1
	for i, k := range ranges {
		if k == RangeDelta {
			first = i
			break
		}
	}
	if first < 0 {
		first = 0
		best := 0
		for i, a := range rule.Body {
			c := 0
			for _, t := range a.Args {
				if t.IsVar() && pre[t.VarName] {
					c++
				}
			}
			if c > best {
				first, best = i, c
			}
		}
	}

	order := make([]int, 0, n)
	used := make([]bool, n)
	take := func(i int) {
		used[i] = true
		order = append(order, i)
		for _, t := range rule.Body[i].Args {
			if t.IsVar() {
				bound[t.VarName] = true
			}
		}
	}
	take(first)
	for len(order) < n {
		best, bestScore := -1, -1
		for i := 0; i < n; i++ {
			if s := score(i); !used[i] && s > bestScore {
				best, bestScore = i, s
			}
		}
		take(best)
	}
	return order
}

// compile is Compile with the variables pre bound before the join; they
// take slots 0..len(pre)-1 in order.
func compile(rule ast.Rule, ranges []RangeKind, pre []string) *Plan {
	n := len(rule.Body)
	if ranges == nil {
		ranges = make([]RangeKind, n)
	}
	p := &Plan{Rule: rule, Ranges: ranges, slotOf: make(map[string]int)}

	slot := func(name string) int {
		if s, ok := p.slotOf[name]; ok {
			return s
		}
		s := len(p.slotOf)
		p.slotOf[name] = s
		return s
	}
	boundSlot := make(map[string]bool, len(pre))
	for _, v := range pre {
		slot(v)
		boundSlot[v] = true
	}

	if n > 0 {
		p.Order = chooseOrder(rule, ranges, boundSlot)
	}

	// Compile the atoms against the boundness state along the order.
	p.atoms = make([]atomExec, len(p.Order))
	p.planned = make([]int64, len(p.Order))
	for k, idx := range p.Order {
		atom := rule.Body[idx]
		p.planned[k] = -1
		ae := atomExec{pred: atom.Pred, kind: ranges[idx]}
		seenHere := map[string]int{} // var → slot bound earlier in this atom
		for ci, t := range atom.Args {
			switch {
			case !t.IsVar():
				ae.boundCols = append(ae.boundCols, ci)
				ae.boundSrc = append(ae.boundSrc, slotOrConst{slot: -1, value: t.Value})
			case boundSlot[t.VarName]:
				ae.boundCols = append(ae.boundCols, ci)
				ae.boundSrc = append(ae.boundSrc, slotOrConst{slot: slot(t.VarName)})
			case seenHere[t.VarName] != 0:
				ae.checkCols = append(ae.checkCols, ci)
				ae.checkSlots = append(ae.checkSlots, seenHere[t.VarName]-1)
			default:
				s := slot(t.VarName)
				seenHere[t.VarName] = s + 1
				ae.freeCols = append(ae.freeCols, ci)
				ae.freeSlots = append(ae.freeSlots, s)
			}
		}
		for v := range seenHere {
			boundSlot[v] = true
		}
		p.atoms[k] = ae
		p.scratch = max(p.scratch, len(ae.boundSrc))
	}

	// Head access.
	p.head = make([]slotOrConst, len(rule.Head.Args))
	for i, t := range rule.Head.Args {
		if t.IsVar() {
			p.head[i] = slotOrConst{slot: slot(t.VarName)}
		} else {
			p.head[i] = slotOrConst{slot: -1, value: t.Value}
		}
	}

	// Attach each constraint to the earliest execution position where all of
	// its variables are bound.
	for k, c := range rule.Constraints {
		hc, ok := c.(*ast.HashConstraint)
		if !ok {
			panic(fmt.Sprintf("seminaive: cannot compile constraint type %T", c))
		}
		cc := compiledConstraint{h: hc.H, proc: hc.Proc, k: k}
		for _, v := range hc.Args {
			cc.slots = append(cc.slots, slot(v))
		}
		p.scratch = max(p.scratch, len(cc.slots))
		if len(hc.Args) == 0 || n == 0 {
			p.zeroChecks = append(p.zeroChecks, cc)
			p.constraintPos = append(p.constraintPos, -1)
			continue
		}
		pos := earliestCovered(rule, p.Order, hc.Args)
		p.atoms[pos].constraints = append(p.atoms[pos].constraints, cc)
		p.constraintPos = append(p.constraintPos, pos)
	}

	// Attach each negated atom likewise; safety guarantees its variables are
	// bound by the positive body.
	for _, a := range rule.Negated {
		cn := compiledNegation{pred: a.Pred, src: make([]slotOrConst, len(a.Args))}
		for i, t := range a.Args {
			if t.IsVar() {
				cn.src[i] = slotOrConst{slot: slot(t.VarName)}
			} else {
				cn.src[i] = slotOrConst{slot: -1, value: t.Value}
			}
		}
		p.scratch = max(p.scratch, len(cn.src))
		vars := a.Vars(nil)
		if len(vars) == 0 || n == 0 {
			p.zeroNegs = append(p.zeroNegs, cn)
			continue
		}
		pos := earliestCovered(rule, p.Order, vars)
		p.atoms[pos].negations = append(p.atoms[pos].negations, cn)
	}
	return p
}

// recordPlanned notes each execution position's relation size in store —
// the planned= column of explain-analyze. Lower-SCC sizes are exact by the
// time a rule compiles, because SCCs evaluate in topological order.
func (p *Plan) recordPlanned(store relation.Store) {
	for k, ae := range p.atoms {
		p.planned[k] = 0
		if rel, ok := store[ae.pred]; ok {
			p.planned[k] = int64(rel.Len())
		}
	}
}

// Moved reports how many body atoms execute at a position different from
// their textual one — the planner's reordering footprint.
func (p *Plan) Moved() int {
	moved := 0
	for k, idx := range p.Order {
		if k != idx {
			moved++
		}
	}
	return moved
}

// ConstraintPositions reports, per rule constraint in declaration order, the
// execution position (index into Order) at which the plan checks it; -1
// marks variable-free constraints checked once before enumeration. A
// position before the last join level means the constraint was pushed down.
func (p *Plan) ConstraintPositions() []int { return p.constraintPos }

// DropImplied removes the runtime check of rule constraint k when the plan
// checks it at the level of body atom atom, and reports whether it did. The
// caller has proven that every row atom's relation can hold satisfies the
// constraint, so the check there decides nothing. Where an earlier level
// binds the constraint's variables the check prunes the join, and stays.
// The rule keeps the constraint, and ConstraintPositions still reports
// where it was attached.
func (p *Plan) DropImplied(k, atom int) bool {
	pos := p.constraintPos[k]
	if pos < 0 || p.Order[pos] != atom {
		return false
	}
	ae := &p.atoms[pos]
	for i, cc := range ae.constraints {
		if cc.k == k {
			ae.constraints = append(ae.constraints[:i:i], ae.constraints[i+1:]...)
			return true
		}
	}
	return false
}

// Pushdowns counts constraints checked strictly before the final join
// level — the ones whose early placement prunes the enumeration.
func (p *Plan) Pushdowns() int {
	pushed := 0
	for _, pos := range p.constraintPos {
		if pos < len(p.Order)-1 {
			pushed++
		}
	}
	return pushed
}

// Slots reports the number of variable slots; Enumerate hands fn a value
// array of this length.
func (p *Plan) Slots() int { return len(p.slotOf) }

// SlotOf returns the slot of a variable, for callers that need to read
// specific bindings from the enumeration array.
func (p *Plan) SlotOf(name string) (int, bool) {
	s, ok := p.slotOf[name]
	return s, ok
}

// earliestCovered returns the execution position after which all vars are
// bound. Safety guarantees such a position exists.
func earliestCovered(rule ast.Rule, order []int, vars []string) int {
	need := make(map[string]bool, len(vars))
	for _, v := range vars {
		need[v] = true
	}
	for k, idx := range order {
		for _, t := range rule.Body[idx].Args {
			if t.IsVar() {
				delete(need, t.VarName)
			}
		}
		if len(need) == 0 {
			return k
		}
	}
	return len(order) - 1
}

// Enumerate calls fn with the slot-value array of every ground substitution
// that satisfies the body atoms (within their ranges) and all constraints.
// The array is reused between calls; fn must not retain it. fn returning
// false stops the enumeration. The number of successful substitutions is
// returned.
func (p *Plan) Enumerate(store relation.Store, w *Watermarks, fn func(vals []ast.Value) bool) int64 {
	var c Cursor
	c.open(p, store, w)
	for c.Next() {
		if !fn(c.vals) {
			break
		}
	}
	return c.fired
}

// HeadTuple instantiates the rule's head from the slot-value array that
// Enumerate produced.
func (p *Plan) HeadTuple(vals []ast.Value) relation.Tuple {
	return p.HeadTupleInto(make(relation.Tuple, len(p.head)), vals)
}

// HeadTupleInto writes the head tuple into dst (which must have the head's
// arity) and returns it — the allocation-free variant for hot loops that
// probe for duplicates before cloning.
func (p *Plan) HeadTupleInto(dst relation.Tuple, vals []ast.Value) relation.Tuple {
	for i, h := range p.head {
		if h.slot >= 0 {
			dst[i] = vals[h.slot]
		} else {
			dst[i] = h.value
		}
	}
	return dst
}

// HeadArity returns the rule head's arity.
func (p *Plan) HeadArity() int { return len(p.head) }

// DeltaVariants returns the exact semi-naive decomposition of rule for the
// recursive body-atom positions recAtoms (ascending): variant l reads Δ at
// recAtoms[l], T_{k-1} at recAtoms[<l], and the full current extent at
// recAtoms[>l]; non-recursive atoms always read the full extent. The union
// over variants enumerates every ground substitution involving at least one
// delta tuple exactly once.
func DeltaVariants(rule ast.Rule, recAtoms []int) []*Plan {
	if len(recAtoms) == 0 {
		return []*Plan{Compile(rule, nil)}
	}
	sorted := append([]int(nil), recAtoms...)
	sort.Ints(sorted)
	plans := make([]*Plan, 0, len(sorted))
	for l := range sorted {
		ranges := make([]RangeKind, len(rule.Body))
		for j, rj := range sorted {
			switch {
			case j < l:
				ranges[rj] = RangePrev
			case j == l:
				ranges[rj] = RangeDelta
			default:
				ranges[rj] = RangeFull
			}
		}
		plans = append(plans, Compile(rule, ranges))
	}
	return plans
}
