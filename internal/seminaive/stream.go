package seminaive

import (
	"parlog/internal/ast"
	"parlog/internal/relation"
)

// Cursor is the rule-body executor: a single-use, pull-based enumeration of
// a plan's satisfying ground substitutions. Each call to Next resumes the
// backtracking join where the previous one suspended, which is what lets
// Query hand tuples out one at a time; Enumerate is a loop over it.
//
// Every join level keeps its state inline (see level), so a drain allocates
// only the cursor's two buffers. The cursor resolves each level's relation
// and watermark window when it opens, so the store must neither gain nor
// lose the plan's relations while the cursor is live; inserts are fine — a
// level captures its row bounds when it opens, and rows inserted later lie
// beyond them.
type Cursor struct {
	p     *Plan
	store relation.Store

	vals    []ast.Value
	scratch []ast.Value // index key, constraint arguments or negation probe
	levels  []level
	depth   int
	started bool
	done    bool
	fired   int64

	// prof is the plan's runtime counters, captured when the cursor opens;
	// nil keeps the pull loops on the zero-overhead path.
	prof *planProfile
}

// level is one join position: what the cursor resolved for it when it
// opened, and its suspended state, either the captured postings run of an
// index probe (the atom has bound columns) or the scan window [next, end)
// (it has none).
type level struct {
	// rel is the atom's relation, nil when the store has none; ix is its
	// index on the bound columns, taken when the level first opens on a
	// non-empty window. [lo, hi) is the watermark window; hi < 0 means the
	// predicate has none, and the level reads every row present when it
	// opens.
	rel    *relation.Relation
	ix     *relation.Index
	lo, hi int

	run       []int32
	next, end int
}

// Stream opens a cursor over the plan's enumeration under watermarks w
// (nil for full extents).
func (p *Plan) Stream(store relation.Store, w *Watermarks) *Cursor {
	c := &Cursor{}
	c.open(p, store, w)
	return c
}

// open readies c to enumerate p, resolving each level's relation and
// watermark window.
func (c *Cursor) open(p *Plan, store relation.Store, w *Watermarks) {
	buf := make([]ast.Value, len(p.slotOf)+p.scratch)
	*c = Cursor{
		p:       p,
		store:   store,
		vals:    buf[:len(p.slotOf):len(p.slotOf)],
		scratch: buf[len(p.slotOf):],
		levels:  make([]level, len(p.atoms)),
		prof:    p.prof,
	}
	for k := range p.atoms {
		ae := &p.atoms[k]
		l := &c.levels[k]
		l.rel = store[ae.pred]
		// n = -1: a predicate without a watermark reads up to NumRows
		// whenever its level opens.
		l.lo, l.hi = w.bounds(ae.pred, ae.kind, -1)
	}
}

// Head instantiates the rule head from the current substitution (freshly
// allocated, safe to retain).
func (c *Cursor) Head() relation.Tuple { return c.p.HeadTuple(c.vals) }

// Fired reports the substitutions yielded so far.
func (c *Cursor) Fired() int64 { return c.fired }

// Next advances to the next satisfying ground substitution; false means
// the enumeration is exhausted.
func (c *Cursor) Next() bool {
	if c.done {
		return false
	}
	last := len(c.p.atoms) - 1
	if !c.started {
		c.started = true
		if !c.preChecks() {
			c.done = true
			return false
		}
		if last < 0 {
			// A bodiless rule (ground head, by safety) fires once.
			c.done = true
			c.fired++
			return true
		}
		c.openLevel(0)
	}
	// After a yield depth is still last, so the join resumes there.
	for c.depth >= 0 {
		if !c.advance(c.depth) {
			c.depth--
			continue
		}
		if c.depth == last {
			c.fired++
			return true
		}
		c.depth++
		c.openLevel(c.depth)
	}
	c.done = true
	return false
}

// openLevel positions execution level k under the current bindings: an
// index probe on the bound columns, or a scan when there are none, either
// restricted to the atom's semi-naive range.
func (c *Cursor) openLevel(k int) {
	l := &c.levels[k]
	l.run, l.next, l.end = nil, 0, 0
	if l.rel == nil || l.rel.Len() == 0 {
		return
	}
	lo, hi := l.lo, l.hi
	if hi < 0 {
		hi = l.rel.NumRows()
	}
	if lo >= hi {
		return
	}
	if c.prof != nil {
		c.prof.atoms[k].Probes++
	}
	ae := &c.p.atoms[k]
	if len(ae.boundCols) == 0 {
		l.next, l.end = lo, hi
		return
	}
	key := c.scratch[:len(ae.boundSrc)]
	for i, src := range ae.boundSrc {
		if src.slot >= 0 {
			key[i] = c.vals[src.slot]
		} else {
			key[i] = src.value
		}
	}
	if l.ix == nil {
		l.ix = l.rel.IndexOn(ae.boundCols...)
	}
	l.run = l.ix.Probe(key, lo, hi)
}

// advance pulls live rows at level k until one satisfies the atom's check
// columns, constraints and negations, binding its free slots; false means
// the level is exhausted.
func (c *Cursor) advance(k int) bool {
	l := &c.levels[k]
	ae := &c.p.atoms[k]
	probe := len(ae.boundCols) > 0
	var pa *AtomProfile
	if c.prof != nil {
		pa = &c.prof.atoms[k]
	}
	for {
		var row int
		if probe {
			if len(l.run) == 0 {
				return false
			}
			row = int(l.run[0])
			l.run = l.run[1:]
		} else {
			if l.next >= l.end {
				return false
			}
			row = l.next
			l.next++
		}
		if !l.rel.Alive(row) {
			// Counted relations (view maintenance) keep dead rows in the
			// arena; joins see only the live extent.
			continue
		}
		if pa != nil {
			pa.Rows++
		}
		tuple := l.rel.Row(row)
		for ci, col := range ae.freeCols {
			c.vals[ae.freeSlots[ci]] = tuple[col]
		}
		if !c.rowChecks(ae, tuple) {
			continue
		}
		if pa != nil {
			pa.Matches++
		}
		return true
	}
}

// rowChecks applies an atom's repeated-variable checks, constraints and
// negation probes to the current bindings. Check columns repeat a variable
// first bound by an earlier column of the same atom, so they compare after
// the binds.
func (c *Cursor) rowChecks(ae *atomExec, tuple relation.Tuple) bool {
	for ci, col := range ae.checkCols {
		if tuple[col] != c.vals[ae.checkSlots[ci]] {
			return false
		}
	}
	for _, cc := range ae.constraints {
		if !c.check(cc) {
			return false
		}
	}
	for _, cn := range ae.negations {
		if !c.negAbsent(cn) {
			return false
		}
	}
	return true
}

// preChecks evaluates the variable-free constraints and ground negations
// once, before enumeration.
func (c *Cursor) preChecks() bool {
	for _, cc := range c.p.zeroChecks {
		if len(cc.slots) > 0 {
			// Zero-position constraints with variables only occur for empty
			// bodies, where safety forbids variables.
			panic("seminaive: constraint on unbound variables")
		}
		if !c.check(cc) {
			return false
		}
	}
	for _, cn := range c.p.zeroNegs {
		if !c.negAbsent(cn) {
			return false
		}
	}
	return true
}

func (c *Cursor) check(cc compiledConstraint) bool {
	args := c.scratch[:len(cc.slots)]
	for i, s := range cc.slots {
		args[i] = c.vals[s]
	}
	return cc.h.Fn(args) == cc.proc
}

// negAbsent reports whether the ground instance of the negated atom is
// absent — a missing relation counts as empty.
func (c *Cursor) negAbsent(cn compiledNegation) bool {
	rel, ok := c.store[cn.pred]
	if !ok || rel.Len() == 0 {
		return true
	}
	probe := relation.Tuple(c.scratch[:len(cn.src)])
	for i, s := range cn.src {
		if s.slot >= 0 {
			probe[i] = c.vals[s.slot]
		} else {
			probe[i] = s.value
		}
	}
	return !rel.Contains(probe)
}
