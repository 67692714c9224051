package seminaive

import (
	"fmt"

	"parlog/internal/analysis"
	"parlog/internal/ast"
	"parlog/internal/relation"
)

// Incremental view maintenance: counting-based insert propagation plus
// DRed-style (delete and rederive) deletion, over the same arena watermarks
// that drive semi-naive evaluation.
//
// Every relation runs in counted mode: a tuple's count is the number of its
// base supports (EDB presence, program fact) plus the number of successful
// rule firings deriving it — the immediate-consequence count, which is
// independent of evaluation order, so the exactly-once delta decomposition
// of DeltaVariants computes it for free during materialization and insert
// propagation. Deletions go through DRed: an overdeletion fixpoint marks
// everything whose support might be gone (so the counts of every unmarked
// tuple are untouched by construction), the marked rows are killed, and a
// rederivation fixpoint revives marked tuples that still have support from
// the surviving model, recomputing their counts exactly.
//
// Newly-live tuples always occupy freshly appended rows (rebirth appends
// and repoints, see relation.InsertDelta), so "the tuples that became live
// since row watermark w" is exactly the row range [w, NumRows) filtered by
// liveness — maintenance reuses Plan.Enumerate and DeltaVariants verbatim.

// base-support bits, stored per physical row in IVM.sup.
const (
	supEDB  uint8 = 1 << 0 // present in the (mutable) EDB input
	supFact uint8 = 1 << 1 // program fact; permanent, Apply cannot remove it
)

func supCount(bits uint8) int32 { return int32(bits&1 + bits>>1&1) }

// delPred names the scratch overdeletion relation of pred.
func delPred(pred string) string { return pred + "@del" }

// MaintainStats reports what one Apply did.
type MaintainStats struct {
	// Inserted and Deleted count the net live-set changes (all predicates,
	// base and derived).
	Inserted, Deleted int
	// Overdeleted counts tuples killed by the DRed overdeletion pass;
	// Rederived counts how many of them came back.
	Overdeleted, Rederived int
	// Firings is the maintenance passes' derived work: successful ground
	// substitutions enumerated while propagating the delta — the quantity
	// TestIVMFiringsBeatRefixpoint compares against a from-scratch
	// refixpoint.
	Firings int64
	// Iterations counts semi-naive rounds across all maintenance passes.
	Iterations int
}

// IVM is an incrementally maintained materialization of a program's least
// model. Not safe for concurrent use — the caller (parlog.View) serializes
// Apply against snapshotting.
type IVM struct {
	prog    *ast.Program
	rules   []ast.Rule
	arities map[string]int
	store   relation.Store
	sup     map[string][]uint8 // per-row base-support bits, parallel to rows
	opts    Options

	// countPlans holds, per head predicate, one head-bound plan per rule
	// (compileHeadBound): the derivation counter of rederivation seeding,
	// the exact recount and Audit.
	countPlans map[string][]*Plan
	comps      []component

	delPlans    [][]*Plan // overdeletion variants, per rule: one per body position
	revivePlans [][]*Plan // rederivation delta variants, per rule
}

// NewIVM materializes prog over edb with counting and returns the handle
// plus the materialization's evaluation stats. Negation, constraints and
// naive mode are not supported — maintenance rules must stay plain
// range-restricted Datalog.
func NewIVM(prog *ast.Program, edb relation.Store, opts Options) (*IVM, *Stats, error) {
	if opts.Naive {
		return nil, nil, fmt.Errorf("seminaive: naive iteration does not support incremental maintenance")
	}
	if err := analysis.CheckSafety(prog); err != nil {
		return nil, nil, err
	}
	if analysis.HasNegation(prog) {
		return nil, nil, fmt.Errorf("seminaive: incremental maintenance does not support negation")
	}
	rules, facts := prog.FactTuples()
	for _, r := range rules {
		if len(r.Constraints) > 0 {
			return nil, nil, fmt.Errorf("seminaive: incremental maintenance does not support constraints")
		}
	}
	arities := prog.Arities()
	for pred, r := range edb {
		if want, ok := arities[pred]; ok && r.Arity() != want {
			return nil, nil, fmt.Errorf("seminaive: EDB relation %s has arity %d, program uses %d", pred, r.Arity(), want)
		}
		if _, ok := arities[pred]; !ok {
			arities[pred] = r.Arity()
		}
	}

	m := &IVM{
		prog:       prog,
		rules:      rules,
		arities:    arities,
		store:      relation.Store{},
		sup:        map[string][]uint8{},
		opts:       opts,
		countPlans: map[string][]*Plan{},
	}
	for pred, ar := range arities {
		rel := relation.New(ar)
		rel.EnableCounts(0)
		m.store[pred] = rel
	}
	for _, r := range rules {
		m.countPlans[r.Head.Pred] = append(m.countPlans[r.Head.Pred], compileHeadBound(r))
	}

	// Base supports: the EDB input and the program's facts.
	for pred, rel := range edb {
		for _, t := range rel.Rows() {
			m.addSupport(pred, t, supEDB)
		}
	}
	for pred, tuples := range facts {
		for _, t := range tuples {
			m.addSupport(pred, t, supFact)
		}
	}

	m.comps = components(prog, rules)

	// Overdeletion variants: p@del :- a1, …, ai@del, …, ak — one per body
	// position, delta on the @del atom, every other atom reading the full
	// pre-deletion extent. Set semantics, so delta exactness is not
	// needed; compiled once, reused by every Apply.
	m.delPlans = make([][]*Plan, len(rules))
	for ri, r := range rules {
		for i := range r.Body {
			dr := ast.Rule{Head: r.Head.Clone(), Body: make([]ast.Atom, len(r.Body))}
			dr.Head.Pred = delPred(r.Head.Pred)
			for j, a := range r.Body {
				dr.Body[j] = a.Clone()
			}
			dr.Body[i].Pred = delPred(dr.Body[i].Pred)
			ranges := make([]RangeKind, len(dr.Body))
			ranges[i] = RangeDelta
			m.delPlans[ri] = append(m.delPlans[ri], Compile(dr, ranges))
		}
	}
	// Rederivation variants: delta on every body position (revived tuples
	// can sit anywhere in a body).
	m.revivePlans = make([][]*Plan, len(rules))
	for ri, r := range rules {
		all := make([]int, len(r.Body))
		for i := range all {
			all[i] = i
		}
		m.revivePlans[ri] = DeltaVariants(r, all)
	}

	stats, err := m.materialize()
	if err != nil {
		return nil, nil, err
	}
	return m, stats, nil
}

// Store returns the live counted store. Callers must treat it as read-only;
// snapshot readers should use SnapshotStore.
func (m *IVM) Store() relation.Store { return m.store }

// SnapshotStore pins every relation's live extent (relation.Pin): an
// immutable store over the writer's arenas that copies one liveness bit
// per row and hashes nothing.
func (m *IVM) SnapshotStore() relation.Store { return m.pin(nil) }

// SnapshotEDB pins the base relations only, what durable compaction
// persists.
func (m *IVM) SnapshotEDB() relation.Store { return m.pin(m.IsEDB) }

// pin pins the relations keep accepts, or all of them when keep is nil.
func (m *IVM) pin(keep func(pred string) bool) relation.Store {
	out := make(relation.Store, len(m.store))
	for pred, rel := range m.store {
		if keep == nil || keep(pred) {
			out[pred] = rel.Pin()
		}
	}
	return out
}

// IsEDB reports whether pred is a base predicate (never a rule head) —
// the only predicates Apply accepts deltas for.
func (m *IVM) IsEDB(pred string) bool {
	_, ok := m.store[pred]
	return ok && len(m.countPlans[pred]) == 0
}

// Arity returns pred's arity, or -1 if unknown.
func (m *IVM) Arity(pred string) int {
	if ar, ok := m.arities[pred]; ok {
		return ar
	}
	return -1
}

// addSupport adds one base-support bit to t, inserting it if needed.
// Adding a bit the tuple already has is a no-op (set semantics per kind).
func (m *IVM) addSupport(pred string, t relation.Tuple, bit uint8) bool {
	rel := m.store[pred]
	row := rel.LookupRow(t)
	if row >= 0 && rel.Alive(row) {
		if m.sup[pred][row]&bit != 0 {
			return false
		}
		m.sup[pred][row] |= bit
		rel.AddDelta(row, 1)
		return true
	}
	row, _ = rel.InsertDelta(t, 1)
	m.pad(pred)
	m.sup[pred][row] = bit
	return true
}

// pad grows pred's support column to the relation's physical length.
func (m *IVM) pad(pred string) {
	rel := m.store[pred]
	s := m.sup[pred]
	for len(s) < rel.NumRows() {
		s = append(s, 0)
	}
	m.sup[pred] = s
}

// fixpoint returns a counted-mode loop over the live store under the
// options' iteration bound and context.
func (m *IVM) fixpoint(store relation.Store) *Fixpoint {
	return &Fixpoint{Store: store, MaxIterations: m.opts.MaxIterations, Ctx: m.opts.Ctx}
}

// drain runs f's passes, charges their iterations and firings to st and
// returns the new tuples.
func drain(f *Fixpoint, st *MaintainStats) (int64, error) {
	err := f.Drain()
	firings, fresh := f.Totals()
	st.Iterations += f.Iterations
	st.Firings += firings
	return fresh, err
}

// count returns the absorb function of counted mode for pred: every firing
// adds one to its head tuple's count, and the tuple is new when it was not
// live before.
func (m *IVM) count(pred string) func(relation.Tuple) bool {
	rel := m.store[pred]
	return func(t relation.Tuple) bool {
		_, fresh := rel.InsertDelta(t, 1)
		return fresh
	}
}

// padAll grows every support column to its relation's physical length.
func (m *IVM) padAll() {
	for pred := range m.store {
		m.pad(pred)
	}
}

// materialize runs the initial counted fixpoint, component by component,
// so every successful firing increments its head's count.
func (m *IVM) materialize() (*Stats, error) {
	stats := newStats()
	defer m.padAll()
	for _, c := range m.comps {
		if len(c.rules) == 0 {
			continue
		}
		f := c.fixpoint(m.store, m.opts, m.count)
		f.Init()
		err := f.Drain()
		f.addTo(stats)
		if err != nil {
			return nil, err
		}
	}
	return stats, nil
}

// Apply absorbs one batch of EDB deletes and inserts (deletes first) and
// restores the counting invariant for every live tuple. Both maps are
// per-predicate tuple lists; predicates must be base (IsEDB). Deleting an
// absent tuple or inserting a present one is a no-op.
func (m *IVM) Apply(deletes, inserts map[string][]relation.Tuple) (*MaintainStats, error) {
	st := &MaintainStats{}
	for pred, ts := range deletes {
		if !m.IsEDB(pred) {
			return nil, fmt.Errorf("seminaive: cannot delete from %q: not a base (EDB) predicate", pred)
		}
		for _, t := range ts {
			if len(t) != m.store[pred].Arity() {
				return nil, fmt.Errorf("seminaive: delete %s: arity %d, want %d", pred, len(t), m.store[pred].Arity())
			}
		}
	}
	for pred, ts := range inserts {
		if !m.IsEDB(pred) {
			return nil, fmt.Errorf("seminaive: cannot insert into %q: not a base (EDB) predicate", pred)
		}
		for _, t := range ts {
			if len(t) != m.store[pred].Arity() {
				return nil, fmt.Errorf("seminaive: insert %s: arity %d, want %d", pred, len(t), m.store[pred].Arity())
			}
		}
	}
	if err := m.applyDeletes(deletes, st); err != nil {
		return nil, err
	}
	if err := m.applyInserts(inserts, st); err != nil {
		return nil, err
	}
	return st, nil
}

// applyDeletes runs DRed: seed the overdeletion with the EDB tuples whose
// last support is being removed, propagate the overdeletion to a fixpoint
// over the pre-deletion extent, kill every marked row, then revive marked
// tuples that still have support and recompute their counts exactly.
func (m *IVM) applyDeletes(deletes map[string][]relation.Tuple, st *MaintainStats) error {
	type markedTuple struct {
		pred  string
		tuple relation.Tuple
		bits  uint8
	}
	var marked []markedTuple
	markedBits := map[string]map[string]uint8{} // pred → tuple key → bits

	mark := func(pred string, t relation.Tuple, bits uint8) {
		marked = append(marked, markedTuple{pred, t, bits})
		mb := markedBits[pred]
		if mb == nil {
			mb = map[string]uint8{}
			markedBits[pred] = mb
		}
		mb[t.Key()] = bits
	}

	// Seed: remove the EDB support bit; a tuple whose only support it was
	// enters the overdeletion set. Seeds are NOT killed yet — the
	// overdeletion fixpoint must run over the full pre-deletion extent, or
	// a firing joining two dying tuples would be invisible to every delta
	// variant.
	delStore := relation.Store{}
	seeded := false
	for pred, ts := range deletes {
		rel := m.store[pred]
		for _, t := range ts {
			row := rel.LookupRow(t)
			if row < 0 || !rel.Alive(row) || m.sup[pred][row]&supEDB == 0 {
				continue
			}
			m.sup[pred][row] &^= supEDB
			if rel.CountOf(row) == 1 {
				// Its one support is gone (an EDB predicate has no rule
				// derivations; a fact bit would make the count 2): mark,
				// defer the kill.
				mark(pred, t.Clone(), m.sup[pred][row])
				delStore.Get(delPred(pred), rel.Arity()).Insert(t)
				seeded = true
			} else {
				rel.AddDelta(row, -1)
			}
		}
	}
	if !seeded {
		return nil
	}

	// Overdelete fixpoint over the combined store: real relations keep
	// their full pre-deletion extents (marked rows are not killed until
	// after the fixpoint), @del relations grow semi-naively. Real preds get
	// no watermark entries, so RangeFull positions read their full extents.
	combined := make(relation.Store, 2*len(m.store))
	over := m.fixpoint(combined)
	for p, r := range m.store {
		combined[p] = r
		combined[delPred(p)] = delStore.Get(delPred(p), r.Arity())
		over.Watch(delPred(p), 0)
	}
	for ri, r := range m.rules {
		head := r.Head.Pred
		rel, dRel := m.store[head], combined[delPred(head)]
		over.Rules = append(over.Rules, FixRule{Head: delPred(head), Plans: m.delPlans[ri], Absorb: func(t relation.Tuple) bool {
			if !dRel.Insert(t) {
				return false
			}
			// Every overdeleted tuple is derivable from tuples in the
			// pre-deletion model, hence present and alive.
			mark(head, t.Clone(), m.sup[head][rel.LookupRow(t)])
			return true
		}})
	}
	if _, err := drain(over, st); err != nil {
		return err
	}

	// Kill every marked row (seeds included).
	for _, mk := range marked {
		rel := m.store[mk.pred]
		row := rel.LookupRow(mk.tuple)
		rel.AddDelta(row, -rel.CountOf(row))
		m.sup[mk.pred][row] = 0
		st.Overdeleted++
	}

	// Rederive: revive marked tuples that still have base support or a
	// derivation from the surviving model, then propagate revivals to a
	// fixpoint. Revivals append fresh rows, so real-predicate watermarks
	// delimit each round's delta.
	red := m.fixpoint(m.store)
	for pred, rel := range m.store {
		red.Watch(pred, rel.NumRows())
	}
	type revivedTuple struct {
		pred  string
		tuple relation.Tuple
		row   int
		bits  uint8
	}
	var revived []revivedTuple
	revive := func(pred string, t relation.Tuple, bits uint8) {
		rel := m.store[pred]
		row, _ := rel.InsertDelta(t, 1) // placeholder count; fixed in recount
		m.pad(pred)
		m.sup[pred][row] = bits
		revived = append(revived, revivedTuple{pred, t, row, bits})
		st.Rederived++
	}
	for _, mk := range marked {
		rel := m.store[mk.pred]
		if rel.Alive(rel.LookupRow(mk.tuple)) {
			continue // already revived (duplicate mark entry)
		}
		if supCount(mk.bits) > 0 || m.countDerivations(mk.pred, mk.tuple, true, st) > 0 {
			revive(mk.pred, mk.tuple, mk.bits)
		}
	}
	for ri, r := range m.rules {
		head := r.Head.Pred
		rel := m.store[head]
		red.Rules = append(red.Rules, FixRule{Head: head, Plans: m.revivePlans[ri], Absorb: func(t relation.Tuple) bool {
			row := rel.LookupRow(t)
			if row < 0 || rel.Alive(row) {
				return false
			}
			// Dead-but-canonical: it was marked this Apply (dead rows from
			// earlier Applies have no derivations over the live extent, by
			// the counting invariant). Revive it with its recorded support
			// bits.
			revive(head, t.Clone(), markedBits[head][t.Key()])
			return true
		}})
	}
	if _, err := drain(red, st); err != nil {
		return err
	}

	// Exact recount over the final extent: a revived tuple's count is its
	// base supports plus its surviving derivations.
	for _, rv := range revived {
		c := supCount(rv.bits) + m.countDerivations(rv.pred, rv.tuple, false, st)
		m.store[rv.pred].SetCount(rv.row, c)
	}
	st.Deleted += st.Overdeleted - st.Rederived
	return nil
}

// countDerivations counts the successful ground substitutions of rules with
// head pred deriving exactly t, over the current live extent, by running
// each rule's head-bound plan with the head variables taken from t. With
// earlyExit it stops at the first one (the existence check the
// rederivation seed needs). The firings are charged to st as maintenance
// work.
func (m *IVM) countDerivations(pred string, t relation.Tuple, earlyExit bool, st *MaintainStats) int32 {
	var total int64
	for _, p := range m.countPlans[pred] {
		var c Cursor
		c.open(p, m.store, nil)
		if !p.bindHead(t, c.vals) {
			continue
		}
		for c.Next() {
			if earlyExit {
				break
			}
		}
		st.Firings += c.fired
		total += c.fired
		if earlyExit && total > 0 {
			break
		}
	}
	return int32(total)
}

// applyInserts adds EDB support for the batch and propagates the newly-live
// tuples through the rules, component by component, in counted mode.
func (m *IVM) applyInserts(inserts map[string][]relation.Tuple, st *MaintainStats) error {
	baseN := map[string]int{}
	for pred, rel := range m.store {
		baseN[pred] = rel.NumRows()
	}
	changed := false
	for pred, ts := range inserts {
		for _, t := range ts {
			rel := m.store[pred]
			row := rel.LookupRow(t)
			alive := row >= 0 && rel.Alive(row)
			if m.addSupport(pred, t.Clone(), supEDB) && !alive {
				st.Inserted++
				changed = true
			}
		}
	}
	if !changed {
		return nil
	}

	defer m.padAll()
	for _, c := range m.comps {
		// Delta positions: the component's own atoms (they grow during its
		// fixpoint) plus lower atoms whose predicates gained rows this
		// Apply. Every rule with a delta position joins the passes, because
		// a rule fed only by its component's atoms still fires off rows
		// that sibling rules append. A lower predicate's window is one-shot:
		// it does not grow during the fixpoint, so after the first pass its
		// window is empty and its whole extent reads as old.
		f := m.fixpoint(m.store)
		watch := map[string]bool{}
		for _, p := range c.preds {
			watch[p] = true
		}
		for _, r := range c.rules {
			var deltaPos []int
			for j, a := range r.Body {
				if c.in[a.Pred] {
					deltaPos = append(deltaPos, j)
				} else if rel := m.store[a.Pred]; rel != nil && rel.NumRows() > baseN[a.Pred] {
					deltaPos = append(deltaPos, j)
					watch[a.Pred] = true
				}
			}
			if len(deltaPos) > 0 {
				f.Rules = append(f.Rules, FixRule{Head: r.Head.Pred, Plans: DeltaVariants(r, deltaPos), Absorb: m.count(r.Head.Pred)})
			}
		}
		if len(f.Rules) == 0 {
			continue
		}
		for p := range watch {
			f.Watch(p, baseN[p])
		}
		fresh, err := drain(f, st)
		st.Inserted += int(fresh)
		if err != nil {
			return err
		}
	}
	return nil
}

// Audit recomputes every live tuple's count from scratch — base supports
// plus a full goal-directed derivation count — and reports the first
// mismatch. It is the counting invariant's tripwire, meant for tests; cost
// is proportional to the whole model.
func (m *IVM) Audit() error {
	scratch := &MaintainStats{}
	for pred, rel := range m.store {
		for row := 0; row < rel.NumRows(); row++ {
			if !rel.Alive(row) {
				continue
			}
			t := rel.Row(row)
			want := supCount(m.sup[pred][row]) + m.countDerivations(pred, t, false, scratch)
			if got := rel.CountOf(row); got != want {
				return fmt.Errorf("seminaive: count invariant violated: %s%v has count %d, expected %d",
					pred, t, got, want)
			}
		}
	}
	return nil
}
