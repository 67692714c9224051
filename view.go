package parlog

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"parlog/internal/ast"
	"parlog/internal/obs"
	"parlog/internal/parser"
	"parlog/internal/seminaive"
)

// ErrViewClosed reports an operation on a View after Close.
var ErrViewClosed = errors.New("parlog: view is closed")

// Delta is one batch of EDB changes for View.Apply: tuples to insert into
// and delete from base relations, keyed by predicate. Deletes are applied
// before inserts, so a tuple appearing in both ends up present. Inserting a
// present tuple or deleting an absent one is a no-op.
type Delta struct {
	Insert map[string][]Tuple
	Delete map[string][]Tuple
}

// NewDelta returns an empty delta ready for Add/Remove chaining.
func NewDelta() *Delta {
	return &Delta{Insert: map[string][]Tuple{}, Delete: map[string][]Tuple{}}
}

// Add queues an insert.
func (d *Delta) Add(pred string, t Tuple) *Delta {
	d.Insert[pred] = append(d.Insert[pred], t)
	return d
}

// Remove queues a delete.
func (d *Delta) Remove(pred string, t Tuple) *Delta {
	d.Delete[pred] = append(d.Delete[pred], t)
	return d
}

func (d Delta) size() (ins, del int) {
	for _, ts := range d.Insert {
		ins += len(ts)
	}
	for _, ts := range d.Delete {
		del += len(ts)
	}
	return
}

// ApplyStats reports what one maintenance batch did.
type ApplyStats struct {
	// Inserted and Deleted count net live-set changes across all
	// predicates, base and derived.
	Inserted, Deleted int
	// Overdeleted counts tuples the DRed overdeletion pass killed;
	// Rederived counts how many of them the rederivation pass revived.
	Overdeleted, Rederived int
	// Firings is the maintenance passes' derived work: successful ground
	// substitutions enumerated while propagating the delta. Compare with
	// SeqStats.Firings of a from-scratch evaluation to see the incremental
	// saving (internal/seminaive's TestIVMFiringsBeatRefixpoint checks it).
	Firings int64
	// Iterations counts semi-naive rounds across the maintenance passes.
	Iterations int
	// Wall is the batch's maintenance time.
	Wall time.Duration
}

// View is an incrementally maintained materialization of a program's least
// model over a mutable EDB — the long-lived counterpart of Eval. Apply
// absorbs EDB deltas with counting-based maintenance (DRed overdeletion
// plus rederivation for deletes), far cheaper than refixpointing when
// deltas are small; Snapshot publishes immutable views that concurrent
// readers query while the writer keeps applying.
//
// A View serializes its own writes; Apply and Snapshot may be called from
// any goroutine. Snapshots are valid forever (they pin their rows) and
// never observe later Applies.
type View struct {
	mu   sync.Mutex
	prog *Program
	opts EvalOptions
	ivm  *seminaive.IVM
	tel  *telemetry
	dur  *durability // nil unless opened with EvalOptions.Dir

	epoch  uint64
	cached *Snapshot
	closed bool
}

// Open materializes prog over edb (which may be nil) and returns a live,
// incrementally maintained view of its least model. The maintenance engine
// is sequential counting/DRed; programs
// with negation or constraints are rejected, as are non-sequential engines
// — parallel refixpointing and incremental maintenance do not compose yet
// (run Eval for one-shot parallel evaluation). Telemetry options work as in
// Eval, with the endpoint staying up until Close: set opts.MetricsAddr to
// scrape parlog_ivm_* instruments for the view's lifetime.
func Open(ctx context.Context, p *Program, edb Store, opts EvalOptions) (*View, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	if opts.Engine != EngineSequential {
		return nil, badOptions("Open maintains its view on the sequential engine; use Eval for one-shot parallel runs")
	}
	if opts.Naive {
		return nil, badOptions("Naive iteration does not support incremental maintenance")
	}
	opts.fill()
	if edb == nil {
		edb = Store{}
	}
	tel, err := buildTelemetry(&opts)
	if err != nil {
		return nil, err
	}
	var dur *durability
	epoch := uint64(0)
	if opts.Dir != "" {
		// Recover the durable EDB first: the state directory's segment
		// plus surviving WAL records replace (or extend) the edb
		// argument, and one materialization below restores the exact
		// pre-crash model.
		d, rec, derr := openDurability(p, edb, &opts, tel.sink)
		if derr != nil {
			tel.abort()
			return nil, derr
		}
		dur, edb, epoch = d, rec.edb, rec.epoch
	}
	ivm, _, err := seminaive.NewIVM(p.ast, edb, seminaive.Options{
		MaxIterations: opts.MaxIterations,
		Ctx:           ctx,
	})
	if err != nil {
		if dur != nil {
			dur.dir.Close()
		}
		tel.abort()
		return nil, fmt.Errorf("parlog: %w", err)
	}
	return &View{prog: p, opts: opts, ivm: ivm, tel: tel, dur: dur, epoch: epoch}, nil
}

// Epoch returns the view's version: 0 after Open, incremented by every
// successful non-empty Apply.
func (v *View) Epoch() uint64 {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.epoch
}

// Apply absorbs one batch of EDB changes (deletes before inserts) and
// incrementally restores the materialized model. Only base (EDB) predicates
// may appear in the delta. On error the view is unchanged and stays usable.
//
// A durable view (EvalOptions.Dir) write-ahead-logs the batch before
// maintenance runs, so an acknowledged Apply survives a crash under the
// fsync policy in force. If maintenance fails after its batch was logged
// — a context cancellation or iteration cap mid-maintenance — the batch
// is disowned on disk and the view is poisoned (further Applies fail);
// re-Open recovers the last acknowledged state. A failed durable write
// also poisons the view: the in-memory model is then ahead of disk and
// must not acknowledge further batches.
func (v *View) Apply(d Delta) (*ApplyStats, error) {
	v.mu.Lock()
	defer v.mu.Unlock()
	if v.closed {
		return nil, ErrViewClosed
	}
	if v.dur != nil {
		if v.dur.err != nil {
			return nil, fmt.Errorf("parlog: view poisoned by durable-write failure: %w", v.dur.err)
		}
		// Validate before logging: a batch the maintenance engine would
		// reject must not enter the WAL at all.
		if err := v.validateDelta(d); err != nil {
			return nil, err
		}
		if err := v.dur.logApply(v.epoch+1, d.Delete, d.Insert); err != nil {
			return nil, fmt.Errorf("parlog: write-ahead log: %w", err)
		}
	}
	ins, del := d.size()
	obs.ApplyStart(v.tel.sink, ins, del)
	start := time.Now()
	st, err := v.ivm.Apply(d.Delete, d.Insert)
	wall := time.Since(start)
	if err != nil {
		obs.ApplyEnd(v.tel.sink, 0, 0, 0, 0, 0, wall, err)
		if v.dur != nil {
			v.dur.abort(v.epoch + 1)
			v.dur.err = fmt.Errorf("maintenance failed after its batch was logged: %w", err)
		}
		return nil, fmt.Errorf("parlog: %w", err)
	}
	obs.ApplyEnd(v.tel.sink, st.Inserted, st.Deleted, st.Overdeleted, st.Rederived, st.Firings, wall, nil)
	v.epoch++
	v.cached = nil
	if v.dur != nil {
		v.dur.epoch = v.epoch
		v.dur.applies++
		if v.dur.applies >= v.dur.opts.CompactEvery {
			if cerr := v.dur.compact(v.edbSnapshot()); cerr != nil {
				// The batch itself is durably logged; only the compaction
				// failed, killing the directory. Fail fast rather than
				// acknowledge batches that can no longer be logged.
				return nil, fmt.Errorf("parlog: compacting state dir: %w", cerr)
			}
		}
	}
	return &ApplyStats{
		Inserted:    st.Inserted,
		Deleted:     st.Deleted,
		Overdeleted: st.Overdeleted,
		Rederived:   st.Rederived,
		Firings:     st.Firings,
		Iterations:  st.Iterations,
		Wall:        wall,
	}, nil
}

// ApplyBatch absorbs a sequence of deltas, coalescing adjacent ones into
// as few maintenance fixpoints as possible. Applying N single-tuple deltas
// one by one pays N counting/DRed passes; coalesced, the common case (a
// stream of inserts, or deletes of unrelated tuples) collapses to one.
//
// Coalescing preserves the sequential semantics exactly: deltas d1 and d2
// merge only when nothing d2 deletes is queued for insertion by d1 —
// otherwise the merged batch (deletes before inserts) would resurrect a
// tuple the sequence kills — and a delta that trips the condition flushes
// the accumulated batch first. Each flushed batch is one Apply: one epoch,
// one write-ahead-log record on a durable view, and concurrent Snapshot
// calls may observe the intermediate epochs. The returned stats aggregate
// all batches, with Iterations summing the semi-naive rounds actually run.
// On error the already-flushed prefix stays applied; the view reports the
// epoch it reached.
func (v *View) ApplyBatch(ds ...Delta) (*ApplyStats, error) {
	total := &ApplyStats{}
	flush := func(d Delta) error {
		if ins, del := d.size(); ins == 0 && del == 0 {
			return nil
		}
		st, err := v.Apply(d)
		if err != nil {
			return err
		}
		total.Inserted += st.Inserted
		total.Deleted += st.Deleted
		total.Overdeleted += st.Overdeleted
		total.Rederived += st.Rederived
		total.Firings += st.Firings
		total.Iterations += st.Iterations
		total.Wall += st.Wall
		return nil
	}

	acc := Delta{Insert: map[string][]Tuple{}, Delete: map[string][]Tuple{}}
	queuedIns := map[string]bool{} // pred|tuple keys of acc's inserts
	for _, d := range ds {
		conflict := false
		for pred, ts := range d.Delete {
			for _, t := range ts {
				if queuedIns[tupleKey(pred, t)] {
					conflict = true
					break
				}
			}
			if conflict {
				break
			}
		}
		if conflict {
			if err := flush(acc); err != nil {
				return total, err
			}
			acc = Delta{Insert: map[string][]Tuple{}, Delete: map[string][]Tuple{}}
			queuedIns = map[string]bool{}
		}
		for pred, ts := range d.Delete {
			acc.Delete[pred] = append(acc.Delete[pred], ts...)
		}
		for pred, ts := range d.Insert {
			acc.Insert[pred] = append(acc.Insert[pred], ts...)
			for _, t := range ts {
				queuedIns[tupleKey(pred, t)] = true
			}
		}
	}
	if err := flush(acc); err != nil {
		return total, err
	}
	return total, nil
}

// tupleKey is a map key identifying one tuple of one predicate, for the
// coalescing conflict check.
func tupleKey(pred string, t Tuple) string {
	return fmt.Sprintf("%s|%v", pred, t)
}

// Snapshot publishes an immutable view of the current model. Snapshots are
// cheap: every relation shares the writer's arena, pinned at its current
// length, and copies only a liveness bitmap, one bit per row; nothing is
// hashed until a read probes it. They are cached per epoch, so repeated
// calls between Applies return the same object and reuse the indexes its
// first queries built. A snapshot remains valid and consistent forever;
// later Applies never show through.
func (v *View) Snapshot() (*Snapshot, error) {
	v.mu.Lock()
	defer v.mu.Unlock()
	if v.closed {
		return nil, ErrViewClosed
	}
	if v.cached == nil {
		store := v.ivm.SnapshotStore()
		v.cached = &Snapshot{
			prog:    v.prog,
			store:   store,
			epoch:   v.epoch,
			profile: v.opts.Profile,
		}
		obs.SnapshotTaken(v.tel.sink, v.epoch, store.TotalTuples())
	}
	return v.cached, nil
}

// validateDelta mirrors the maintenance engine's upfront checks — only
// base predicates, at their declared arity — so a doomed batch is
// rejected before it reaches the write-ahead log.
func (v *View) validateDelta(d Delta) error {
	check := func(m map[string][]Tuple) error {
		for pred, ts := range m {
			if !v.ivm.IsEDB(pred) {
				return fmt.Errorf("parlog: %s is not a base relation", pred)
			}
			ar := v.ivm.Arity(pred)
			for _, t := range ts {
				if ar >= 0 && len(t) != ar {
					return fmt.Errorf("parlog: %s has arity %d, delta tuple has %d", pred, ar, len(t))
				}
			}
		}
		return nil
	}
	if err := check(d.Delete); err != nil {
		return err
	}
	return check(d.Insert)
}

// edbSnapshot pins the current base relations — what compaction
// persists. Callers hold v.mu.
func (v *View) edbSnapshot() Store { return v.ivm.SnapshotEDB() }

// DurabilityStats reports the state directory's extent: the recovered
// epoch plus later Applies, the newest segment's pin, and the WAL length
// a crash right now would replay. Nil for a view opened without Dir.
func (v *View) DurabilityStats() *DurabilityStats {
	v.mu.Lock()
	defer v.mu.Unlock()
	if v.dur == nil {
		return nil
	}
	se, has := v.dur.dir.SegmentEpoch()
	return &DurabilityStats{
		Epoch:        v.epoch,
		SegmentEpoch: se,
		HasSegment:   has,
		WALRecords:   v.dur.dir.WALRecords(),
		WALBytes:     v.dur.dir.WALSize(),
	}
}

// Metrics returns the aggregate telemetry snapshot when Open was given
// opts.Metrics (or a MetricsAddr); nil otherwise. IVM* fields carry the
// maintenance counters.
func (v *View) Metrics() *Metrics {
	v.mu.Lock()
	defer v.mu.Unlock()
	if v.tel.counting == nil {
		return nil
	}
	return v.tel.counting.Snapshot()
}

// Close releases the view: the telemetry endpoint shuts down and further
// Apply/Snapshot calls fail with ErrViewClosed. Existing snapshots stay
// valid. Close is idempotent.
func (v *View) Close() error {
	v.mu.Lock()
	defer v.mu.Unlock()
	if v.closed {
		return nil
	}
	v.closed = true
	var err error
	if v.dur != nil {
		// Clean shutdown: compact so the next Open replays nothing, then
		// mark the log clean. A poisoned directory is just released.
		err = v.dur.close(v.edbSnapshot())
	}
	v.tel.abort()
	return err
}

// Snapshot is an immutable view of a View's model at one epoch, safe for
// concurrent readers. Store exposes the relations directly; Query serves
// goal-directed reads through the rule executor.
type Snapshot struct {
	prog  *Program
	store Store
	epoch uint64
	// profile mirrors the View's Open-time EvalOptions.Profile: snapshot
	// queries then fill QueryResult.Profile with the goal scan's counters.
	profile bool
}

// Epoch returns the view epoch the snapshot pinned.
func (s *Snapshot) Epoch() uint64 { return s.epoch }

// Store returns the snapshot's relations. They are immutable and safe for
// concurrent readers; inserting into one panics.
func (s *Snapshot) Store() Store { return s.store }

// Query matches a goal atom such as "anc(a, X)" against the snapshot and
// returns its answers. The model is already materialized, so no evaluation runs —
// and the live View is never blocked: concurrent Snapshot.Query and
// View.Apply proceed independently. Answers are fully collected before the
// call returns; the QueryResult streams them and honors ctx cancellation
// mid-iteration.
func (s *Snapshot) Query(ctx context.Context, goal string) (*QueryResult, error) {
	atom, known, err := s.prog.resolveGoal(goal)
	if err != nil {
		return nil, err
	}
	qr := &QueryResult{
		Result: &Result{Output: s.store},
		Pred:   atom.Pred,
		ctx:    ctx,
		pre:    []Tuple{},
	}
	if !known {
		// The goal names a constant the program never interned; nothing
		// can match.
		return qr, nil
	}
	rel, ok := s.store[atom.Pred]
	if !ok {
		return qr, nil
	}
	if rel.Arity() != atom.Arity() {
		return nil, fmt.Errorf("parlog: %s has arity %d, goal uses %d", atom.Pred, rel.Arity(), atom.Arity())
	}
	// Materialize the matches eagerly. The scan is index-probe joins over
	// the pinned arena; a pinned relation builds its indexes under its own
	// lock, so concurrent queries share them safely.
	match := ast.Rule{Head: atom.Clone(), Body: []ast.Atom{atom.Clone()}}
	plan := seminaive.Compile(match, nil)
	var rp *seminaive.RuleProfile
	var t0 time.Time
	if s.profile {
		plan.EnableProfile()
		qr.Result.Profile = &Profile{Engine: "snapshot"}
		rp = qr.Result.Profile.Rule(seminaive.ProfileKey(s.prog.ast, match), atom.Pred)
		t0 = time.Now()
	}
	cur := plan.Stream(s.store, nil)
	for cur.Next() {
		qr.pre = append(qr.pre, cur.Head())
	}
	if rp != nil {
		rp.Firings = cur.Fired()
		rp.New = cur.Fired()
		rp.Iterations = 1
		rp.WallNs = time.Since(t0).Nanoseconds()
		plan.ProfileInto(rp)
		qr.Result.Profile.WallNs = rp.WallNs
	}
	return qr, nil
}

// resolveGoal parses a goal atom and maps its constants through the
// program's interner WITHOUT mutating it — the read-only twin of parseGoal,
// safe for concurrent snapshot readers. known is false when a constant was
// never interned (the goal then matches nothing).
func (p *Program) resolveGoal(goal string) (ast.Atom, bool, error) {
	q := trimGoal(goal)
	tmp, err := parser.Parse("qwrap(ok) :- " + q + ".")
	if err != nil {
		return ast.Atom{}, false, fmt.Errorf("parlog: bad goal %q: %w", goal, err)
	}
	rule := tmp.Rules[0]
	if len(rule.Body) != 1 || len(rule.Negated) > 0 {
		return ast.Atom{}, false, fmt.Errorf("parlog: goal must be a single positive atom, got %q", goal)
	}
	atom := rule.Body[0]
	if err := p.checkGoalPred(atom); err != nil {
		return ast.Atom{}, false, err
	}
	for i, term := range atom.Args {
		if term.IsVar() {
			continue
		}
		v, ok := p.ast.Interner.Lookup(tmp.Interner.Name(term.Value))
		if !ok {
			return atom, false, nil
		}
		atom.Args[i] = ast.C(v)
	}
	return atom, true, nil
}
