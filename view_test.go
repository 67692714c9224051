package parlog

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"parlog/internal/randprog"
)

func TestViewBasics(t *testing.T) {
	ctx := context.Background()
	p := MustParse(`
anc(X, Y) :- par(X, Y).
anc(X, Y) :- par(X, Z), anc(Z, Y).
`)
	edb := Store{}
	a, b, c := p.Intern("a"), p.Intern("b"), p.Intern("c")
	edb.Get("par", 2).Insert(Tuple{a, b})
	edb.Get("par", 2).Insert(Tuple{b, c})

	view, err := Open(ctx, p, edb, EvalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer view.Close()
	if view.Epoch() != 0 {
		t.Errorf("fresh view epoch = %d", view.Epoch())
	}
	snap0, err := view.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if got := snap0.Store()["anc"].Len(); got != 3 {
		t.Errorf("initial anc size %d, want 3", got)
	}
	again, err := view.Snapshot()
	if err != nil || again != snap0 {
		t.Errorf("snapshot not cached per epoch: %v %v", again, err)
	}

	// Extend the chain; the old snapshot must not move.
	d := p.Intern("d")
	st, err := view.Apply(Delta{Insert: map[string][]Tuple{"par": {{c, d}}}})
	if err != nil {
		t.Fatal(err)
	}
	if st.Inserted == 0 || st.Deleted != 0 {
		t.Errorf("insert stats: %+v", st)
	}
	if view.Epoch() != 1 {
		t.Errorf("epoch after apply = %d", view.Epoch())
	}
	snap1, err := view.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if snap1 == snap0 {
		t.Error("snapshot cache not invalidated by Apply")
	}
	if got := snap0.Store()["anc"].Len(); got != 3 {
		t.Errorf("old snapshot moved: anc size %d", got)
	}
	if got := snap1.Store()["anc"].Len(); got != 6 {
		t.Errorf("new snapshot anc size %d, want 6", got)
	}

	// Delete the middle edge; the cascade must shrink the closure.
	if _, err := view.Apply(Delta{Delete: map[string][]Tuple{"par": {{b, c}}}}); err != nil {
		t.Fatal(err)
	}
	snap2, err := view.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if got := snap2.Store()["anc"].Len(); got != 2 {
		t.Errorf("after delete anc size %d, want 2 (a->b, c->d)", got)
	}

	// Deltas over derived or unknown predicates are rejected; the view
	// stays usable.
	if _, err := view.Apply(Delta{Insert: map[string][]Tuple{"anc": {{a, c}}}}); err == nil {
		t.Error("insert into derived predicate accepted")
	}
	if _, err := view.Apply(Delta{Insert: map[string][]Tuple{"par": {{a}}}}); err == nil {
		t.Error("wrong-arity delta accepted")
	}
	if _, err := view.Snapshot(); err != nil {
		t.Errorf("view unusable after rejected delta: %v", err)
	}

	if err := view.Close(); err != nil {
		t.Fatal(err)
	}
	if err := view.Close(); err != nil {
		t.Errorf("Close not idempotent: %v", err)
	}
	if _, err := view.Apply(Delta{}); !errors.Is(err, ErrViewClosed) {
		t.Errorf("Apply after Close: %v", err)
	}
	if _, err := view.Snapshot(); !errors.Is(err, ErrViewClosed) {
		t.Errorf("Snapshot after Close: %v", err)
	}
	// Snapshots taken before Close stay valid.
	if got := snap2.Store()["anc"].Len(); got != 2 {
		t.Errorf("snapshot invalidated by Close: %d", got)
	}
}

func TestOpenRejectsUnsupported(t *testing.T) {
	ctx := context.Background()
	p := MustParse(`anc(X, Y) :- par(X, Y).`)
	for _, tc := range []struct {
		name string
		opts EvalOptions
	}{
		{"parallel engine", EvalOptions{Engine: EngineParallel, Workers: 2}},
		{"distributed engine", EvalOptions{Engine: EngineDistributed, Workers: 2}},
		{"naive", EvalOptions{Naive: true}},
		{"invalid options", EvalOptions{Workers: -1}},
	} {
		if _, err := Open(ctx, p, nil, tc.opts); err == nil {
			t.Errorf("%s accepted by Open", tc.name)
		} else if !errors.Is(err, ErrBadOptions) {
			t.Errorf("%s: error %v not ErrBadOptions", tc.name, err)
		}
	}
	neg := MustParse(`
unreach(X) :- node(X), !reach(X).
reach(X) :- edge(a, X).
`)
	if _, err := Open(ctx, neg, nil, EvalOptions{}); err == nil {
		t.Error("negation accepted by Open")
	}
}

// TestViewConcurrentReaders races snapshot queries against a writer
// applying deltas — the tentpole's no-blocking claim, checked under
// -race.
func TestViewConcurrentReaders(t *testing.T) {
	ctx := context.Background()
	p := MustParse(`
anc(X, Y) :- par(X, Y).
anc(X, Y) :- par(X, Z), anc(Z, Y).
`)
	edb := Store{}
	consts := make([]Value, 20)
	for i := range consts {
		consts[i] = p.Intern(fmt.Sprintf("n%d", i))
	}
	for i := 0; i+1 < len(consts); i++ {
		edb.Get("par", 2).Insert(Tuple{consts[i], consts[i+1]})
	}
	view, err := Open(ctx, p, edb, EvalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer view.Close()

	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; i < 30; i++ {
				snap, err := view.Snapshot()
				if err != nil {
					t.Errorf("reader %d: %v", r, err)
					return
				}
				qr, err := snap.Query(ctx, "anc(n0, X)")
				if err != nil {
					t.Errorf("reader %d: %v", r, err)
					return
				}
				if n := len(qr.All()); n == 0 {
					t.Errorf("reader %d: no answers at epoch %d", r, snap.Epoch())
					return
				}
				// The relations themselves are shared by every reader of
				// the epoch: the first Contains builds the dedup table.
				anc := snap.Store()["anc"]
				rows := anc.Rows()
				if len(rows) != anc.Len() || !anc.Contains(Tuple{consts[0], consts[1]}) {
					t.Errorf("reader %d: %d rows of %d, anc(n0, n1) %v", r, len(rows), anc.Len(), anc.Contains(Tuple{consts[0], consts[1]}))
					return
				}
				for _, tu := range rows {
					if !anc.Contains(tu) {
						t.Errorf("reader %d: anc lists %v but does not contain it", r, tu)
						return
					}
				}
			}
		}(r)
	}
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 30; i++ {
		a := consts[rng.Intn(10)]
		b := consts[10+rng.Intn(10)]
		if _, err := view.Apply(Delta{Insert: map[string][]Tuple{"par": {{a, b}}}}); err != nil {
			t.Fatal(err)
		}
		if _, err := view.Apply(Delta{Delete: map[string][]Tuple{"par": {{a, b}}}}); err != nil {
			t.Fatal(err)
		}
	}
	wg.Wait()
}

// TestSnapshotHeldAcrossApplies takes a snapshot of the ancestor view of
// tree(3,4) and then applies 1,000 random single-edge inserts and deletes,
// so rows die, are reborn on fresh rows and are appended past the pin in
// the writer's arena. The snapshot must still answer every goal
// anc(c, X) and anc(X, c), and hold the same anc rows, as when it was
// taken.
func TestSnapshotHeldAcrossApplies(t *testing.T) {
	ctx := context.Background()
	p, edb, _, _ := treeCase(t, allocAncestor, 3, 4, 0)
	nodes := edb["par"].Len() + 1
	node := func(i int) Value { return p.Intern(fmt.Sprintf("n%d", i)) }
	v, err := Open(ctx, p, edb, EvalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer v.Close()
	// One Apply first, so the pinned arena already holds a dead row.
	if _, err := v.Apply(*NewDelta().Remove("par", Tuple{node(0), node(1)})); err != nil {
		t.Fatal(err)
	}
	snap, err := v.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	answers := func() []string {
		var out []string
		for c := 0; c < nodes; c++ {
			for _, goal := range []string{"anc(n%d, X)", "anc(X, n%d)"} {
				goal := fmt.Sprintf(goal, c)
				qr, err := snap.Query(ctx, goal)
				if err != nil {
					t.Fatal(err)
				}
				out = append(out, fmt.Sprint(goal, qr.All()))
			}
		}
		return append(out, snap.Store()["anc"].String())
	}
	want := answers()

	rng := rand.New(rand.NewSource(11))
	var added []Tuple
	for i := 0; i < 1000; i++ {
		d := NewDelta()
		switch k := rng.Intn(3); {
		case k == 0 && len(added) > 0:
			j := rng.Intn(len(added))
			d.Remove("par", added[j])
			added = append(added[:j], added[j+1:]...)
		case k == 1:
			c := 1 + rng.Intn(nodes-1)
			d.Remove("par", Tuple{node((c - 1) / 3), node(c)})
		default:
			tu := Tuple{node(rng.Intn(nodes)), node(rng.Intn(nodes))}
			d.Add("par", tu)
			added = append(added, tu)
		}
		if _, err := v.Apply(*d); err != nil {
			t.Fatal(err)
		}
	}
	if v.Epoch() != 1001 {
		t.Fatalf("epoch %d after 1,001 Applies", v.Epoch())
	}
	got := answers()
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("after 1,000 Applies the snapshot answers %s, it answered %s", got[i], want[i])
		}
	}
}

// TestSnapshotStoreAsEDB evaluates a program over a snapshot's base
// relation, which holds dead rows after deletes, on every engine: each must
// read only its live rows and derive the snapshot's own anc.
func TestSnapshotStoreAsEDB(t *testing.T) {
	ctx := context.Background()
	p, edb, ins, del := treeCase(t, allocAncestor, 3, 3, 6)
	v, err := Open(ctx, p, edb, EvalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer v.Close()
	if _, err := v.ApplyBatch(ins...); err != nil {
		t.Fatal(err)
	}
	if _, err := v.ApplyBatch(del[:4]...); err != nil {
		t.Fatal(err)
	}
	snap, err := v.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	par := snap.Store()["par"]
	if par.NumRows() == par.Len() {
		t.Fatal("the snapshot's par holds no dead row")
	}
	for _, opts := range []EvalOptions{{}, {Engine: EngineParallel, Workers: 2}, {Engine: EngineDistributed, Workers: 2}} {
		res, err := Eval(ctx, p, Store{"par": par}, opts)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := res.Output["anc"], snap.Store()["anc"]; !got.Equal(want) {
			t.Errorf("engine %d over the snapshot's par: %d anc tuples, the snapshot holds %d", opts.Engine, got.Len(), want.Len())
		}
	}
}

// TestViewRandomProgramsDifferential is the tentpole's correctness pin:
// over 50 random recursive programs, the incrementally maintained model
// must equal a from-scratch evaluation after every one of several random
// insert/delete batches.
func TestViewRandomProgramsDifferential(t *testing.T) {
	ctx := context.Background()
	cfg := randprog.Defaults()
	for seed := int64(0); seed < 50; seed++ {
		g := randprog.Generate(cfg, seed)
		p, err := Parse(g.Prog.String())
		if err != nil {
			t.Fatalf("seed %d: generated program does not parse: %v\n%s", seed, err, g.Prog)
		}
		// The generator interns constants in its own order; rebuild the EDB
		// under the re-parsed program's interner.
		edb := Store{}
		live := map[string]map[string]Tuple{}
		for pred, rel := range g.EDB {
			dst := edb.Get(pred, rel.Arity())
			live[pred] = map[string]Tuple{}
			for _, tu := range rel.Rows() {
				nt := make(Tuple, len(tu))
				for i, v := range tu {
					nt[i] = p.Intern(g.Prog.Interner.Name(v))
				}
				dst.Insert(nt)
				live[pred][fmt.Sprint(nt)] = nt
			}
		}
		consts := make([]Value, 6)
		for i := range consts {
			consts[i] = p.Intern(fmt.Sprintf("c%d", i))
		}
		preds := make([]string, 0, len(live))
		for pred := range live {
			preds = append(preds, pred)
		}

		view, err := Open(ctx, p, edb, EvalOptions{})
		if err != nil {
			t.Fatalf("seed %d: Open: %v\n%s", seed, err, g.Prog)
		}

		rng := rand.New(rand.NewSource(seed*7919 + 1))
		randTuple := func(pred string) Tuple {
			tu := make(Tuple, g.Arities[pred])
			for i := range tu {
				tu[i] = consts[rng.Intn(len(consts))]
			}
			return tu
		}
		for batch := 0; batch < 4; batch++ {
			d := NewDelta()
			for n := rng.Intn(4); n > 0; n-- {
				pred := preds[rng.Intn(len(preds))]
				var tu Tuple
				if len(live[pred]) > 0 && rng.Intn(4) > 0 {
					// Delete a live tuple; occasionally an absent one
					// (must be a no-op).
					for _, v := range live[pred] {
						tu = v
						break
					}
				} else {
					tu = randTuple(pred)
				}
				d.Remove(pred, tu)
				delete(live[pred], fmt.Sprint(tu))
			}
			for n := rng.Intn(4); n > 0; n-- {
				pred := preds[rng.Intn(len(preds))]
				tu := randTuple(pred)
				d.Add(pred, tu)
				live[pred][fmt.Sprint(tu)] = tu
			}
			if _, err := view.Apply(*d); err != nil {
				t.Fatalf("seed %d batch %d: Apply: %v\n%s", seed, batch, err, g.Prog)
			}

			// From-scratch reference over the mutated EDB.
			ref := Store{}
			for pred, rows := range live {
				dst := ref.Get(pred, g.Arities[pred])
				for _, tu := range rows {
					dst.Insert(tu)
				}
			}
			want, err := Eval(ctx, p, ref, EvalOptions{})
			if err != nil {
				t.Fatalf("seed %d batch %d: Eval: %v\n%s", seed, batch, err, g.Prog)
			}
			snap, err := view.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			for _, pred := range append(p.IDB(), preds...) {
				a, b := want.Output[pred], snap.Store()[pred]
				aEmpty := a == nil || a.Len() == 0
				bEmpty := b == nil || b.Len() == 0
				if aEmpty && bEmpty {
					continue
				}
				if aEmpty != bEmpty || !a.Equal(b) {
					t.Fatalf("seed %d batch %d: %s differs between maintained view and from-scratch eval\n%s",
						seed, batch, pred, g.Prog)
				}
			}
		}
		view.Close()
	}
}

// TestApplyBatchCoalesces pins ApplyBatch's point: N single-tuple inserts
// coalesce into one maintenance fixpoint (one epoch, one Apply's worth of
// iterations) while reaching the exact model of N sequential Applies, and
// a delete of a tuple queued for insertion forces a flush instead of
// silently changing the sequence's meaning.
func TestApplyBatchCoalesces(t *testing.T) {
	ctx := context.Background()
	src := `
anc(X, Y) :- par(X, Y).
anc(X, Y) :- par(X, Z), anc(Z, Y).
`
	const n = 10
	chain := func() (*View, *Program) {
		p := MustParse(src)
		v, err := Open(ctx, p, Store{}, EvalOptions{})
		if err != nil {
			t.Fatal(err)
		}
		return v, p
	}
	edge := func(p *Program, i int) Delta {
		return Delta{Insert: map[string][]Tuple{"par": {{p.Intern(fmt.Sprintf("v%d", i)), p.Intern(fmt.Sprintf("v%d", i+1))}}}}
	}

	// Sequential baseline: one fixpoint per tuple.
	seqView, seqProg := chain()
	defer seqView.Close()
	seqIters := 0
	for i := 0; i < n; i++ {
		st, err := seqView.Apply(edge(seqProg, i))
		if err != nil {
			t.Fatal(err)
		}
		seqIters += st.Iterations
	}
	if seqView.Epoch() != n {
		t.Fatalf("sequential epochs = %d, want %d", seqView.Epoch(), n)
	}

	// Batched: the same deltas coalesce into a single fixpoint.
	batView, batProg := chain()
	defer batView.Close()
	var ds []Delta
	for i := 0; i < n; i++ {
		ds = append(ds, edge(batProg, i))
	}
	st, err := batView.ApplyBatch(ds...)
	if err != nil {
		t.Fatal(err)
	}
	if batView.Epoch() != 1 {
		t.Errorf("batched epochs = %d, want 1 (one coalesced fixpoint)", batView.Epoch())
	}
	if st.Iterations >= seqIters {
		t.Errorf("batched iterations = %d, want fewer than sequential %d", st.Iterations, seqIters)
	}

	seqSnap, _ := seqView.Snapshot()
	batSnap, _ := batView.Snapshot()
	if sq, bt := seqSnap.Store()["anc"].Len(), batSnap.Store()["anc"].Len(); sq != bt || sq != n*(n+1)/2 {
		t.Errorf("models disagree: sequential anc=%d batched anc=%d want %d", sq, bt, n*(n+1)/2)
	}

	// insert(x) ; delete(x) must flush: the sequence leaves x absent,
	// which a single deletes-before-inserts batch would invert.
	cView, cProg := chain()
	defer cView.Close()
	x, y := cProg.Intern("x"), cProg.Intern("y")
	if _, err := cView.ApplyBatch(
		Delta{Insert: map[string][]Tuple{"par": {{x, y}}}},
		Delta{Delete: map[string][]Tuple{"par": {{x, y}}}},
	); err != nil {
		t.Fatal(err)
	}
	if cView.Epoch() != 2 {
		t.Errorf("conflicting deltas coalesced: epochs = %d, want 2", cView.Epoch())
	}
	cSnap, _ := cView.Snapshot()
	if got := cSnap.Store()["anc"].Len(); got != 0 {
		t.Errorf("insert;delete left anc=%d, want 0", got)
	}
}
