package seminaive

import (
	"reflect"
	"sort"
	"testing"

	"parlog/internal/ast"
	"parlog/internal/parser"
	"parlog/internal/relation"
)

// mustRule parses a single rule.
func mustRule(t *testing.T, src string) ast.Rule {
	t.Helper()
	p, err := parser.Parse(src)
	if err != nil {
		t.Fatalf("parse %q: %v", src, err)
	}
	return p.Rules[0]
}

func TestDefaultModeOrderUnchanged(t *testing.T) {
	// The join order golden traces depend on: first delta atom, then
	// most-bound with lowest-index ties.
	r := mustRule(t, "h(X, Y) :- e(X, Z), t(Z, Y), e(Y, W).")
	ranges := []RangeKind{RangeFull, RangeDelta, RangeFull}
	p := Compile(r, ranges)
	if want := []int{1, 0, 2}; !reflect.DeepEqual(p.Order, want) {
		t.Fatalf("delta order = %v, want %v", p.Order, want)
	}
	// Without a delta atom the join starts at atom 0, even when a later
	// atom carries a constant.
	c := Compile(mustRule(t, "h(X, Y) :- e(X, Y), e(a, X)."), nil)
	if c.Order[0] != 0 {
		t.Fatalf("start = atom %d, want 0", c.Order[0])
	}
}

// chainStore returns e = the 4-chain 0→1→2→3→4 plus the self-loop 2→2, and
// bad = {(0,1)} for negation.
func chainStore() relation.Store {
	e := relation.New(2)
	for i := 0; i < 4; i++ {
		e.Insert(relation.Tuple{ast.Value(i), ast.Value(i + 1)})
	}
	e.Insert(relation.Tuple{2, 2})
	bad := relation.New(2)
	bad.Insert(relation.Tuple{0, 1})
	return relation.Store{"e": e, "bad": bad}
}

// executorRules are the rule shapes the executor tests run: joins,
// repeated variables in the body and the head, negation, and a head
// constant (value 1).
func executorRules(t *testing.T) []ast.Rule {
	var rules []ast.Rule
	for _, src := range []string{
		"h(X, Y) :- e(X, Y).",
		"h(X, Y) :- e(X, Z), e(Z, Y).",
		"h(X, Y) :- e(X, Z), e(Z, Y), e(Y, W).",
		"h(X, X) :- e(X, X).",
		"h(X, X) :- e(X, Y), e(Y, Z).",
		"h(X, Y) :- e(X, Y), !bad(X, Y).",
		"h(X, Y) :- e(X, Y), e(Y, X).",
	} {
		rules = append(rules, mustRule(t, src))
	}
	hc := mustRule(t, "h(Z, Y) :- e(X, Y), e(Y, Z).")
	hc.Head.Args[0] = ast.C(1)
	return append(rules, hc)
}

// bruteForce enumerates rule the obviously correct way: every combination
// of rows within each atom's range, kept when the bindings unify and no
// negated atom holds. It returns one head tuple per substitution, sorted.
func bruteForce(r ast.Rule, ranges []RangeKind, store relation.Store, w *Watermarks) []relation.Tuple {
	ground := func(a ast.Atom, bind map[string]ast.Value) relation.Tuple {
		t := make(relation.Tuple, len(a.Args))
		for i, term := range a.Args {
			if term.IsVar() {
				t[i] = bind[term.VarName]
			} else {
				t[i] = term.Value
			}
		}
		return t
	}
	var out []relation.Tuple
	var rec func(i int, bind map[string]ast.Value)
	rec = func(i int, bind map[string]ast.Value) {
		if i == len(r.Body) {
			for _, a := range r.Negated {
				if store[a.Pred].Contains(ground(a, bind)) {
					return
				}
			}
			out = append(out, ground(r.Head, bind))
			return
		}
		a := r.Body[i]
		rel := store[a.Pred]
		kind := RangeFull
		if ranges != nil {
			kind = ranges[i]
		}
		lo, hi := w.bounds(a.Pred, kind, rel.NumRows())
	rows:
		for row := lo; row < hi; row++ {
			t := rel.Row(row)
			next := make(map[string]ast.Value, len(bind))
			for k, v := range bind {
				next[k] = v
			}
			for ci, term := range a.Args {
				if !term.IsVar() {
					if term.Value != t[ci] {
						continue rows
					}
					continue
				}
				if v, seen := next[term.VarName]; seen && v != t[ci] {
					continue rows
				}
				next[term.VarName] = t[ci]
			}
			rec(i+1, next)
		}
	}
	rec(0, map[string]ast.Value{})
	sortTuples(out)
	return out
}

// enumerateAll drains a plan via Enumerate into sorted head tuples.
func enumerateAll(p *Plan, store relation.Store, w *Watermarks) []relation.Tuple {
	var out []relation.Tuple
	p.Enumerate(store, w, func(vals []ast.Value) bool {
		out = append(out, p.HeadTuple(vals))
		return true
	})
	sortTuples(out)
	return out
}

// streamAll drains the same plan via the Cursor.
func streamAll(p *Plan, store relation.Store, w *Watermarks) []relation.Tuple {
	cur := p.Stream(store, w)
	var out []relation.Tuple
	for cur.Next() {
		out = append(out, cur.Head())
	}
	sortTuples(out)
	return out
}

func sortTuples(ts []relation.Tuple) {
	sort.Slice(ts, func(i, j int) bool {
		for k := range ts[i] {
			if ts[i][k] != ts[j][k] {
				return ts[i][k] < ts[j][k]
			}
		}
		return false
	})
}

// TestCursorMatchesEnumerate checks the executor, pulled directly and
// through Enumerate, against a brute-force nested-loop reference over
// joins, constants, repeated variables, negation and watermarked ranges:
// the same substitutions, duplicates included.
func TestCursorMatchesEnumerate(t *testing.T) {
	store := chainStore()
	w := &Watermarks{
		Prev: map[string]int{"e": 1},
		Cur:  map[string]int{"e": 3},
	}
	for _, r := range executorRules(t) {
		src := r.String()
		for _, delta := range []bool{false, true} {
			var ranges []RangeKind
			var wm *Watermarks
			if delta {
				ranges = make([]RangeKind, len(r.Body))
				ranges[len(r.Body)-1] = RangeDelta
				wm = w
			}
			p := Compile(r, ranges)
			want := bruteForce(r, ranges, store, wm)
			if got := streamAll(p, store, wm); !reflect.DeepEqual(got, want) {
				t.Fatalf("%s delta=%v: cursor %v, reference %v", src, delta, got, want)
			}
			if got := enumerateAll(p, store, wm); !reflect.DeepEqual(got, want) {
				t.Fatalf("%s delta=%v: Enumerate %v, reference %v", src, delta, got, want)
			}
		}
	}
}

// TestHeadBoundPlanCounts checks the IVM's counting plans: for every
// candidate head tuple, the head-bound cursor finds exactly as many
// substitutions as the reference derives that tuple — none when a head
// constant or a repeated head variable rules the tuple out.
func TestHeadBoundPlanCounts(t *testing.T) {
	store := chainStore()
	for _, r := range executorRules(t) {
		if len(r.Negated) > 0 {
			continue // maintenance rules carry no negation
		}
		want := map[[2]ast.Value]int64{}
		for _, h := range bruteForce(r, nil, store, nil) {
			want[[2]ast.Value{h[0], h[1]}]++
		}
		p := compileHeadBound(r)
		for a := ast.Value(0); a < 5; a++ {
			for b := ast.Value(0); b < 5; b++ {
				c := p.Stream(store, nil)
				var got int64
				if p.bindHead(relation.Tuple{a, b}, c.vals) {
					for c.Next() {
						got++
					}
				}
				if got != want[[2]ast.Value{a, b}] {
					t.Fatalf("%s: h(%d, %d) counted %d, reference %d", r, a, b, got, want[[2]ast.Value{a, b}])
				}
			}
		}
	}
}

// TestCursorBodilessConstructed checks the fire-once path.
func TestCursorBodilessConstructed(t *testing.T) {
	r := ast.Rule{Head: ast.NewAtom("h", ast.C(7))}
	p := Compile(r, nil)
	cur := p.Stream(relation.Store{}, nil)
	if !cur.Next() {
		t.Fatal("bodiless rule should fire once")
	}
	if got := cur.Head(); got[0] != 7 {
		t.Fatalf("head = %v", got)
	}
	if cur.Next() {
		t.Fatal("bodiless rule fired twice")
	}
}
