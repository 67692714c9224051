package relation

import (
	"errors"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"parlog/internal/ast"
)

func tup(vs ...ast.Value) Tuple { return Tuple(vs) }

func TestInsertDeduplicates(t *testing.T) {
	r := New(2)
	if !r.Insert(tup(1, 2)) {
		t.Fatal("first insert reported duplicate")
	}
	if r.Insert(tup(1, 2)) {
		t.Fatal("duplicate insert reported new")
	}
	if !r.Insert(tup(2, 1)) {
		t.Fatal("distinct tuple reported duplicate")
	}
	if r.Len() != 2 {
		t.Errorf("Len = %d, want 2", r.Len())
	}
	if !r.Contains(tup(1, 2)) || r.Contains(tup(9, 9)) {
		t.Error("Contains misreported")
	}
}

// TestInsertRow checks that InsertRow returns the stored row for a
// duplicate and a fresh row id for a new tuple, and that its dedup agrees
// with Insert on a random stream large enough to grow the table.
func TestInsertRow(t *testing.T) {
	r := New(2)
	row, fresh := r.InsertRow(tup(1, 2))
	if row != 0 || !fresh {
		t.Fatalf("first InsertRow = (%d, %v), want (0, true)", row, fresh)
	}
	if row, fresh := r.InsertRow(tup(3, 4)); row != 1 || !fresh {
		t.Fatalf("second InsertRow = (%d, %v), want (1, true)", row, fresh)
	}
	if row, fresh := r.InsertRow(tup(1, 2)); row != 0 || fresh {
		t.Fatalf("duplicate InsertRow = (%d, %v), want (0, false)", row, fresh)
	}

	rng := rand.New(rand.NewSource(1))
	a, b := New(2), New(2)
	for i := 0; i < 5000; i++ {
		tu := tup(ast.Value(rng.Intn(60)), ast.Value(rng.Intn(60)))
		want := a.Insert(tu)
		row, fresh := b.InsertRow(tu)
		if fresh != want {
			t.Fatalf("step %d: InsertRow fresh=%v, Insert new=%v", i, fresh, want)
		}
		if !b.Row(row).Equal(tu) {
			t.Fatalf("step %d: row %d holds %v, want %v", i, row, b.Row(row), tu)
		}
		if fresh && row != b.Len()-1 {
			t.Fatalf("step %d: fresh row id %d, want %d", i, row, b.Len()-1)
		}
	}
	if !a.Equal(b) {
		t.Fatal("InsertRow and Insert built different sets")
	}
}

func TestInsertCopiesTuple(t *testing.T) {
	r := New(1)
	backing := Tuple{7}
	r.Insert(backing)
	backing[0] = 8
	if !r.Contains(tup(7)) || r.Contains(tup(8)) {
		t.Error("Insert aliased the caller's slice")
	}
}

func TestInsertArityPanic(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("arity mismatch did not panic")
		}
	}()
	New(2).Insert(tup(1))
}

func TestKeyInjective(t *testing.T) {
	// Tuples that would collide under naive byte concatenation of small ints.
	a := tup(1, 0)
	b := tup(0, 1)
	if a.Key() == b.Key() {
		t.Error("Key not injective for (1,0)/(0,1)")
	}
	c := tup(256)
	d := tup(1)
	if c.Key() == d.Key() {
		t.Error("Key not injective for 256/1")
	}
}

func TestEqual(t *testing.T) {
	r := FromTuples(2, [][]ast.Value{{1, 2}, {3, 4}})
	s := FromTuples(2, [][]ast.Value{{3, 4}, {1, 2}})
	if !r.Equal(s) {
		t.Error("order-insensitive equality failed")
	}
	s.Insert(tup(5, 6))
	if r.Equal(s) {
		t.Error("unequal relations reported equal")
	}
	if r.Equal(New(3)) {
		t.Error("different arity reported equal")
	}
}

func TestCloneIndependence(t *testing.T) {
	r := FromTuples(1, [][]ast.Value{{1}})
	c := r.Clone()
	c.Insert(tup(2))
	if r.Contains(tup(2)) {
		t.Error("Clone shares storage")
	}
}

func TestSortedRows(t *testing.T) {
	r := FromTuples(2, [][]ast.Value{{3, 1}, {1, 2}, {1, 1}, {2, 9}})
	sorted := r.SortedRows()
	want := []Tuple{{1, 1}, {1, 2}, {2, 9}, {3, 1}}
	for i := range want {
		if !sorted[i].Equal(want[i]) {
			t.Fatalf("SortedRows = %v", sorted)
		}
	}
}

func TestIndexLookup(t *testing.T) {
	r := New(2)
	r.Insert(tup(1, 10))
	r.Insert(tup(2, 20))
	r.Insert(tup(1, 11))
	ix := r.IndexOn(0)
	if got := ix.Probe([]ast.Value{1}, 0, r.Len()); !reflect.DeepEqual(got, []int32{0, 2}) {
		t.Errorf("Probe rows = %v, want [0 2]", got)
	}
}

func TestIndexSeesLaterInserts(t *testing.T) {
	r := New(2)
	r.Insert(tup(1, 10))
	ix := r.IndexOn(0)
	r.Insert(tup(1, 11)) // inserted after index creation
	if got := ix.Probe([]ast.Value{1}, 0, r.Len()); len(got) != 2 {
		t.Errorf("index did not refresh: rows = %v", got)
	}
}

func TestIndexRangeRestriction(t *testing.T) {
	r := New(1)
	for i := 0; i < 10; i++ {
		r.Insert(tup(ast.Value(i % 2)))
	}
	// Only two distinct tuples survive dedup: 0 at row 0, 1 at row 1.
	if r.Len() != 2 {
		t.Fatalf("Len = %d", r.Len())
	}
	ix := r.IndexOn(0)
	if got := ix.Probe([]ast.Value{0}, 1, 2); len(got) != 0 {
		t.Errorf("range [1,2) matched %v for value 0, want none", got)
	}
	if got := ix.Probe([]ast.Value{1}, 1, 2); len(got) != 1 {
		t.Errorf("range [1,2) matched %v for value 1, want one row", got)
	}
}

// TestIndexEarlyStop checks the zero-column index: every row lands in one
// run, and the row window stops it early.
func TestIndexEarlyStop(t *testing.T) {
	r := New(1)
	r.Insert(tup(1))
	r.Insert(tup(2))
	ix := r.IndexOn()
	if got := ix.Probe(nil, 0, r.Len()); !reflect.DeepEqual(got, []int32{0, 1}) {
		t.Errorf("zero-column run = %v", got)
	}
	if got := ix.Probe(nil, 0, 1); !reflect.DeepEqual(got, []int32{0}) {
		t.Errorf("windowed zero-column run = %v", got)
	}
}

func TestIndexMultiColumn(t *testing.T) {
	r := New(3)
	r.Insert(tup(1, 2, 3))
	r.Insert(tup(1, 2, 4))
	r.Insert(tup(1, 3, 3))
	ix := r.IndexOn(0, 1)
	if got := ix.Probe([]ast.Value{1, 2}, 0, r.Len()); len(got) != 2 {
		t.Errorf("multi-column probe matched %v, want 2 rows", got)
	}
}

// TestProbeStream reads probed runs back through Row, the way a join level
// streams them: matching tuples in insertion order, restricted to the
// window, and every row for a zero-column index.
func TestProbeStream(t *testing.T) {
	r := FromTuples(2, [][]ast.Value{{0, 1}, {0, 2}, {1, 2}, {0, 3}})
	rows := func(run []int32) []Tuple {
		var out []Tuple
		for _, id := range run {
			out = append(out, r.Row(int(id)))
		}
		return out
	}
	ix := r.IndexOn(0)
	if got, want := rows(ix.Probe([]ast.Value{0}, 0, r.Len())), []Tuple{{0, 1}, {0, 2}, {0, 3}}; !reflect.DeepEqual(got, want) {
		t.Fatalf("probe = %v, want %v", got, want)
	}
	if got, want := rows(ix.Probe([]ast.Value{0}, 1, 3)), []Tuple{{0, 2}}; !reflect.DeepEqual(got, want) {
		t.Fatalf("windowed probe = %v, want %v", got, want)
	}
	if got := rows(ix.Probe([]ast.Value{9}, 0, r.Len())); len(got) != 0 {
		t.Fatalf("miss probe returned %v", got)
	}
	if got := rows(r.IndexOn().Probe(nil, 0, r.Len())); len(got) != 4 {
		t.Fatalf("zero-column probe returned %d tuples", len(got))
	}
}

func TestIndexProbeRunWindow(t *testing.T) {
	r := FromTuples(2, [][]ast.Value{{7, 1}, {7, 2}, {8, 1}, {7, 3}})
	ix := r.IndexOn(0)
	run := ix.Probe([]ast.Value{7}, 0, r.Len())
	if want := []int32{0, 1, 3}; !reflect.DeepEqual(run, want) {
		t.Fatalf("full run = %v, want %v", run, want)
	}
	if run := ix.Probe([]ast.Value{7}, 1, 3); !reflect.DeepEqual(run, []int32{1}) {
		t.Fatalf("windowed run = %v", run)
	}
	if run := ix.Probe([]ast.Value{99}, 0, r.Len()); len(run) != 0 {
		t.Fatalf("miss run = %v", run)
	}
}

func TestInsertSetSemanticsProperty(t *testing.T) {
	f := func(raw [][2]uint8) bool {
		r := New(2)
		distinct := make(map[[2]uint8]bool)
		for _, p := range raw {
			r.Insert(tup(ast.Value(p[0]), ast.Value(p[1])))
			distinct[p] = true
		}
		if r.Len() != len(distinct) {
			return false
		}
		for p := range distinct {
			if !r.Contains(tup(ast.Value(p[0]), ast.Value(p[1]))) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: an index probe returns exactly the rows whose column matches.
func TestIndexAgreesWithScanProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 50; trial++ {
		r := New(2)
		n := rng.Intn(60)
		for i := 0; i < n; i++ {
			r.Insert(tup(ast.Value(rng.Intn(8)), ast.Value(rng.Intn(8))))
		}
		ix := r.IndexOn(1)
		for v := ast.Value(0); v < 8; v++ {
			fromIndex := ix.Probe([]ast.Value{v}, 0, r.Len())
			var fromScan []int32
			for i, row := range r.Rows() {
				if row[1] == v {
					fromScan = append(fromScan, int32(i))
				}
			}
			if len(fromIndex) != len(fromScan) {
				t.Fatalf("trial %d value %d: index %v scan %v", trial, v, fromIndex, fromScan)
			}
			for i := range fromScan {
				if fromIndex[i] != fromScan[i] {
					t.Fatalf("trial %d value %d: index %v scan %v", trial, v, fromIndex, fromScan)
				}
			}
		}
	}
}

func BenchmarkInsertDistinct(b *testing.B) {
	r := New(2)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r.Insert(tup(ast.Value(i), ast.Value(i>>8)))
	}
}

// BenchmarkInsertDup times inserts under the traffic of the tc workloads,
// where two of every three inserts find their tuple already stored: each of
// 2^16 rows is inserted three times, in a shuffled order, and the relation
// starts empty again after every 3·2^16 inserts. The insert order is one
// flat run of values, so reading the next tuple costs no cache miss of its
// own.
func BenchmarkInsertDup(b *testing.B) {
	const distinct = 1 << 16
	order := make([]int, 3*distinct)
	for i := range order {
		order[i] = i / 3
	}
	rand.New(rand.NewSource(1)).Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
	seq := make([]ast.Value, 0, 2*len(order))
	for _, i := range order {
		seq = append(seq, ast.Value(i%300), ast.Value(i/300))
	}
	var r *Relation
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := i % len(order)
		if k == 0 {
			r = New(2)
		}
		r.Insert(seq[2*k : 2*k+2])
	}
}

func BenchmarkIndexProbe(b *testing.B) {
	r := New(2)
	for i := 0; i < 10000; i++ {
		r.Insert(tup(ast.Value(i%100), ast.Value(i)))
	}
	ix := r.IndexOn(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchRun = ix.Probe([]ast.Value{ast.Value(i % 100)}, 0, r.Len())
	}
}

var benchRun []int32

func TestRowAndString(t *testing.T) {
	r := FromTuples(2, [][]ast.Value{{2, 1}, {1, 2}})
	if got := r.Row(0); !got.Equal(Tuple{2, 1}) {
		t.Errorf("Row(0) = %v", got)
	}
	if got := r.String(); got != "{(1,2), (2,1)}" {
		t.Errorf("String = %q", got)
	}
}

// TestAppendDisjoint: appending disjoint relations, whole or as values
// written straight into the arena, gives the relation that inserting their
// rows one by one gives, and the result still dedups. A failed fill leaves
// the relation as it was.
func TestAppendDisjoint(t *testing.T) {
	appenders := map[string]func(dst *Relation, srcs []*Relation){
		"relations": func(dst *Relation, srcs []*Relation) { dst.AppendDisjoint(srcs...) },
		"values": func(dst *Relation, srcs []*Relation) {
			for _, s := range srcs {
				b := s.Flat(0)
				if err := dst.AppendDisjointVals(b.N, func(vals []ast.Value) error {
					copy(vals, b.Vals)
					return nil
				}); err != nil {
					t.Fatal(err)
				}
			}
		},
	}
	for name, appendAll := range appenders {
		parts := []*Relation{New(2), New(2), New(2)}
		want := New(2)
		var rows []Tuple
		for i := 0; i < 300; i++ {
			row := Tuple{ast.Value(i % 17), ast.Value(i / 17)}
			rows = append(rows, row)
			parts[i%3].Insert(row)
			want.Insert(row)
		}
		dst := parts[0]
		appendAll(dst, parts[1:])
		if dst.Len() != want.Len() || !dst.Equal(want) || !want.Equal(dst) {
			t.Fatalf("%s: appended relation has %d rows, want %d", name, dst.Len(), want.Len())
		}
		for _, row := range rows {
			if dst.Insert(row) {
				t.Fatalf("%s: %v inserted again after the append", name, row)
			}
		}
		if dst.Insert(Tuple{99, 99}) != true || dst.Len() != want.Len()+1 {
			t.Errorf("%s: a new tuple was not inserted after the append", name)
		}
	}

	r := FromTuples(2, [][]ast.Value{{1, 2}})
	bad := errors.New("bad fill")
	if err := r.AppendDisjointVals(3, func(vals []ast.Value) error {
		vals[0] = 7
		return bad
	}); err != bad {
		t.Fatalf("failed fill returned %v", err)
	}
	if r.Len() != 1 || r.Flat(0).N != 1 || len(r.Flat(0).Vals) != 2 || r.Contains(Tuple{7, 0}) || !r.Contains(Tuple{1, 2}) {
		t.Errorf("a failed fill changed the relation: %v", r)
	}
}
