package relation

import (
	"testing"

	"parlog/internal/ast"
)

// checkTable verifies the dedup table's packing invariant: every filled
// slot holds row+1 of a row below both NumRows and len(table), with the
// tag slot() gives that row's hash, and the filled slots are exactly the
// rows that are neither superseded nor pending, each found by a probe for
// its values. Pending rows, which AppendDisjoint left out of the table, are
// the arena's last rows and no probe of the table finds them. checkTable
// enters no pending row itself: only the relation's own probes do.
func checkTable(t testing.TB, r *Relation) {
	t.Helper()
	if uint64(len(r.table)) != r.mask+1 || len(r.table)&(len(r.table)-1) != 0 {
		t.Fatalf("table of %d slots with mask %#x", len(r.table), r.mask)
	}
	if r.pending < 0 || r.pending > r.n {
		t.Fatalf("%d pending rows of %d", r.pending, r.n)
	}
	hashed := r.n - r.pending
	m := uint32(r.mask)
	filled := 0
	for i, s := range r.table {
		if s == 0 {
			continue
		}
		filled++
		row := int(s&m) - 1
		if row < 0 || row >= hashed || row >= len(r.table) {
			t.Fatalf("slot %d holds row %d: %d rows, %d pending, %d slots", i, row, r.n, r.pending, len(r.table))
		}
		if want := slot(row, r.hashRow(row), r.mask); s != want {
			t.Fatalf("slot %d holds %#x, row %d packs as %#x", i, s, row, want)
		}
	}
	canonical := 0
	for row := 0; row < r.n; row++ {
		_, got := r.find(r.row(row), r.hashRow(row))
		if row >= hashed {
			if got >= 0 {
				t.Fatalf("pending row %d %v is in the table as row %d", row, r.row(row), got)
			}
			continue
		}
		if r.counts != nil && r.counts[row] == countSuperseded {
			continue
		}
		canonical++
		if got != row {
			t.Fatalf("probe for row %d %v finds row %d", row, r.row(row), got)
		}
	}
	if filled != canonical {
		t.Fatalf("%d filled slots for %d canonical rows", filled, canonical)
	}
}

// TestDedupSlotPacking grows a plain and a counted relation past 2^16
// slots, where row ids need 17 bits of the 32-bit slot, and checks the
// packing invariant after every growth. The counted relation kills and
// re-inserts every fifth tuple, so superseded rows cross the growths too.
func TestDedupSlotPacking(t *testing.T) {
	const n = 60000
	for _, counted := range []bool{false, true} {
		r := New(2)
		if counted {
			r.EnableCounts(1)
		}
		size := len(r.table)
		for i := 0; i < n; i++ {
			tu := Tuple{ast.Value(i % 251), ast.Value(i / 251)}
			if counted {
				row, _ := r.InsertDelta(tu, 1)
				if i%5 == 0 {
					r.AddDelta(row, -1)
					if reborn, alive := r.InsertDelta(tu, 1); !alive || reborn != r.NumRows()-1 {
						t.Fatalf("rebirth of %v: row %d alive %v", tu, reborn, alive)
					}
				}
			} else if _, fresh := r.InsertRow(tu); !fresh {
				t.Fatalf("%v reported stored", tu)
			}
			if len(r.table) != size {
				size = len(r.table)
				checkTable(t, r)
			}
		}
		if size <= 1<<16 {
			t.Fatalf("table of %d slots after %d inserts, want more than 2^16", size, n)
		}
		if r.Len() != n {
			t.Fatalf("counted=%v: Len %d, want %d", counted, r.Len(), n)
		}
		checkTable(t, r.Clone())
	}
}

// relModel drives a Relation and a Go-map oracle through the same
// operations: rows maps each inserted tuple's key to its canonical row and
// count (1 for every row of a plain relation; 0 for a dead one).
type relModel struct {
	t       *testing.T
	r       *Relation
	rows    map[string]modelRow
	counted bool
}

type modelRow struct {
	row   int
	count int32
}

func (m *relModel) live() int {
	n := 0
	for _, e := range m.rows {
		if e.count > 0 {
			n++
		}
	}
	return n
}

// check compares r with the oracle after an operation.
func (m *relModel) check(op string) {
	m.t.Helper()
	checkTable(m.t, m.r)
	if m.r.Len() != m.live() {
		m.t.Fatalf("after %s: Len %d, oracle %d", op, m.r.Len(), m.live())
	}
	if m.r.Counted() != m.counted {
		m.t.Fatalf("after %s: Counted %v, oracle %v", op, m.r.Counted(), m.counted)
	}
	for k, e := range m.rows {
		if got := m.r.Row(e.row).Key(); got != k {
			m.t.Fatalf("after %s: row %d holds %q, oracle %q", op, e.row, got, k)
		}
		if m.r.Alive(e.row) != (e.count > 0) || (m.counted && m.r.CountOf(e.row) != e.count) {
			m.t.Fatalf("after %s: row %d alive %v, oracle count %d", op, e.row, m.r.Alive(e.row), e.count)
		}
	}
}

// FuzzRelationOps decodes its input into a run of relation operations
// over arity 0–3 and the values 0–4, so that tuples repeat and probes
// share runs, and checks each result, and the dedup table's packing, with
// a Go map as the oracle. Byte 0 picks the arity (byte 0 mod 4) and how
// the relation starts ((byte 0 / 4) mod 3): empty, or table-less, holding
// the rows of an AppendDisjoint or an AppendDisjointVals into an empty
// relation, so the first probing operation builds its table. Then each
// operation is an opcode byte followed by its operands.
func FuzzRelationOps(f *testing.F) {
	f.Add([]byte{2, 0, 1, 2, 0, 1, 2, 1, 3, 4, 2, 1, 2, 5, 3, 40, 4, 3, 0})
	f.Add([]byte{3, 7, 8, 1, 2, 3, 1, 8, 1, 2, 3, 2, 9, 1, 2, 3, 0, 10, 1, 2, 3, 8, 1, 2, 3, 0, 6, 5, 0, 4, 4, 4})
	f.Add([]byte{1, 0, 1, 0, 2, 0, 3, 0, 4, 7, 9, 1, 0, 9, 2, 0, 8, 1, 2, 6, 10, 1, 5, 8, 1, 0, 3, 20})
	f.Add([]byte{0, 0, 0, 2, 7, 9, 0, 8, 0, 10, 6})
	f.Add([]byte{6, 7, 3, 2, 1, 2, 0, 1, 2, 4, 15, 9, 1, 3, 4})
	f.Add([]byte{10, 6, 11, 5, 7, 0, 1, 2, 8, 1, 2, 6})
	f.Add([]byte{7, 5, 20, 10, 1, 2, 3, 6, 4, 7, 60, 3, 9})
	f.Add([]byte{9, 7, 0, 7, 8, 1, 9, 1, 10, 2})
	f.Fuzz(func(t *testing.T, raw []byte) {
		if len(raw) == 0 {
			return
		}
		const domain = 5
		arity := int(raw[0] % 4)
		m := &relModel{t: t, r: New(arity), rows: map[string]modelRow{}}
		pos := 1
		next := func() int {
			if pos >= len(raw) {
				return 0
			}
			pos++
			return int(raw[pos-1])
		}
		tuple := func() Tuple {
			tu := make(Tuple, arity)
			for i := range tu {
				tu[i] = ast.Value(next() % domain)
			}
			return tu
		}
		// appendAbsent appends, with AppendDisjoint or AppendDisjointVals,
		// up to k distinct tuples the relation does not hold, enumerated
		// from start, and records them in the oracle.
		appendAbsent := func(k, start int, vals bool) {
			src := New(arity)
			var add []Tuple
			for c := 0; c < 125 && len(add) < k; c++ {
				tu := make(Tuple, arity)
				for i, v := 0, start+c; i < arity; i, v = i+1, v/domain {
					tu[i] = ast.Value(v % domain)
				}
				if _, ok := m.rows[tu.Key()]; !ok && src.Insert(tu) {
					add = append(add, tu)
				}
			}
			n := m.r.NumRows()
			if vals {
				b := src.Flat(0)
				if err := m.r.AppendDisjointVals(b.N, func(dst []ast.Value) error {
					copy(dst, b.Vals)
					return nil
				}); err != nil {
					t.Fatal(err)
				}
			} else {
				m.r.AppendDisjoint(src)
			}
			for i, tu := range add {
				m.rows[tu.Key()] = modelRow{n + i, 1}
			}
		}
		if start := raw[0] / 4 % 3; start > 0 && arity > 0 {
			appendAbsent(next()%64, next(), start == 2)
			m.check("a table-less start")
		}
		for pos < len(raw) {
			switch op := next() % 11; op {
			case 0: // Insert
				tu := tuple()
				e, ok := m.rows[tu.Key()]
				want := !ok || e.count == 0
				n := m.r.NumRows()
				if got := m.r.Insert(tu); got != want {
					t.Fatalf("Insert %v = %v, oracle %v", tu, got, want)
				}
				switch {
				case !ok || (m.counted && e.count == 0):
					m.rows[tu.Key()] = modelRow{n, 1}
				case m.counted:
					m.rows[tu.Key()] = modelRow{e.row, e.count + 1}
				}
				m.check("Insert")
			case 1: // InsertRow, plain mode only
				if m.counted {
					continue
				}
				tu := tuple()
				e, ok := m.rows[tu.Key()]
				if !ok {
					e = modelRow{m.r.NumRows(), 1}
					m.rows[tu.Key()] = e
				}
				if row, fresh := m.r.InsertRow(tu); row != e.row || fresh == ok {
					t.Fatalf("InsertRow %v = %d, %v; oracle %d, %v", tu, row, fresh, e.row, !ok)
				}
				m.check("InsertRow")
			case 2: // Contains
				tu := tuple()
				if got, want := m.r.Contains(tu), m.rows[tu.Key()].count > 0; got != want {
					t.Fatalf("Contains %v = %v, oracle %v", tu, got, want)
				}
			case 3: // Grow
				m.r.Grow(next() % 64)
				m.check("Grow")
			case 4: // AppendDisjoint(Vals) of up to 7 absent tuples, plain mode only
				if m.counted || arity == 0 {
					continue
				}
				k := next()
				appendAbsent(k%8, next(), k&8 != 0)
				m.check("AppendDisjoint")
			case 5: // Clone, then carry on with the copy
				c := m.r.Clone()
				if !c.Equal(m.r) || !m.r.Equal(c) {
					t.Fatal("Clone differs from its source")
				}
				m.r = c
				m.check("Clone")
			case 6: // Compact
				snap := m.r.Compact()
				checkTable(t, snap)
				if snap.Counted() || snap.Len() != m.live() {
					t.Fatalf("Compact: counted %v, %d tuples, oracle %d live", snap.Counted(), snap.Len(), m.live())
				}
				for k, e := range m.rows {
					if got := snap.Contains(m.r.Row(e.row)); got != (e.count > 0) {
						t.Fatalf("Compact: Contains %q = %v, oracle count %d", k, got, e.count)
					}
				}
			case 7: // EnableCounts
				if !m.counted {
					m.r.EnableCounts(1)
					m.counted = true
				}
				m.check("EnableCounts")
			case 8: // InsertDelta, counted mode only; a dead tuple is reborn
				if !m.counted {
					continue
				}
				tu, d := tuple(), int32(1+next()%3)
				e, ok := m.rows[tu.Key()]
				want := modelRow{e.row, e.count + d}
				if !ok || e.count == 0 {
					want = modelRow{m.r.NumRows(), d}
				}
				m.rows[tu.Key()] = want
				if row, alive := m.r.InsertDelta(tu, d); row != want.row || alive != (want.count == d) {
					t.Fatalf("InsertDelta %v = %d, %v; oracle %d, %v", tu, row, alive, want.row, want.count == d)
				}
				m.check("InsertDelta")
			case 9: // AddDelta down to at most zero, counted mode only
				if !m.counted {
					continue
				}
				tu := tuple()
				e := m.rows[tu.Key()]
				if e.count <= 0 {
					continue
				}
				d := 1 + int32(next())%e.count
				if died := m.r.AddDelta(e.row, -d); died != (d == e.count) {
					t.Fatalf("AddDelta %v by -%d of %d reports died %v", tu, d, e.count, died)
				}
				m.rows[tu.Key()] = modelRow{e.row, e.count - d}
				m.check("AddDelta")
			case 10: // LookupRow
				tu := tuple()
				want := -1
				if e, ok := m.rows[tu.Key()]; ok {
					want = e.row
				}
				if got := m.r.LookupRow(tu); got != want {
					t.Fatalf("LookupRow %v = %d, oracle %d", tu, got, want)
				}
			}
		}
	})
}
