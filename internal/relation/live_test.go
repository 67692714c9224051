package relation

import (
	"testing"

	"parlog/internal/ast"
)

func TestInsertDeltaBasics(t *testing.T) {
	r := New(2)
	r.EnableCounts(0)
	row, fresh := r.InsertDelta(tup(1, 2), 1)
	if !fresh || row != 0 {
		t.Fatalf("first InsertDelta = (%d,%v), want (0,true)", row, fresh)
	}
	row2, fresh2 := r.InsertDelta(tup(1, 2), 3)
	if fresh2 || row2 != 0 {
		t.Fatalf("repeat InsertDelta = (%d,%v), want (0,false)", row2, fresh2)
	}
	if got := r.CountOf(0); got != 4 {
		t.Errorf("CountOf = %d, want 4", got)
	}
	if r.Len() != 1 || r.NumRows() != 1 {
		t.Errorf("Len/NumRows = %d/%d, want 1/1", r.Len(), r.NumRows())
	}
}

func TestAddDeltaKillAndContains(t *testing.T) {
	r := New(2)
	r.EnableCounts(0)
	row, _ := r.InsertDelta(tup(1, 2), 2)
	if r.AddDelta(row, -1) {
		t.Fatal("count 2→1 reported death")
	}
	if !r.AddDelta(row, -1) {
		t.Fatal("count 1→0 did not report death")
	}
	if r.Alive(row) || r.Contains(tup(1, 2)) {
		t.Error("dead tuple still alive/Contains")
	}
	if r.Len() != 0 {
		t.Errorf("Len = %d, want 0 (live count)", r.Len())
	}
	if r.NumRows() != 1 {
		t.Errorf("NumRows = %d, want 1 (physical)", r.NumRows())
	}
	if got := r.LookupRow(tup(1, 2)); got != row {
		t.Errorf("LookupRow after death = %d, want canonical row %d", got, row)
	}
	defer func() {
		if recover() == nil {
			t.Error("AddDelta underflow did not panic")
		}
	}()
	r.AddDelta(row, -1)
}

func TestRebirthAppendsFreshRow(t *testing.T) {
	r := New(1)
	r.EnableCounts(0)
	r.InsertDelta(tup(7), 1)
	r.InsertDelta(tup(8), 1)
	r.AddDelta(0, -1) // kill 7
	row, fresh := r.InsertDelta(tup(7), 1)
	if !fresh || row != 2 {
		t.Fatalf("rebirth = (%d,%v), want fresh row 2", row, fresh)
	}
	if r.LookupRow(tup(7)) != 2 {
		t.Errorf("LookupRow = %d, want repointed row 2", r.LookupRow(tup(7)))
	}
	if r.Len() != 2 || r.NumRows() != 3 {
		t.Errorf("Len/NumRows = %d/%d, want 2/3", r.Len(), r.NumRows())
	}
	if !r.Contains(tup(7)) {
		t.Error("reborn tuple not Contains")
	}
	// In-place resurrection is forbidden: the superseded row stays garbage.
	defer func() {
		if recover() == nil {
			t.Error("AddDelta resurrection did not panic")
		}
	}()
	r.AddDelta(2, -1) // kill the reborn row…
	r.AddDelta(2, 1)  // …and try to resurrect it in place
}

func TestCountedInsertAndRowsFilter(t *testing.T) {
	r := New(1)
	r.EnableCounts(0)
	if !r.Insert(tup(1)) {
		t.Fatal("Insert on counted relation reported duplicate")
	}
	if r.Insert(tup(1)) {
		t.Fatal("duplicate Insert reported new")
	}
	r.InsertDelta(tup(2), 1)
	r.AddDelta(0, -r.CountOf(0))
	rows := r.Rows()
	if len(rows) != 1 || rows[0][0] != 2 {
		t.Errorf("Rows = %v, want just [2]", rows)
	}
}

func TestPinSharesArenaAndHidesLaterWrites(t *testing.T) {
	r := New(2)
	r.EnableCounts(0)
	r.InsertDelta(tup(1, 2), 1)
	r.InsertDelta(tup(3, 4), 2)
	r.InsertDelta(tup(7, 8), 1)
	r.AddDelta(r.LookupRow(tup(7, 8)), -1)
	snap := r.Pin()
	if snap.Counted() || snap.table != nil {
		t.Error("a pin should be uncounted and build no table until probed")
	}
	if &snap.data[0] != &r.data[0] {
		t.Error("the pin does not alias the writer's arena")
	}
	if snap.Len() != 2 || !snap.Contains(tup(1, 2)) || !snap.Contains(tup(3, 4)) || snap.Contains(tup(7, 8)) {
		t.Errorf("pin wrong: Len=%d", snap.Len())
	}
	// The writer kills, inserts and reborns; the pin sees none of it.
	r.AddDelta(r.LookupRow(tup(1, 2)), -1)
	r.InsertDelta(tup(5, 6), 1)
	r.InsertDelta(tup(7, 8), 1)
	if snap.Len() != 2 || !snap.Contains(tup(1, 2)) || snap.Contains(tup(5, 6)) || snap.Contains(tup(7, 8)) {
		t.Error("the pin observed a later write")
	}
	if rows := snap.SortedRows(); len(rows) != 2 || !rows[0].Equal(tup(1, 2)) || !rows[1].Equal(tup(3, 4)) {
		t.Errorf("pin Rows = %v", rows)
	}
	if run := snap.IndexOn(0).Probe([]ast.Value{7}, 0, snap.NumRows()); len(run) != 0 {
		t.Errorf("the pin's index holds the dead row: %v", run)
	}
	snap2 := r.Pin()
	if snap2.Len() != 3 || snap2.Contains(tup(1, 2)) || !snap2.Contains(tup(5, 6)) || !snap2.Contains(tup(7, 8)) {
		t.Errorf("second pin wrong: Len=%d", snap2.Len())
	}
	c := snap.Clone()
	if c.Counted() || c.pin != nil || !c.Equal(snap) || c.NumRows() != 2 {
		t.Error("a pin's clone should be a plain relation of its live rows")
	}
	if !c.Insert(tup(9, 9)) || snap.Contains(tup(9, 9)) {
		t.Error("inserting into a pin's clone")
	}
	defer func() {
		if recover() == nil {
			t.Error("Insert into a pin did not panic")
		}
	}()
	snap.Insert(tup(9, 9))
}

func TestCountedCloneAndEqual(t *testing.T) {
	r := New(1)
	r.EnableCounts(0)
	r.InsertDelta(tup(1), 1)
	r.InsertDelta(tup(2), 1)
	r.AddDelta(0, -1) // kill 1

	s := New(1)
	s.Insert(tup(2))
	if !r.Equal(s) || !s.Equal(r) {
		t.Error("live extent {2} should Equal plain {2}")
	}
	s.Insert(tup(1))
	if r.Equal(s) {
		t.Error("live {2} should differ from {1,2}")
	}

	c := r.Clone()
	if !c.Counted() || c.Len() != 1 || c.Contains(tup(1)) || !c.Contains(tup(2)) {
		t.Error("clone lost counted-mode state")
	}
	// Mutating the clone must not touch the original.
	c.InsertDelta(tup(3), 1)
	if r.Contains(tup(3)) {
		t.Error("clone shares state with original")
	}
}

func TestCountedGrowSkipsSuperseded(t *testing.T) {
	r := New(1)
	r.EnableCounts(0)
	// Kill and rebirth a tuple, then insert enough to force table growth.
	r.InsertDelta(tup(0), 1)
	r.AddDelta(0, -1)
	r.InsertDelta(tup(0), 1) // supersedes row 0
	for i := 1; i < 100; i++ {
		r.InsertDelta(tup(ast.Value(i)), 1)
	}
	if r.Len() != 100 {
		t.Fatalf("Len = %d, want 100", r.Len())
	}
	for i := 0; i < 100; i++ {
		if !r.Contains(tup(ast.Value(i))) {
			t.Fatalf("lost tuple %d after growth", i)
		}
	}
	if r.LookupRow(tup(0)) != 1 {
		t.Errorf("canonical row of reborn tuple = %d, want 1", r.LookupRow(tup(0)))
	}
}

func TestEnableCountsOnExistingRows(t *testing.T) {
	r := New(1)
	r.Insert(tup(1))
	r.Insert(tup(2))
	r.EnableCounts(5)
	if r.CountOf(0) != 5 || r.CountOf(1) != 5 {
		t.Error("EnableCounts initial not applied")
	}
	r.EnableCounts(9) // no-op
	if r.CountOf(0) != 5 {
		t.Error("EnableCounts was not a no-op the second time")
	}
}
