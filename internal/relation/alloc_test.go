package relation

import (
	"runtime"
	"testing"

	"parlog/internal/ast"
)

// TestKernelsDoNotAllocate holds the two storage kernels every evaluation
// reduces to at zero allocations per operation: a membership probe, and an
// insert into a relation whose arena and dedup table Grow sized up front.
// Measured: 0 allocs/op for both; the bound is 0 × 1.2 + 0.1.
func TestKernelsDoNotAllocate(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector inflates allocation counts; CI runs this test without -race")
	}
	const n = 1 << 12
	tuples := make([]Tuple, 2*n+1)
	for i := range tuples {
		tuples[i] = Tuple{ast.Value(i), ast.Value(i * 7)}
	}

	r := New(2)
	r.Grow(len(tuples))
	i := 0
	if a := testing.AllocsPerRun(n, func() {
		r.Insert(tuples[i])
		i++
	}); a > 0.1 {
		t.Errorf("Insert into a pre-sized relation: %.2f allocs/op, want 0", a)
	}

	// The first n+1 tuples are stored, the other n are misses.
	j := 0
	if a := testing.AllocsPerRun(2*n, func() {
		r.Contains(tuples[j])
		j++
	}); a > 0.1 {
		t.Errorf("Contains: %.2f allocs/op, want 0", a)
	}
}

// TestArenaGrowsWithTable guards the plain relation's growth policy: the
// arena grows in one step to the rows the dedup table can index before it
// next grows, so it never holds more than 3/4·len(table) rows, and 2^16
// distinct inserts allocate at most 2.1× the final arena plus table.
// Measured: 2.00×; with append's growth steps the arena alone made it 3.30×.
func TestArenaGrowsWithTable(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector inflates allocation counts; CI runs this test without -race")
	}
	const n = 1 << 16
	tuples := make([]Tuple, n)
	for i := range tuples {
		tuples[i] = Tuple{ast.Value(i), ast.Value(i ^ 0x5555)}
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	r := New(2)
	for i, tu := range tuples {
		r.Insert(tu)
		if rows := cap(r.data) / r.arity; rows > len(r.table)*3/4 {
			t.Fatalf("after %d inserts the arena holds %d rows, the table of %d slots indexes %d", i+1, rows, len(r.table), len(r.table)*3/4)
		}
	}
	runtime.ReadMemStats(&after)
	if r.Len() != n {
		t.Fatalf("Len = %d, want %d", r.Len(), n)
	}
	kept := uint64(cap(r.data))*4 + uint64(len(r.table))*4
	ratio := float64(after.TotalAlloc-before.TotalAlloc) / float64(kept)
	t.Logf("allocated %.2f MB for a %.2f MB arena and table: %.2f×", float64(after.TotalAlloc-before.TotalAlloc)/1e6, float64(kept)/1e6, ratio)
	if ratio > 2.1 {
		t.Errorf("2^16 inserts allocated %.2f× the final arena and table, want ≤ 2.1×", ratio)
	}
}
