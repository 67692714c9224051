package relation

import (
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
