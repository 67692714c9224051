package hashpart

import (
	"testing"
	"testing/quick"

	"parlog/internal/ast"
	"parlog/internal/parser"
	"parlog/internal/relation"
)

func TestProcSet(t *testing.T) {
	p := NewProcSet(0, 1, -1, 2) // Example 7's processor set
	if p.Len() != 4 {
		t.Fatalf("Len = %d", p.Len())
	}
	if i, ok := p.Index(-1); !ok || i != 2 {
		t.Errorf("Index(-1) = %d,%v", i, ok)
	}
	if p.Contains(3) {
		t.Error("Contains(3) = true")
	}
	r := RangeProcs(3)
	if r.Len() != 3 || !r.Contains(2) || r.Contains(3) {
		t.Error("RangeProcs wrong")
	}
}

// TestProcSetIndexDenseAndSparse checks Index on a compact id range (the
// dense table) and on ids spread too wide for one, including the extreme
// ints whose differences overflow.
func TestProcSetIndexDenseAndSparse(t *testing.T) {
	const maxInt = int(^uint(0) >> 1)
	for _, ids := range [][]int{
		{5, 3, 4},
		{-7, 0, 9},
		{0, 1 << 40, -(1 << 40)},
		{-maxInt - 1, maxInt, 0},
	} {
		p := NewProcSet(ids...)
		for want, id := range ids {
			if i, ok := p.Index(id); !ok || i != want {
				t.Errorf("%v: Index(%d) = %d,%v, want %d", ids, id, i, ok, want)
			}
		}
		for _, id := range []int{-maxInt - 1, -8, -1, 2, 6, 10, 1 << 39, maxInt} {
			member := false
			for _, x := range ids {
				member = member || x == id
			}
			if p.Contains(id) != member {
				t.Errorf("%v: Contains(%d) = %v", ids, id, !member)
			}
		}
	}
	if NewProcSet().Contains(0) {
		t.Error("empty set contains 0")
	}
}

func TestProcSetDuplicatePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("duplicate processor id did not panic")
		}
	}()
	NewProcSet(1, 1)
}

func TestModHashRangeAndDeterminism(t *testing.T) {
	h := ModHash{N: 4}
	counts := make([]int, 4)
	for v := ast.Value(0); v < 1000; v++ {
		p := h.Apply([]ast.Value{v})
		if p < 0 || p >= 4 {
			t.Fatalf("Apply out of range: %d", p)
		}
		if p != h.Apply([]ast.Value{v}) {
			t.Fatal("not deterministic")
		}
		counts[p]++
	}
	// A sane hash should not put everything in one bucket.
	for i, c := range counts {
		if c == 0 || c == 1000 {
			t.Errorf("bucket %d has %d of 1000", i, c)
		}
	}
}

// TestModHashMatchesFNV pins ModHash to FNV-1a over each value's four
// little-endian bytes, seeded by XOR into the offset basis: placements
// must not move when the hash loop is rewritten.
func TestModHashMatchesFNV(t *testing.T) {
	ref := func(m ModHash, vals []ast.Value) int {
		h := uint64(14695981039346656037) ^ m.Seed
		for _, v := range vals {
			for shift := 0; shift < 32; shift += 8 {
				h ^= uint64(byte(v >> shift))
				h *= 1099511628211
			}
		}
		return int(h % uint64(m.N))
	}
	f := func(a, b int32, seed uint64, n uint8) bool {
		m := ModHash{N: int(n%7) + 1, Seed: seed}
		vals := []ast.Value{ast.Value(a), ast.Value(b)}
		return m.Apply(vals) == ref(m, vals) && m.Apply(vals[:1]) == ref(m, vals[:1])
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestModHashMaskMatchesModulo checks the power-of-two shortcut: for every
// N, mask or not, reduce is h mod N, and Apply and ApplyCols agree with it
// on the FNV-1a state of the values they hash.
func TestModHashMaskMatchesModulo(t *testing.T) {
	for _, n := range []int{1, 2, 3, 4, 5, 8, 64} {
		m := ModHash{N: n}
		f := func(h uint64, a, b int32, seed uint64) bool {
			m.Seed = seed
			vals := []ast.Value{ast.Value(a), ast.Value(b)}
			state := fnvValue(fnvValue(fnvOffset^seed, vals[0]), vals[1])
			want := int(state % uint64(n))
			return m.reduce(h) == int(h%uint64(n)) &&
				m.Apply(vals) == want &&
				m.ApplyCols([]ast.Value{0, ast.Value(b), ast.Value(a)}, []int{2, 1}) == want
		}
		if err := quick.Check(f, nil); err != nil {
			t.Errorf("N=%d: %v", n, err)
		}
	}
}

func TestModHashSeedsDiffer(t *testing.T) {
	a := ModHash{N: 16, Seed: 1}
	b := ModHash{N: 16, Seed: 2}
	same := 0
	for v := ast.Value(0); v < 256; v++ {
		if a.Apply([]ast.Value{v}) == b.Apply([]ast.Value{v}) {
			same++
		}
	}
	if same == 256 {
		t.Error("different seeds produced identical hash functions")
	}
}

func TestBitVector(t *testing.T) {
	// g = parity. h(a,b) = (g(a),g(b)) as 2 bits MSB-first.
	h := BitVector{G: GParity, K: 2}
	cases := []struct {
		vals []ast.Value
		want int
	}{
		{[]ast.Value{0, 0}, 0}, // (00)
		{[]ast.Value{0, 1}, 1}, // (01)
		{[]ast.Value{1, 0}, 2}, // (10)
		{[]ast.Value{1, 1}, 3}, // (11)
	}
	for _, tc := range cases {
		if got := h.Apply(tc.vals); got != tc.want {
			t.Errorf("Apply(%v) = %d, want %d", tc.vals, got, tc.want)
		}
	}
	if h.Procs().Len() != 4 {
		t.Errorf("Procs = %v", h.Procs().IDs())
	}
}

func TestLinearExample7(t *testing.T) {
	// Example 7: h(a1,a2,a3) = g(a1) − g(a2) + g(a3); range {−1,0,1,2}.
	h := Linear{G: GParity, Coefs: []int{1, -1, 1}}
	if got := h.Apply([]ast.Value{1, 0, 1}); got != 2 {
		t.Errorf("h(1,0,1) = %d, want 2", got)
	}
	if got := h.Apply([]ast.Value{0, 1, 0}); got != -1 {
		t.Errorf("h(0,1,0) = %d, want -1", got)
	}
	procs := h.Procs()
	want := []int{-1, 0, 1, 2}
	if procs.Len() != 4 {
		t.Fatalf("Procs = %v", procs.IDs())
	}
	for i, id := range procs.IDs() {
		if id != want[i] {
			t.Errorf("Procs = %v, want %v", procs.IDs(), want)
		}
	}
}

func TestGBitIndependence(t *testing.T) {
	g0 := GBit(0, 7)
	g1 := GBit(5, 7)
	diff := false
	for v := ast.Value(0); v < 64; v++ {
		b := g0(v)
		if b != 0 && b != 1 {
			t.Fatalf("GBit out of range: %d", b)
		}
		if g0(v) != g1(v) {
			diff = true
		}
	}
	if !diff {
		t.Error("two different bits produced identical g")
	}
}

func TestGTable(t *testing.T) {
	g := GTable(map[ast.Value]int{3: 1}, 0)
	if g(3) != 1 || g(4) != 0 {
		t.Error("GTable lookup/default wrong")
	}
}

func TestFragmentationFunction(t *testing.T) {
	f0 := relation.FromTuples(2, [][]ast.Value{{1, 2}})
	f1 := relation.FromTuples(2, [][]ast.Value{{3, 4}})
	h, err := NewFragmentation(map[int]*relation.Relation{0: f0, 1: f1}, Constant{Proc: 9})
	if err != nil {
		t.Fatal(err)
	}
	if h.Apply([]ast.Value{1, 2}) != 0 || h.Apply([]ast.Value{3, 4}) != 1 {
		t.Error("fragment lookup wrong")
	}
	if h.Apply([]ast.Value{9, 9}) != 9 {
		t.Error("fallback not used")
	}
}

// TestFragmentationApplyAllocs holds Fragmentation.Apply at zero
// allocations per call, hit or miss, over a sequence of up to eight values:
// it builds its key in a buffer on its stack and looks the key up without
// a string copy. When it built a string key per call, those keys were 85%
// of BenchmarkExample2's 46,608 allocations per run. Measured: 0; the bound
// is 0 + 0.1.
func TestFragmentationApplyAllocs(t *testing.T) {
	f0 := relation.FromTuples(2, [][]ast.Value{{1, 2}})
	f1 := relation.FromTuples(2, [][]ast.Value{{3, 4}})
	h, err := NewFragmentation(map[int]*relation.Relation{0: f0, 1: f1}, Constant{Proc: 9})
	if err != nil {
		t.Fatal(err)
	}
	long := make([]ast.Value, 8)
	for _, vals := range [][]ast.Value{{1, 2}, {3, 4}, {5, 6}, long} {
		want := h.Apply(vals)
		if a := testing.AllocsPerRun(100, func() {
			if h.Apply(vals) != want {
				t.Fatal("Apply is not deterministic")
			}
		}); a > 0.1 {
			t.Errorf("Apply(%v): %.2f allocs/op, want 0", vals, a)
		}
	}
}

func TestFragmentationOverlapRejected(t *testing.T) {
	f0 := relation.FromTuples(2, [][]ast.Value{{1, 2}})
	f1 := relation.FromTuples(2, [][]ast.Value{{1, 2}})
	if _, err := NewFragmentation(map[int]*relation.Relation{0: f0, 1: f1}, nil); err == nil {
		t.Error("overlapping fragments accepted")
	}
}

func TestConstant(t *testing.T) {
	if (Constant{Proc: 5}).Apply([]ast.Value{1, 2}) != 5 {
		t.Error("Constant.Apply wrong")
	}
}

func TestMixExtremes(t *testing.T) {
	shared := ModHash{N: 4}
	local := 2
	all := Mix{Local: local, Shared: shared, KeepPermille: 1000}
	none := Mix{Local: local, Shared: shared, KeepPermille: 0}
	for v := ast.Value(0); v < 100; v++ {
		vals := []ast.Value{v}
		if all.Apply(vals) != local {
			t.Fatal("KeepPermille=1000 should always stay local")
		}
		if none.Apply(vals) != shared.Apply(vals) {
			t.Fatal("KeepPermille=0 should equal the shared function")
		}
	}
}

func TestMixMonotoneLocality(t *testing.T) {
	shared := ModHash{N: 4}
	countLocal := func(perMille int) int {
		m := Mix{Local: 0, Shared: shared, KeepPermille: perMille}
		n := 0
		for v := ast.Value(1); v <= 2000; v++ {
			// Use values whose shared hash is nonzero so "local" is
			// distinguishable.
			if shared.Apply([]ast.Value{v}) == 0 {
				continue
			}
			if m.Apply([]ast.Value{v}) == 0 {
				n++
			}
		}
		return n
	}
	lo, mid, hi := countLocal(100), countLocal(500), countLocal(900)
	if !(lo < mid && mid < hi) {
		t.Errorf("locality not monotone: %d %d %d", lo, mid, hi)
	}
}

func TestValidateSequence(t *testing.T) {
	prog := parser.MustParse(`anc(X, Y) :- par(X, Z), anc(Z, Y).
anc(X, Y) :- par(X, Y).`)
	rec := prog.Rules[0]
	if err := ValidateSequence(rec, []string{"Y"}); err != nil {
		t.Errorf("v(r)=<Y> rejected: %v", err)
	}
	if err := ValidateSequence(rec, []string{"X", "Z"}); err != nil {
		t.Errorf("v(r)=<X,Z> rejected: %v", err)
	}
	if err := ValidateSequence(rec, []string{"W"}); err == nil {
		t.Error("unknown variable accepted")
	}
	if err := ValidateSequence(rec, nil); err == nil {
		t.Error("empty sequence accepted")
	}
}

func TestValidateSubsetOf(t *testing.T) {
	if err := ValidateSubsetOf([]string{"Z"}, []string{"Z", "Y"}, "Ȳ"); err != nil {
		t.Errorf("subset rejected: %v", err)
	}
	if err := ValidateSubsetOf([]string{"X"}, []string{"Z", "Y"}, "Ȳ"); err == nil {
		t.Error("non-subset accepted")
	}
}

func TestSeqPositions(t *testing.T) {
	atom := ast.NewAtom("par", ast.V("X"), ast.V("Z"))
	pos, ok := SeqPositions(atom, []string{"Z"})
	if !ok || len(pos) != 1 || pos[0] != 1 {
		t.Errorf("SeqPositions = %v, %v", pos, ok)
	}
	if _, ok := SeqPositions(atom, []string{"Y"}); ok {
		t.Error("missing variable reported found")
	}
}

func TestFragmentAtomPartition(t *testing.T) {
	// par fragmented on Z (second column) — Example 3's access pattern.
	rel := relation.FromTuples(2, [][]ast.Value{{1, 2}, {3, 4}, {5, 6}, {7, 8}})
	atom := ast.NewAtom("par", ast.V("X"), ast.V("Z"))
	h := ModHash{N: 2}
	procs := RangeProcs(2)
	frags, partitioned := FragmentAtom(atom, []string{"Z"}, h, procs, rel)
	if !partitioned {
		t.Fatal("expected a partition")
	}
	total := 0
	for i, f := range frags {
		total += f.Len()
		for _, tuple := range f.Rows() {
			if h.Apply([]ast.Value{tuple[1]}) != procs.IDs()[i] {
				t.Errorf("tuple %v in wrong fragment %d", tuple, i)
			}
		}
	}
	if total != rel.Len() {
		t.Errorf("fragments cover %d of %d tuples", total, rel.Len())
	}
}

func TestFragmentAtomReplicates(t *testing.T) {
	// Example 1: v(r)=<Y> does not occur in par(X,Z) — full replication.
	rel := relation.FromTuples(2, [][]ast.Value{{1, 2}, {3, 4}})
	atom := ast.NewAtom("par", ast.V("X"), ast.V("Z"))
	frags, partitioned := FragmentAtom(atom, []string{"Y"}, ModHash{N: 2}, RangeProcs(2), rel)
	if partitioned {
		t.Fatal("expected replication")
	}
	for i, f := range frags {
		if f.Len() != rel.Len() {
			t.Errorf("fragment %d has %d tuples, want full copy %d", i, f.Len(), rel.Len())
		}
	}
}

func TestFragmentAtomDropsNonMatching(t *testing.T) {
	// Atom q(X, X) can only ever use tuples with equal columns.
	rel := relation.FromTuples(2, [][]ast.Value{{1, 1}, {1, 2}, {3, 3}})
	atom := ast.NewAtom("q", ast.V("X"), ast.V("X"))
	frags, partitioned := FragmentAtom(atom, []string{"X"}, ModHash{N: 2}, RangeProcs(2), rel)
	if !partitioned {
		t.Fatal("expected a partition")
	}
	total := 0
	for _, f := range frags {
		total += f.Len()
		if f.Contains(relation.Tuple{1, 2}) {
			t.Error("non-matching tuple not dropped")
		}
	}
	if total != 2 {
		t.Errorf("kept %d tuples, want 2", total)
	}
}

func TestPlacementReplicationFactor(t *testing.T) {
	p := Placement{Pred: "par", TuplesPerProc: []int{5, 5, 5, 5}}
	if got := p.ReplicationFactor(5); got != 4.0 {
		t.Errorf("replicated factor = %v, want 4", got)
	}
	q := Placement{Pred: "par", Partitioned: true, TuplesPerProc: []int{2, 3}}
	if got := q.ReplicationFactor(5); got != 1.0 {
		t.Errorf("partitioned factor = %v, want 1", got)
	}
	if (Placement{}).ReplicationFactor(0) != 0 {
		t.Error("empty relation factor should be 0")
	}
}

// Property: FragmentAtom with a plain variable atom partitions: every tuple
// appears in exactly one fragment.
func TestFragmentPartitionProperty(t *testing.T) {
	f := func(raw [][2]uint8, n uint8) bool {
		N := int(n%4) + 1
		rel := relation.New(2)
		for _, p := range raw {
			rel.Insert(relation.Tuple{ast.Value(p[0]), ast.Value(p[1])})
		}
		atom := ast.NewAtom("par", ast.V("X"), ast.V("Z"))
		frags, partitioned := FragmentAtom(atom, []string{"X", "Z"}, ModHash{N: N}, RangeProcs(N), rel)
		if !partitioned {
			return false
		}
		counts := map[string]int{}
		for _, f := range frags {
			for _, tup := range f.Rows() {
				counts[tup.Key()]++
			}
		}
		if len(counts) != rel.Len() {
			return false
		}
		for _, c := range counts {
			if c != 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: AsHashFunc agrees with the underlying Func.
func TestAsHashFuncAgreesProperty(t *testing.T) {
	h := ModHash{N: 7, Seed: 3}
	hf := AsHashFunc(h)
	f := func(a, b uint16) bool {
		vals := []ast.Value{ast.Value(a), ast.Value(b)}
		return hf.Fn(vals) == h.Apply(vals)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: SymHash is invariant under permutations of its arguments — the
// guarantee Theorem 3's construction relies on.
func TestSymHashPermutationInvariantProperty(t *testing.T) {
	h := SymHash{N: 7, Seed: 5}
	f := func(a, b, c uint16) bool {
		x, y, z := ast.Value(a), ast.Value(b), ast.Value(c)
		base := h.Apply([]ast.Value{x, y, z})
		perms := [][]ast.Value{
			{x, z, y}, {y, x, z}, {y, z, x}, {z, x, y}, {z, y, x},
		}
		for _, p := range perms {
			if h.Apply(p) != base {
				return false
			}
		}
		return base >= 0 && base < 7
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSymHashDistribution(t *testing.T) {
	h := SymHash{N: 4}
	counts := make([]int, 4)
	for v := ast.Value(0); v < 400; v++ {
		counts[h.Apply([]ast.Value{v})]++
	}
	for i, c := range counts {
		if c == 0 {
			t.Errorf("bucket %d empty over 400 values", i)
		}
	}
}

func TestBalancedTable(t *testing.T) {
	// One hub with weight 90 and nine values of weight 10 across 2 procs:
	// LPT puts the hub alone on one side and the rest on the other.
	weights := map[ast.Value]int{0: 90}
	for v := ast.Value(1); v <= 9; v++ {
		weights[v] = 10
	}
	procs := RangeProcs(2)
	h := BalancedTable(weights, procs, ModHash{N: 2})
	load := map[int]int{}
	for v, w := range weights {
		load[h.Apply([]ast.Value{v})] += w
	}
	if load[0] != 90 && load[1] != 90 {
		t.Errorf("hub not isolated: loads %v", load)
	}
	if load[0]+load[1] != 180 {
		t.Errorf("total load %d", load[0]+load[1])
	}
	// Unseen values use the fallback, deterministically.
	unseen := h.Apply([]ast.Value{1000})
	if unseen != (ModHash{N: 2}).Apply([]ast.Value{1000}) {
		t.Error("fallback not used for unseen value")
	}
	if h.Name() == "" {
		t.Error("empty name")
	}
}

func TestBalancedTableDeterministic(t *testing.T) {
	weights := map[ast.Value]int{1: 5, 2: 5, 3: 5, 4: 5, 5: 5}
	a := BalancedTable(weights, RangeProcs(3), Constant{Proc: 0})
	b := BalancedTable(weights, RangeProcs(3), Constant{Proc: 0})
	for v := ast.Value(1); v <= 5; v++ {
		if a.Apply([]ast.Value{v}) != b.Apply([]ast.Value{v}) {
			t.Fatal("not deterministic")
		}
	}
}

func TestFuncNames(t *testing.T) {
	for _, f := range []Func{
		ModHash{N: 4}, ModHash{N: 4, Seed: 9}, SymHash{N: 3},
		BitVector{G: GParity, K: 2}, Linear{G: GParity, Coefs: []int{1}},
		Constant{Proc: 2}, Mix{Local: 1, Shared: ModHash{N: 2}},
		&Fragmentation{Fallback: ModHash{N: 2}},
	} {
		if f.Name() == "" {
			t.Errorf("%T has empty name", f)
		}
	}
}
