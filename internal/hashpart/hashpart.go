// Package hashpart implements the paper's discriminating machinery: the
// discriminating sequences of variables v(r), v(e), the discriminating
// functions h, h' and h_i that map ground instances of those sequences to
// processors, processor sets, and the induced fragmentation of base
// relations (the b_k^i of Section 3).
package hashpart

import (
	"fmt"
	"sort"

	"parlog/internal/ast"
	"parlog/internal/relation"
)

// Func is a discriminating function: a deterministic map from a ground
// instance of a discriminating sequence to a processor id. Processor ids are
// arbitrary ints (the paper uses sets such as {0, 1, -1, 2} in Example 7).
type Func interface {
	Name() string
	Apply(vals []ast.Value) int
}

// ProcSet is a finite ordered set of processor ids, the paper's P.
type ProcSet struct {
	ids []int
	// Index lookups sit on the per-tuple routing path, so a set whose ids
	// span a small range keeps them in a dense table: dense[id-lo] is the
	// dense index plus one, 0 for a hole. A sparse set falls back to index.
	lo    int
	dense []int32
	index map[int]int
}

// NewProcSet builds a processor set from distinct ids, preserving order.
func NewProcSet(ids ...int) *ProcSet {
	p := &ProcSet{}
	seen := make(map[int]int, len(ids))
	lo, hi := 0, -1
	for _, id := range ids {
		if _, dup := seen[id]; dup {
			panic(fmt.Sprintf("hashpart: duplicate processor id %d", id))
		}
		seen[id] = len(p.ids)
		p.ids = append(p.ids, id)
		if len(p.ids) == 1 || id < lo {
			lo = id
		}
		if len(p.ids) == 1 || id > hi {
			hi = id
		}
	}
	if span := uint64(hi) - uint64(lo); len(ids) > 0 && span < uint64(4*len(ids)+64) {
		p.lo = lo
		p.dense = make([]int32, span+1)
		for i, id := range p.ids {
			p.dense[id-lo] = int32(i + 1)
		}
	} else {
		p.index = seen
	}
	return p
}

// RangeProcs returns the processor set {0, 1, …, n−1}.
func RangeProcs(n int) *ProcSet {
	ids := make([]int, n)
	for i := range ids {
		ids[i] = i
	}
	return NewProcSet(ids...)
}

// Len returns the number of processors.
func (p *ProcSet) Len() int { return len(p.ids) }

// IDs returns the processor ids in order. Callers must not modify it.
func (p *ProcSet) IDs() []int { return p.ids }

// Index returns the dense index of id within the set.
func (p *ProcSet) Index(id int) (int, bool) {
	if p.index != nil {
		i, ok := p.index[id]
		return i, ok
	}
	// The unsigned difference wraps ids below lo out of range too.
	k := uint(id - p.lo)
	if k >= uint(len(p.dense)) || p.dense[k] == 0 {
		return 0, false
	}
	return int(p.dense[k]) - 1, true
}

// Contains reports membership.
func (p *ProcSet) Contains(id int) bool {
	_, ok := p.Index(id)
	return ok
}

// --- concrete discriminating functions ---

// ModHash hashes the value sequence (FNV-1a) onto {0,…,N−1}. It is the
// "arbitrary discriminating function" of Examples 1 and 3.
type ModHash struct {
	N    int
	Seed uint64
}

// Name implements Func.
func (m ModHash) Name() string {
	if m.Seed == 0 {
		return fmt.Sprintf("hmod%d", m.N)
	}
	return fmt.Sprintf("hmod%d.%d", m.N, m.Seed)
}

const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

// fnvValue folds v's four little-endian bytes into the FNV-1a state h,
// unrolled: routing hashes once per firing.
func fnvValue(h uint64, v ast.Value) uint64 {
	u := uint32(v)
	h = (h ^ uint64(u&0xff)) * fnvPrime
	h = (h ^ uint64(u>>8&0xff)) * fnvPrime
	h = (h ^ uint64(u>>16&0xff)) * fnvPrime
	return (h ^ uint64(u>>24)) * fnvPrime
}

// Apply implements Func: FNV-1a over each value's four little-endian bytes.
func (m ModHash) Apply(vals []ast.Value) int {
	h := fnvOffset ^ m.Seed
	for _, v := range vals {
		h = fnvValue(h, v)
	}
	return m.reduce(h)
}

// reduce maps the hash h onto {0,…,N−1} as h mod N, with a mask instead of
// the 64-bit divide when N is a power of two.
func (m ModHash) reduce(h uint64) int {
	if n := uint64(m.N); n != 0 && n&(n-1) == 0 {
		return int(h & (n - 1))
	}
	return int(h % uint64(m.N))
}

// ApplyCols is Apply over t[cols[0]], t[cols[1]], …, read in place, so a
// router hashes a tuple's sequence columns without gathering them first.
func (m ModHash) ApplyCols(t []ast.Value, cols []int) int {
	h := fnvOffset ^ m.Seed
	for _, c := range cols {
		h = fnvValue(h, t[c])
	}
	return m.reduce(h)
}

// SymHash hashes the value sequence onto {0,…,N−1} invariantly under any
// permutation of the arguments (it combines per-value hashes with addition).
// Theorem 3's communication-free construction needs this: along a dataflow
// cycle the discriminating values of producer and consumer are cyclic
// permutations of each other, so a permutation-invariant h maps both to the
// same processor.
type SymHash struct {
	N    int
	Seed uint64
}

// Name implements Func.
func (s SymHash) Name() string { return fmt.Sprintf("hsym%d", s.N) }

// Apply implements Func.
func (s SymHash) Apply(vals []ast.Value) int {
	inner := ModHash{N: 1 << 30, Seed: s.Seed}
	sum := uint64(0)
	for _, v := range vals {
		sum += uint64(inner.Apply([]ast.Value{v}))
	}
	return int(sum % uint64(s.N))
}

// G is a function from constants to small ints, the paper's g (Sections 5–6
// use range {0,1}).
type G func(ast.Value) int

// GParity maps a constant to its id's parity — a simple, deterministic g.
func GParity(v ast.Value) int { return int(v) & 1 }

// GBit returns a g extracting the given bit of an FNV hash of the value, so
// different bits give independent gs.
func GBit(bit uint, seed uint64) G {
	m := ModHash{N: 1 << 31, Seed: seed}
	return func(v ast.Value) int {
		return (m.Apply([]ast.Value{v}) >> bit) & 1
	}
}

// GTable is a table-driven g with a default for unknown constants.
func GTable(table map[ast.Value]int, dflt int) G {
	return func(v ast.Value) int {
		if g, ok := table[v]; ok {
			return g
		}
		return dflt
	}
}

// BitVector is Example 6's discriminating function: h(a1,…,ak) is the tuple
// (g(a1),…,g(ak)) of bits, encoded MSB-first as an integer, so for k=2 the
// processors are (00)=0, (01)=1, (10)=2, (11)=3.
type BitVector struct {
	G G
	K int
}

// Name implements Func.
func (b BitVector) Name() string { return fmt.Sprintf("gvec%d", b.K) }

// Apply implements Func.
func (b BitVector) Apply(vals []ast.Value) int {
	if len(vals) != b.K {
		panic(fmt.Sprintf("hashpart: BitVector arity %d applied to %d values", b.K, len(vals)))
	}
	id := 0
	for _, v := range vals {
		id = id<<1 | (b.G(v) & 1)
	}
	return id
}

// Procs returns the processor set {0,…,2^K−1} induced by the bit vector.
func (b BitVector) Procs() *ProcSet { return RangeProcs(1 << b.K) }

// Linear is Example 7's discriminating function: h(a1,…,ak) = Σ Coefs[i]·g(ai).
// With g ranging over {0,1} its range is a small set of ints that may
// include negative ids.
type Linear struct {
	G     G
	Coefs []int
}

// Name implements Func.
func (l Linear) Name() string { return "hlin" }

// Apply implements Func.
func (l Linear) Apply(vals []ast.Value) int {
	if len(vals) != len(l.Coefs) {
		panic(fmt.Sprintf("hashpart: Linear with %d coefficients applied to %d values", len(l.Coefs), len(vals)))
	}
	sum := 0
	for i, v := range vals {
		sum += l.Coefs[i] * l.G(v)
	}
	return sum
}

// Procs returns the exact range of the linear function over g-values in
// {0,1}: every achievable Σ Coefs[i]·b_i, sorted ascending.
func (l Linear) Procs() *ProcSet {
	sums := map[int]bool{}
	k := len(l.Coefs)
	for mask := 0; mask < 1<<k; mask++ {
		s := 0
		for i := 0; i < k; i++ {
			if mask>>i&1 == 1 {
				s += l.Coefs[i]
			}
		}
		sums[s] = true
	}
	ids := make([]int, 0, len(sums))
	for s := range sums {
		ids = append(ids, s)
	}
	sort.Ints(ids)
	return NewProcSet(ids...)
}

// Fragmentation is Example 2's discriminating function: h(ā) = i iff ā is a
// tuple of fragment i of a pre-partitioned relation. Ground instances not in
// any fragment fall back to Fallback (they can only arise outside the
// partitioned relation's own tuples).
type Fragmentation struct {
	Table    map[string]int
	Fallback Func
}

// NewFragmentation builds the function from per-processor fragments: frags
// maps processor id → its tuples.
func NewFragmentation(frags map[int]*relation.Relation, fallback Func) (*Fragmentation, error) {
	f := &Fragmentation{Table: make(map[string]int), Fallback: fallback}
	for proc, rel := range frags {
		for _, t := range rel.Rows() {
			k := t.Key()
			if prev, dup := f.Table[k]; dup && prev != proc {
				return nil, fmt.Errorf("hashpart: tuple present in fragments %d and %d — not a partition", prev, proc)
			}
			f.Table[k] = proc
		}
	}
	return f, nil
}

// Name implements Func.
func (f *Fragmentation) Name() string { return "hfrag" }

// Apply implements Func. The key is built in a buffer on the stack, which
// is safe under concurrent calls, and looked up without a string copy.
func (f *Fragmentation) Apply(vals []ast.Value) int {
	var buf [32]byte
	if proc, ok := f.Table[string(relation.Tuple(vals).AppendKey(buf[:0]))]; ok {
		return proc
	}
	return f.Fallback.Apply(vals)
}

// BalancedTable builds a discriminating function that equalizes load under
// skew: values with known weights are assigned to processors by greedy
// longest-processing-time bin packing (heaviest value first, onto the
// currently lightest processor), and unseen values fall back to fallback.
// This realizes the load-balancing direction the paper defers to future work
// (Section 8): the framework only requires h to be a function, so a
// data-informed h is admissible and keeps every theorem intact.
func BalancedTable(weights map[ast.Value]int, procs *ProcSet, fallback Func) Func {
	type wv struct {
		v ast.Value
		w int
	}
	items := make([]wv, 0, len(weights))
	for v, w := range weights {
		items = append(items, wv{v, w})
	}
	sort.Slice(items, func(i, j int) bool {
		if items[i].w != items[j].w {
			return items[i].w > items[j].w
		}
		return items[i].v < items[j].v
	})
	load := make([]int, procs.Len())
	table := make(map[ast.Value]int, len(items))
	for _, it := range items {
		best := 0
		for k := 1; k < len(load); k++ {
			if load[k] < load[best] {
				best = k
			}
		}
		load[best] += it.w
		table[it.v] = procs.IDs()[best]
	}
	return &balancedFunc{table: table, fallback: fallback}
}

type balancedFunc struct {
	table    map[ast.Value]int
	fallback Func
}

// Name implements Func.
func (b *balancedFunc) Name() string { return "hbal" }

// Apply implements Func. Multi-value sequences hash the first value through
// the table (balanced functions are built for single-variable sequences).
func (b *balancedFunc) Apply(vals []ast.Value) int {
	if p, ok := b.table[vals[0]]; ok {
		return p
	}
	return b.fallback.Apply(vals)
}

// Constant is the trade-off scheme's "keep everything local" extreme:
// h_i(ā) = i for every ā (Section 6).
type Constant struct{ Proc int }

// Name implements Func.
func (c Constant) Name() string { return fmt.Sprintf("const%d", c.Proc) }

// Apply implements Func.
func (c Constant) Apply([]ast.Value) int { return c.Proc }

// Mix is the trade-off scheme's intermediate point: it keeps a tuple local
// (returns Local) when an auxiliary hash of the tuple falls below
// KeepPermille/1000, and otherwise delegates to Shared — a deterministic
// family h_i interpolating between Constant (KeepPermille=1000) and a common
// h (KeepPermille=0).
type Mix struct {
	Local        int
	Shared       Func
	KeepPermille int
	Seed         uint64
}

// Name implements Func.
func (m Mix) Name() string { return fmt.Sprintf("hmix%d@%d", m.KeepPermille, m.Local) }

// Apply implements Func.
func (m Mix) Apply(vals []ast.Value) int {
	coin := ModHash{N: 1000, Seed: m.Seed ^ 0x9e3779b97f4a7c15}.Apply(vals)
	if coin < m.KeepPermille {
		return m.Local
	}
	return m.Shared.Apply(vals)
}

// AsHashFunc adapts a Func to the ast constraint-level HashFunc.
func AsHashFunc(f Func) *ast.HashFunc {
	return &ast.HashFunc{Name: f.Name(), Fn: f.Apply}
}
