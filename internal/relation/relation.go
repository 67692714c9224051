// Package relation implements the tuple storage used by both evaluation
// engines: append-only relations over interned constants, with duplicate
// elimination and incrementally-maintained hash indexes.
//
// Rows are append-only and never removed, so a pair of integer watermarks
// into the row sequence represents the semi-naive "previous total / delta"
// split without copying.
//
// Storage layout. A relation of arity k keeps all tuples in one flat
// []ast.Value arena, row i occupying data[i*k : (i+1)*k]. Insert appends
// into the arena — the only allocations are the amortized arena/table
// growths. Duplicate elimination is an open-addressing hash table of 4-byte
// slots, each packing a row id with hash bits (a tag) that settle most
// misses without reading the arena (see slot). Rows appended as known to be
// distinct (AppendDisjoint) enter the table only on the relation's first
// probe, so a relation that is only read row by row never builds one. The
// hash is computed
// directly from the values, a word at a time, so no string keys are ever
// materialized. Indexes bucket rows by a column subset into runs of a
// shared []int32 postings arena (see Index). Values are immutable
// once written, so slices into an old arena backing array remain valid
// after growth — callers may hold Row results across later Inserts.
package relation

import (
	"fmt"
	"math/bits"
	"sort"
	"strings"

	"parlog/internal/ast"
)

// Tuple is a ground tuple of interned constants.
type Tuple []ast.Value

// appendKey appends the 4-byte little-endian encoding of each value to buf.
func appendKey(buf []byte, vals []ast.Value) []byte {
	for _, v := range vals {
		buf = append(buf, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
	}
	return buf
}

// Key encodes the tuple as a map key. Two tuples have equal keys iff they are
// equal element-wise.
func (t Tuple) Key() string {
	return string(appendKey(make([]byte, 0, 4*len(t)), t))
}

// AppendKey appends t's Key encoding to buf. A lookup m[string(buf)] with
// buf on the caller's stack then allocates nothing.
func (t Tuple) AppendKey(buf []byte) []byte { return appendKey(buf, t) }

// Clone returns an independent copy of t.
func (t Tuple) Clone() Tuple {
	out := make(Tuple, len(t))
	copy(out, t)
	return out
}

// Equal reports element-wise equality.
func (t Tuple) Equal(u Tuple) bool {
	if len(t) != len(u) {
		return false
	}
	for i := range t {
		if t[i] != u[i] {
			return false
		}
	}
	return true
}

// Batch is a run of equal-arity tuples laid end to end in one pointer-free
// slice: tuple i is Vals[i*Arity : (i+1)*Arity]. N counts the tuples, so a
// batch of zero-arity tuples still carries its size. The transports carry
// derived tuples in this form, so the collector never scans a batch.
type Batch struct {
	Arity, N int
	Vals     []ast.Value
}

// Append adds t, of the batch's arity, to the end of the batch.
func (b *Batch) Append(t Tuple) {
	b.Vals = append(b.Vals, t...)
	b.N++
}

// Row returns tuple i as a capacity-capped slice into Vals.
func (b Batch) Row(i int) Tuple {
	lo, hi := i*b.Arity, (i+1)*b.Arity
	return Tuple(b.Vals[lo:hi:hi])
}

// Tuples returns the batch's tuples as headers into Vals; nil when empty.
func (b Batch) Tuples() []Tuple {
	if b.N == 0 {
		return nil
	}
	out := make([]Tuple, b.N)
	for i := range out {
		out[i] = b.Row(i)
	}
	return out
}

// The dedup table's and the indexes' hash folds in one value per multiply
// by Knuth's multiplicative constant, 2^64/φ. A multiply carries a value's
// bits only upward, so hashFinish rotates the high half, which every value
// reached, into the low bits the tables index with; on the dense small
// constants interning hands out, consecutive values then land in distinct
// slots, as in Fibonacci hashing. It is not hashpart's FNV-1a: nothing
// outside this package sees it, and no encoding has to hash alike.
const hashMul uint64 = 0x9e3779b97f4a7c15

// hashVal folds one value into h.
func hashVal(h uint64, v ast.Value) uint64 {
	return (h ^ uint64(uint32(v))) * hashMul
}

// hashFinish makes the folded hash's low bits depend on every value.
func hashFinish(h uint64) uint64 { return bits.RotateLeft64(h, 32) }

func hashVals(vals []ast.Value) uint64 {
	var h uint64
	for _, v := range vals {
		h = hashVal(h, v)
	}
	return hashFinish(h)
}

// Relation is a duplicate-free, append-only set of equal-arity tuples.
// The zero value is not usable; create with New. A Relation (including its
// cached indexes) is not safe for concurrent use, and its first probe after
// an AppendDisjoint writes the dedup table; the engines give each processor
// its own relations.
type Relation struct {
	arity int
	data  []ast.Value // flat arena: row i is data[i*arity:(i+1)*arity]
	n     int         // number of rows
	table []uint32    // open addressing, 0 = empty; see slot
	mask  uint64      // len(table) - 1
	// pending counts the last rows of the arena, appended by AppendDisjoint
	// or AppendDisjointVals, that are not in the dedup table yet. Every
	// method that reads or writes the table enters them first (settle).
	pending int

	// counts is the optional annotation column of counted mode (see
	// EnableCounts): counts[i] is row i's derivation count. nil means plain
	// set mode, where every physical row is live. In counted mode a row with
	// count 0 is dead-but-canonical (still reachable through the dedup
	// table, so a later re-insert can detect the rebirth) and a row with
	// count countSuperseded was replaced by a newer physical row for the
	// same tuple and is unreachable garbage.
	counts []int32
	// junk counts rows that are not live: dead-canonical plus superseded.
	junk int

	indexes map[uint64]*Index // fast path, keyed by packed column signature
	extra   []*Index          // overflow for column sets the packing can't encode
}

const initialTableSize = 16

// New returns an empty relation of the given arity.
func New(arity int) *Relation {
	return &Relation{
		arity: arity,
		table: make([]uint32, initialTableSize),
		mask:  initialTableSize - 1,
	}
}

// slot packs row into a dedup-table entry for a table of mask+1 slots: the
// low bits (those of mask) hold row+1, the rest hold the same bits of the
// row's hash h, its tag. The table grows before it is 3/4 full and counts
// every physical row, so each row id is below len(table) and row+1 fits
// under mask. The tag bits lie above the bits that pick the home slot, so
// two rows sharing a probe run mostly differ in tag: a probe compares the
// tag first and reads the arena only when it matches.
func slot(row int, h uint64, mask uint64) uint32 {
	return uint32(h)&^uint32(mask) | uint32(row+1)
}

// find probes the dedup table for t, whose hash is h. It returns the slot
// holding t and its row, or, when t is absent, the empty slot where the
// probe ended and row -1.
func (r *Relation) find(t []ast.Value, h uint64) (i uint64, row int) {
	m := uint32(r.mask)
	tag := uint32(h) &^ m
	for i = h & r.mask; ; i = (i + 1) & r.mask {
		s := r.table[i]
		if s == 0 {
			return i, -1
		}
		if s&^m == tag {
			if row := int(s&m) - 1; r.rowEqual(row, t) {
				return i, row
			}
		}
	}
}

// FromTuples builds a relation of the given arity from tuples, dropping
// duplicates.
func FromTuples(arity int, tuples [][]ast.Value) *Relation {
	r := New(arity)
	for _, t := range tuples {
		r.Insert(t)
	}
	return r
}

// Arity returns the tuple width.
func (r *Relation) Arity() int { return r.arity }

// Len returns the number of distinct live tuples. In plain set mode that is
// the physical row count; in counted mode dead and superseded rows are
// excluded. Use NumRows for the physical bound (watermarks, Row loops).
func (r *Relation) Len() int { return r.n - r.junk }

// NumRows returns the physical row count of the arena, including dead and
// superseded rows of counted mode. Row ids range over [0, NumRows).
func (r *Relation) NumRows() int { return r.n }

// row returns the arena slice of row i, capacity-capped so an append by a
// careless caller cannot clobber the following row.
func (r *Relation) row(i int) Tuple {
	lo, hi := i*r.arity, (i+1)*r.arity
	return Tuple(r.data[lo:hi:hi])
}

// rowEqual compares row i against t (len(t) == arity).
func (r *Relation) rowEqual(i int, t []ast.Value) bool {
	base := i * r.arity
	row := r.data[base : base+len(t)]
	for j, v := range t {
		if row[j] != v {
			return false
		}
	}
	return true
}

// hashRow hashes row i straight from the arena.
func (r *Relation) hashRow(i int) uint64 {
	base := i * r.arity
	return hashVals(r.data[base : base+r.arity])
}

// Insert adds t if not present, reporting whether it was new. The values are
// copied into the arena, so callers may reuse the backing slice. Insert
// panics on arity mismatch — that is always an engine bug, never
// data-dependent.
func (r *Relation) Insert(t Tuple) bool {
	if r.counts != nil {
		if len(t) != r.arity {
			panic(fmt.Sprintf("relation: inserting arity-%d tuple into arity-%d relation", len(t), r.arity))
		}
		_, alive := r.InsertDelta(t, 1)
		return alive
	}
	_, fresh := r.InsertRow(t)
	return fresh
}

// InsertRow adds t if not present and returns its row id either way:
// the new row when fresh, the existing one when t was already stored. One
// hash probe serves both the membership test and the lookup, so callers
// that annotate rows (a parallel worker's origin bits) pay no second
// probe. Plain set mode only; InsertRow panics on a counted relation or an
// arity mismatch.
func (r *Relation) InsertRow(t Tuple) (row int, fresh bool) {
	if len(t) != r.arity {
		panic(fmt.Sprintf("relation: inserting arity-%d tuple into arity-%d relation", len(t), r.arity))
	}
	if r.counts != nil {
		panic("relation: InsertRow on a counted relation")
	}
	if r.pending != 0 {
		r.settle()
	}
	h := hashVals(t)
	i, row := r.find(t, h)
	if row >= 0 {
		return row, false
	}
	row = r.n
	if len(r.data)+r.arity > cap(r.data) {
		r.growArena()
	}
	r.data = append(r.data, t...)
	r.n++
	r.table[i] = slot(row, h, r.mask)
	if uint64(r.n)*4 >= uint64(len(r.table))*3 {
		r.growTable()
	}
	return row, true
}

// growArena reallocates a full arena in one step to hold every row the
// current dedup table can index before it next grows, 3/4 of its slots;
// the table grows on reaching that load, so there is always room for one
// more row. The table doubles, so the arena does too: a relation built by
// inserts allocates about twice its final arena and table, where append's
// 1.25× steps for large slices allocate over three times.
func (r *Relation) growArena() {
	data := make([]ast.Value, len(r.data), len(r.table)*3/4*r.arity)
	copy(data, r.data)
	r.data = data
}

// growTable doubles the hash table.
func (r *Relation) growTable() { r.rehash(len(r.table) * 2) }

// rehash rebuilds the hash table at size slots (a power of two), rehashing
// every row from the arena, pending rows included. Superseded rows (counted
// mode) are skipped: only the canonical physical row of each tuple lives in
// the table.
func (r *Relation) rehash(size int) {
	nt := make([]uint32, size)
	mask := uint64(size - 1)
	for row := 0; row < r.n; row++ {
		if r.counts != nil && r.counts[row] == countSuperseded {
			continue
		}
		h := r.hashRow(row)
		i := h & mask
		for nt[i] != 0 {
			i = (i + 1) & mask
		}
		nt[i] = slot(row, h, mask)
	}
	r.table = nt
	r.mask = mask
	r.pending = 0
}

// sizeTable makes the dedup table hold need rows below its 3/4 load and
// enters the pending rows into it, in one pass over the arena when the
// table has to grow.
func (r *Relation) sizeTable(need int) {
	size := len(r.table)
	for uint64(need)*4 >= uint64(size)*3 {
		size *= 2
	}
	if size > len(r.table) {
		r.rehash(size)
		return
	}
	for row := r.n - r.pending; row < r.n; row++ {
		h := r.hashRow(row)
		i := h & r.mask
		for r.table[i] != 0 {
			i = (i + 1) & r.mask
		}
		r.table[i] = slot(row, h, r.mask)
	}
	r.pending = 0
}

// settle enters the pending rows into the dedup table. Every probe calls it
// first, so the table is built by the first probe that needs it.
func (r *Relation) settle() { r.sizeTable(r.n) }

// Grow makes room for n more rows: the arena and the dedup table are sized
// once, so a bulk load of up to n rows neither reallocates the arena nor
// rehashes midway.
func (r *Relation) Grow(n int) {
	r.GrowArena(n)
	r.sizeTable(r.n + n)
}

// GrowArena makes room in the arena for n more rows without touching the
// dedup table: the sizing for a bulk AppendDisjointVals, whose rows enter
// the table only when something probes the relation.
func (r *Relation) GrowArena(n int) {
	if need := (r.n + n) * r.arity; cap(r.data) < need {
		data := make([]ast.Value, len(r.data), need)
		copy(data, r.data)
		r.data = data
	}
}

// AppendDisjoint appends every row of each src to r. The caller guarantees
// that the relations are pairwise disjoint and disjoint from r, so no row is
// compared against a stored one: the arena is sized once for the total, and
// the rows enter the dedup table only when something probes r (settle).
// Plain set mode only; AppendDisjoint panics on a counted relation or an
// arity mismatch.
func (r *Relation) AppendDisjoint(srcs ...*Relation) {
	more := 0
	for _, s := range srcs {
		if s.arity != r.arity || s.counts != nil || r.counts != nil {
			panic(fmt.Sprintf("relation: AppendDisjoint of an arity-%d relation into arity %d (or a counted relation)", s.arity, r.arity))
		}
		more += s.n
	}
	r.GrowArena(more)
	for _, s := range srcs {
		r.data = append(r.data, s.data[:s.n*s.arity]...)
	}
	r.n += more
	r.pending += more
}

// AppendDisjointVals appends k rows whose values fill writes straight into
// the arena: fill gets the k·arity values to set. The caller guarantees, as
// for AppendDisjoint, that the rows are pairwise distinct and not yet in r,
// so they enter the dedup table only when something probes r. When fill
// fails, r is left as it was and the error is returned. The caller bounds
// k: the arena grows to hold it. Plain set mode only; AppendDisjointVals
// panics on a counted relation.
func (r *Relation) AppendDisjointVals(k int, fill func(vals []ast.Value) error) error {
	if r.counts != nil {
		panic("relation: AppendDisjointVals on a counted relation")
	}
	r.GrowArena(k)
	base := len(r.data)
	r.data = r.data[:base+k*r.arity]
	if err := fill(r.data[base:]); err != nil {
		r.data = r.data[:base]
		return err
	}
	r.n += k
	r.pending += k
	return nil
}

// Flat returns the rows from row from on as one batch over the arena,
// without copying: the batch shares the relation's storage, so callers must
// not modify it. Its capacity ends with its last row, so rows inserted later
// are not part of it and never write into it. Plain set mode only; Flat
// panics on a counted relation, whose arena also holds dead rows.
func (r *Relation) Flat(from int) Batch {
	if r.counts != nil {
		panic("relation: Flat on a counted relation")
	}
	lo, end := from*r.arity, r.n*r.arity
	return Batch{Arity: r.arity, N: r.n - from, Vals: r.data[lo:end:end]}
}

// Contains reports membership; in counted mode, membership of the live set.
func (r *Relation) Contains(t Tuple) bool {
	if len(t) != r.arity {
		return false
	}
	if r.pending != 0 {
		r.settle()
	}
	_, row := r.find(t, hashVals(t))
	return row >= 0 && (r.counts == nil || r.counts[row] > 0)
}

// Rows returns the current rows as tuple headers into the arena. The result
// is a snapshot of the ids present at call time (later Inserts are not
// reflected); the tuples themselves must not be modified. Prefer Len/Row in
// hot loops — Rows allocates the header slice.
func (r *Relation) Rows() []Tuple {
	if r.counts == nil {
		out := make([]Tuple, r.n)
		for i := range out {
			out[i] = r.row(i)
		}
		return out
	}
	out := make([]Tuple, 0, r.n-r.junk)
	for i := 0; i < r.n; i++ {
		if r.counts[i] > 0 {
			out = append(out, r.row(i))
		}
	}
	return out
}

// Row returns the i-th tuple as a slice into the arena. Valid forever —
// arena growth never invalidates previously returned rows.
func (r *Relation) Row(i int) Tuple {
	if i >= r.n {
		panic(fmt.Sprintf("relation: row %d out of range (len %d)", i, r.n))
	}
	return r.row(i)
}

// Clone returns an independent deep copy: the arena and dedup table are
// copied wholesale, with no per-tuple rehashing, and rows not yet in the
// table stay pending in the copy. Indexes are not copied; they rebuild
// lazily.
func (r *Relation) Clone() *Relation {
	out := &Relation{
		arity:   r.arity,
		data:    append([]ast.Value(nil), r.data...),
		n:       r.n,
		table:   append([]uint32(nil), r.table...),
		mask:    r.mask,
		pending: r.pending,
		junk:    r.junk,
	}
	if r.counts != nil {
		// Not append to nil: an empty counted relation clones counted.
		out.counts = append(make([]int32, 0, len(r.counts)), r.counts...)
	}
	return out
}

// Equal reports whether r and s contain exactly the same live tuples.
func (r *Relation) Equal(s *Relation) bool {
	if r.arity != s.arity || r.Len() != s.Len() {
		return false
	}
	for i := 0; i < r.n; i++ {
		if r.counts != nil && r.counts[i] <= 0 {
			continue
		}
		if !s.Contains(r.row(i)) {
			return false
		}
	}
	return true
}

// SortedRows returns the tuples in lexicographic order; for deterministic
// output and tests.
func (r *Relation) SortedRows() []Tuple {
	out := r.Rows()
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		for k := range a {
			if a[k] != b[k] {
				return a[k] < b[k]
			}
		}
		return false
	})
	return out
}

// String renders the relation's raw tuples; for debugging.
func (r *Relation) String() string {
	var b strings.Builder
	b.WriteByte('{')
	for i, t := range r.SortedRows() {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteByte('(')
		for j, v := range t {
			if j > 0 {
				b.WriteByte(',')
			}
			fmt.Fprintf(&b, "%d", v)
		}
		b.WriteByte(')')
	}
	b.WriteByte('}')
	return b.String()
}

// indexSig packs a column set into one integer: 6 bits per column (value
// col+1), length in the high bits. Unique whenever every column is < 63 and
// there are at most 9 columns; wider sets report ok=false and take the
// linear overflow path.
func indexSig(cols []int) (uint64, bool) {
	if len(cols) > 9 {
		return 0, false
	}
	sig := uint64(len(cols))
	for _, c := range cols {
		if c < 0 || c >= 63 {
			return 0, false
		}
		sig = sig<<6 | uint64(c+1)
	}
	return sig, true
}

func sameCols(a []int, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// IndexOn returns a hash index on the given columns, building or refreshing
// it as needed. Indexes are cached per column set and maintained
// incrementally because rows are append-only.
func (r *Relation) IndexOn(cols ...int) *Index {
	var idx *Index
	if sig, ok := indexSig(cols); ok {
		if r.indexes == nil {
			r.indexes = make(map[uint64]*Index)
		}
		idx = r.indexes[sig]
		if idx == nil {
			idx = newIndex(r, cols)
			r.indexes[sig] = idx
		}
	} else {
		for _, ix := range r.extra {
			if sameCols(ix.cols, cols) {
				idx = ix
				break
			}
		}
		if idx == nil {
			idx = newIndex(r, cols)
			r.extra = append(r.extra, idx)
		}
	}
	idx.refresh()
	return idx
}

// Index is a hash index over a column subset of a relation. Rows with equal
// indexed columns form a run — a contiguous ascending window of a shared
// []int32 postings arena — so a range-restricted lookup is one hash probe
// plus a binary search. Runs grow by relocation to the arena's end with
// doubled capacity; the abandoned region is never overwritten, so a run
// slice captured before a reentrant refresh stays valid (its missing new
// ids are out of the caller's row range by construction: rows inserted
// after a lookup's bounds were taken have ids >= hi).
type Index struct {
	rel  *Relation
	cols []int

	slots   []int32 // open addressing: entry id + 1, 0 = empty
	mask    uint64  // len(slots) - 1
	entries []idxEntry
	post    []int32 // postings arena, runs of ascending row ids
	built   int     // rows indexed so far
}

// idxEntry is one distinct key: its hash, its current run window, and a
// representative row whose indexed columns spell the key out.
type idxEntry struct {
	hash        uint64
	off, n, cap int32
	rep         int32
}

const initialSlotSize = 16

func newIndex(r *Relation, cols []int) *Index {
	return &Index{
		rel:   r,
		cols:  append([]int(nil), cols...),
		slots: make([]int32, initialSlotSize),
		mask:  initialSlotSize - 1,
	}
}

// rowHash hashes the indexed columns of row straight from the arena.
func (ix *Index) rowHash(row int) uint64 {
	base := row * ix.rel.arity
	var h uint64
	for _, c := range ix.cols {
		h = hashVal(h, ix.rel.data[base+c])
	}
	return hashFinish(h)
}

// keyEqualRow reports whether row's indexed columns equal entry e's key.
func (ix *Index) keyEqualRow(e *idxEntry, row int) bool {
	a := int(e.rep) * ix.rel.arity
	b := row * ix.rel.arity
	for _, c := range ix.cols {
		if ix.rel.data[a+c] != ix.rel.data[b+c] {
			return false
		}
	}
	return true
}

// keyEqualVals reports whether vals equal entry e's key.
func (ix *Index) keyEqualVals(e *idxEntry, vals []ast.Value) bool {
	a := int(e.rep) * ix.rel.arity
	for i, c := range ix.cols {
		if ix.rel.data[a+c] != vals[i] {
			return false
		}
	}
	return true
}

// refresh extends the index over rows appended since the last refresh.
func (ix *Index) refresh() {
	for ; ix.built < ix.rel.n; ix.built++ {
		row := ix.built
		h := ix.rowHash(row)
		i := h & ix.mask
		ei := int32(-1)
		for {
			s := ix.slots[i]
			if s == 0 {
				break
			}
			if e := &ix.entries[s-1]; e.hash == h && ix.keyEqualRow(e, row) {
				ei = s - 1
				break
			}
			i = (i + 1) & ix.mask
		}
		if ei < 0 {
			// New key: open a 2-slot run at the arena's end.
			off := ix.grow(2)
			ix.entries = append(ix.entries, idxEntry{hash: h, off: off, cap: 2, rep: int32(row)})
			ei = int32(len(ix.entries) - 1)
			ix.slots[i] = ei + 1
			if uint64(len(ix.entries))*4 >= uint64(len(ix.slots))*3 {
				ix.growSlots()
			}
		}
		e := &ix.entries[ei]
		if e.n == e.cap {
			// Relocate the run to the end with doubled capacity. The old
			// region is abandoned, never reused: captured run slices stay
			// intact.
			newOff := ix.grow(e.cap * 2)
			copy(ix.post[newOff:], ix.post[e.off:e.off+e.n])
			e.off = newOff
			e.cap *= 2
		}
		ix.post[e.off+e.n] = int32(row)
		e.n++
	}
}

// grow extends the postings arena by c zeroed slots, returning their offset.
func (ix *Index) grow(c int32) int32 {
	off := len(ix.post)
	need := off + int(c)
	if need <= cap(ix.post) {
		ix.post = ix.post[:need]
		for i := off; i < need; i++ {
			ix.post[i] = 0
		}
		return int32(off)
	}
	newCap := 2 * cap(ix.post)
	if newCap < need {
		newCap = need
	}
	if newCap < 64 {
		newCap = 64
	}
	np := make([]int32, need, newCap)
	copy(np, ix.post)
	ix.post = np
	return int32(off)
}

// growSlots doubles the slot table, rehashing from the stored entry hashes.
func (ix *Index) growSlots() {
	ns := make([]int32, len(ix.slots)*2)
	mask := uint64(len(ns) - 1)
	for i := range ix.entries {
		j := ix.entries[i].hash & mask
		for ns[j] != 0 {
			j = (j + 1) & mask
		}
		ns[j] = int32(i + 1)
	}
	ix.slots = ns
	ix.mask = mask
}

// Probe returns the ascending run of row ids in [lo,hi) whose indexed
// columns equal vals, as a shared sub-slice of the postings arena that a
// join level suspends over. The index is refreshed first, so rows inserted
// since IndexOn are visible. Callers must not modify the run. The captured run is immune to relocation (abandoned
// regions are never reused), and rows inserted after the probe have ids >=
// the relation length at refresh time, hence >= any legal hi.
func (ix *Index) Probe(vals []ast.Value, lo, hi int) []int32 {
	ix.refresh()
	h := hashVals(vals)
	i := h & ix.mask
	var run []int32
	for {
		s := ix.slots[i]
		if s == 0 {
			return nil
		}
		if e := &ix.entries[s-1]; e.hash == h && ix.keyEqualVals(e, vals) {
			run = ix.post[e.off : e.off+e.n]
			break
		}
		i = (i + 1) & ix.mask
	}
	// Runs are ascending. Most probes read the whole run, so the binary
	// searches only run when a window bound cuts into it.
	start, end := 0, len(run)
	if end > 0 && int(run[0]) < lo {
		start = sort.Search(end, func(k int) bool { return int(run[k]) >= lo })
	}
	if end > start && int(run[end-1]) >= hi {
		end = start + sort.Search(end-start, func(k int) bool { return int(run[start+k]) >= hi })
	}
	return run[start:end]
}
