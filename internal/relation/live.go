package relation

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// Counted mode: the incremental-view-maintenance annotation column.
//
// A counted relation carries one int32 per physical row — the tuple's
// derivation count (number of base supports plus successful rule firings
// deriving it). The live set is the rows with count > 0. Rows stay
// append-only: a deletion decrements counts and a count reaching zero marks
// the row dead in place (it keeps its dedup-table slot so a later re-insert
// can detect the rebirth), while a rebirth appends a NEW physical row and
// repoints the dedup table — so newly-live tuples always occupy fresh row
// ids and the engine's row-id watermarks delimit maintenance deltas exactly
// as they delimit semi-naive deltas.
//
// Next to the counts, a counted relation keeps a liveness bitmap, one bit
// per row: the count's sign, kept where a snapshot can copy it in rows/64
// words (see Pin).
//
// countSuperseded marks the abandoned old row of a rebirth; such rows are
// unreachable garbage, never reclaimed.
const countSuperseded int32 = -1

// EnableCounts switches r to counted mode, giving every existing row count
// initial. No-op if already counted.
func (r *Relation) EnableCounts(initial int32) {
	if r.counts != nil {
		return
	}
	r.counts = make([]int32, r.n)
	r.live = make([]uint64, (r.n+63)/64)
	for i := range r.counts {
		r.counts[i] = initial
		if initial > 0 {
			r.live[i/64] |= 1 << (i % 64)
		}
	}
}

// Counted reports whether r is in counted mode.
func (r *Relation) Counted() bool { return r.counts != nil }

// Alive reports whether row id is live. Plain relations are entirely live,
// at the cost of one nil check.
func (r *Relation) Alive(row int) bool {
	return r.live == nil || r.live[row>>6]&(1<<(uint(row)&63)) != 0
}

// CountOf returns row's derivation count (0 for dead, countSuperseded<0 for
// superseded rows). Panics in plain mode.
func (r *Relation) CountOf(row int) int32 { return r.counts[row] }

// LookupRow returns the canonical physical row of t, alive or dead, or -1
// when t was never inserted (or its only rows are superseded — impossible,
// rebirth always leaves a canonical row).
func (r *Relation) LookupRow(t Tuple) int {
	if len(t) != r.arity {
		return -1
	}
	r.ready()
	_, row := r.find(t, hashVals(t))
	return row
}

// InsertDelta adds delta (> 0) to t's derivation count in counted mode,
// returning the tuple's canonical row and whether it just became live. A
// tuple that is absent — or present but dead — lands on a freshly appended
// physical row, so callers can rely on row-id watermarks to see exactly the
// newly-live tuples; a dead predecessor is marked superseded and unlinked.
func (r *Relation) InsertDelta(t Tuple, delta int32) (int, bool) {
	if r.counts == nil {
		panic("relation: InsertDelta on a plain (uncounted) relation")
	}
	if len(t) != r.arity {
		panic(fmt.Sprintf("relation: inserting arity-%d tuple into arity-%d relation", len(t), r.arity))
	}
	if delta <= 0 {
		panic("relation: InsertDelta requires a positive delta")
	}
	r.ready()
	h := hashVals(t)
	i, row := r.find(t, h)
	if row >= 0 {
		if r.counts[row] > 0 {
			r.counts[row] += delta
			return row, false
		}
		// Rebirth: supersede the dead row; the fresh one below repoints
		// its slot.
		r.counts[row] = countSuperseded
	}
	row = r.appendRow(t, delta)
	r.table[i] = slot(row, h, r.mask)
	r.maybeGrow()
	return row, true
}

// appendRow appends t to the arena as a live row with the given count,
// returning its row.
func (r *Relation) appendRow(t Tuple, count int32) int {
	row := r.n
	r.data = append(r.data, t...)
	r.counts = append(r.counts, count)
	if row%64 == 0 {
		r.live = append(r.live, 0)
	}
	r.live[row/64] |= 1 << (row % 64)
	r.n++
	return row
}

// maybeGrow grows the dedup table past 3/4 load. Superseded rows still hold
// slots until the next grow, so counted mode grows on physical rows like
// plain mode does — slightly early, never late.
func (r *Relation) maybeGrow() {
	if uint64(r.n)*4 >= uint64(len(r.table))*3 {
		r.growTable()
	}
}

// AddDelta adjusts row's count by delta (typically negative, from a
// deletion). A count reaching zero kills the row in place; it must not go
// negative — that is an engine bug. Returns true when the row just died.
func (r *Relation) AddDelta(row int, delta int32) bool {
	c := r.counts[row] + delta
	if c < 0 {
		panic(fmt.Sprintf("relation: row %d count underflow (%d%+d)", row, r.counts[row], delta))
	}
	wasAlive := r.counts[row] > 0
	r.counts[row] = c
	if wasAlive && c == 0 {
		r.live[row/64] &^= 1 << (row % 64)
		r.junk++
		return true
	}
	if !wasAlive && c > 0 {
		// Resurrection in place is forbidden: watermark deltas would miss it.
		panic("relation: AddDelta resurrected a dead row; use InsertDelta")
	}
	return false
}

// SetCount overwrites row's count, maintaining the junk accounting. Used by
// the rederivation pass, which recomputes exact counts for revived tuples.
// The row must currently be alive (SetCount cannot resurrect).
func (r *Relation) SetCount(row int, c int32) {
	if c <= 0 || r.counts[row] <= 0 {
		panic("relation: SetCount must keep an alive row alive")
	}
	r.counts[row] = c
}

// pinLock guards the state a pinned relation builds on first use, its
// dedup table and its indexes, which the readers sharing it all see.
// tabled is set once the table is built, so a probe takes the lock only
// until then.
type pinLock struct {
	mu     sync.Mutex
	tabled atomic.Bool
}

// Pin returns an immutable snapshot of r's live tuples, the form handed to
// concurrent readers. The snapshot aliases r's arena up to its current row
// count: r never rewrites a row (a rebirth appends one and a death only
// zeroes a count), and later appends land beyond the pin, in memory the
// snapshot never reads. It takes a private copy of the liveness bitmap, so
// it shares nothing mutable with r, and it hashes nothing: its dedup table
// is built by its first probe and its indexes enter only its live rows,
// both under the snapshot's own lock. A pin costs one bit per row.
func (r *Relation) Pin() *Relation {
	end := r.n * r.arity
	p := &Relation{
		arity:   r.arity,
		data:    r.data[:end:end],
		n:       r.n,
		pending: r.n,
		junk:    r.junk,
		pin:     &pinLock{},
	}
	if r.live != nil {
		p.live = append([]uint64(nil), r.live...)
	}
	return p
}
