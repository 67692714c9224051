package wire

import (
	"runtime"
	"slices"
	"testing"

	"parlog/internal/relation"
)

// fuzz seeds: real encodings of the shapes the codec produces, so the
// mutator starts from structurally valid inputs rather than noise.
func seedBatches() [][]byte {
	rows := []relation.Tuple{{1, 2}, {3, 4}, {1 << 20, 7}}
	wide := []relation.Tuple{{1, 2, 3, 4, 5}}
	return [][]byte{
		nil,
		AppendBatch(nil, nil),
		AppendBatch(nil, rows),
		AppendBatch(nil, wide),
		AppendFlat(nil, relation.Batch{N: 1}),
		// A header claiming far more tuples than the payload holds.
		append([]byte{0xff, 0xff, 0xff, 0xff, 0x0f, 0x02}, AppendBatch(nil, rows)...),
	}
}

// decodeIntoBounded runs DecodeInto on raw over a relation of the given
// arity already holding one row and fails t unless the decode either
// appends exactly the batch's tuples or errors leaving the relation as it
// was, and unless it allocated no more than the payload can hold: a
// header's count is bounded by the payload before the relation grows.
func decodeIntoBounded(t *testing.T, raw []byte, arity int) *relation.Relation {
	t.Helper()
	rel := relation.New(arity)
	rel.Insert(make(relation.Tuple, arity))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	n, err := DecodeInto(raw, rel)
	runtime.ReadMemStats(&after)
	if grown := after.TotalAlloc - before.TotalAlloc; grown > 64*uint64(len(raw))+1<<16 {
		t.Fatalf("DecodeInto of %d bytes allocated %d bytes", len(raw), grown)
	}
	if err != nil {
		if n != 0 || rel.Len() != 1 || rel.Flat(0).N != 1 {
			t.Fatalf("DecodeInto failed (%v) but appended: n %d, %d rows", err, n, rel.Len())
		}
		return nil
	}
	if n != BatchCount(raw) || rel.Flat(0).N != 1+n {
		t.Fatalf("DecodeInto appended %d tuples (relation %d rows), BatchCount %d", n, rel.Flat(0).N, BatchCount(raw))
	}
	return rel
}

func seedSnapshots() [][]byte {
	return [][]byte{
		nil,
		AppendSnapshot(nil, nil),
		AppendSnapshot(nil, map[string][]relation.Tuple{
			"anc": {{1, 2}, {2, 3}},
			"par": {{1, 2}},
		}),
		AppendSnapshot(nil, map[string][]relation.Tuple{"empty": nil}),
	}
}

// FuzzDecodeBatch: arbitrary bytes must either decode or error — never
// panic, never over-read, and never return rows inconsistent with the
// header the decoder accepted.
func FuzzDecodeBatch(f *testing.F) {
	for _, s := range seedBatches() {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		rows, err := DecodeBatch(raw)
		if err != nil {
			if rows != nil {
				t.Fatalf("DecodeBatch returned rows alongside error %v", err)
			}
			return
		}
		if got := BatchCount(raw); got != len(rows) {
			t.Fatalf("BatchCount = %d, DecodeBatch returned %d rows", got, len(rows))
		}
		for i := 1; i < len(rows); i++ {
			if len(rows[i]) != len(rows[0]) {
				t.Fatalf("row %d arity %d != row 0 arity %d", i, len(rows[i]), len(rows[0]))
			}
		}
		// A successful decode must round-trip: re-encoding the rows and
		// decoding again yields the same tuples.
		if len(rows) > 0 {
			again, err := DecodeBatch(AppendBatch(nil, rows))
			if err != nil || len(again) != len(rows) {
				t.Fatalf("round-trip: %d rows, err %v", len(again), err)
			}
		}
		// Decoding into a relation agrees with DecodeBatch: it fails on
		// the same inputs (or on an arity the relation does not have),
		// and appends the same values after the row already there.
		for _, arity := range []int{2, 3} {
			rel := decodeIntoBounded(t, raw, arity)
			if err != nil && rel != nil {
				t.Fatalf("DecodeInto accepted what DecodeBatch rejected (%v)", err)
			}
			if rel != nil && len(rows) > 0 {
				got := rel.Flat(0)
				for i, row := range rows {
					if !got.Row(i + 1).Equal(row) {
						t.Fatalf("DecodeInto row %d = %v, DecodeBatch %v", i, got.Row(i+1), row)
					}
				}
			}
		}
	})
}

// FuzzDecodeSnapshot: arbitrary bytes must either stream cleanly or
// error — never panic — and SnapshotTuples must agree with what the
// decoder delivers. (Only the encoder guarantees ascending predicate
// order; arbitrary bytes may legally decode in any order.)
func FuzzDecodeSnapshot(f *testing.F) {
	for _, s := range seedSnapshots() {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		tuples := 0
		err := DecodeSnapshot(raw, func(pred string, b relation.Batch) error {
			tuples += b.N
			// The output hop decodes the same batches straight into
			// relations: both decoders must read them alike.
			if rel := decodeIntoBounded(t, AppendFlat(nil, b), b.Arity); rel == nil || rel.Flat(0).N != 1+b.N {
				t.Fatalf("DecodeInto rejected a batch of %s that DecodeSnapshot delivered", pred)
			} else if got := rel.Flat(0); b.N > 0 && !slices.Equal(got.Vals[b.Arity:], b.Vals) {
				t.Fatalf("DecodeInto read %s as %v, DecodeSnapshot %v", pred, got.Vals[b.Arity:], b.Vals)
			}
			return nil
		})
		if err != nil {
			return
		}
		if got := SnapshotTuples(raw); got != tuples {
			t.Fatalf("SnapshotTuples = %d, decoder delivered %d", got, tuples)
		}
	})
}
