package wire

import (
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
	}
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
