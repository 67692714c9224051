package wire

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"parlog/internal/ast"
	"parlog/internal/relation"
)

func mkRows(seed, count, arity int) []relation.Tuple {
	rng := rand.New(rand.NewSource(int64(seed)))
	rows := make([]relation.Tuple, count)
	for i := range rows {
		t := make(relation.Tuple, arity)
		for j := range t {
			t[j] = ast.Value(rng.Intn(1 << 20))
		}
		rows[i] = t
	}
	return rows
}

func TestBatchRoundTrip(t *testing.T) {
	for _, tc := range []struct{ count, arity int }{
		{0, 0}, {1, 1}, {1, 3}, {7, 2}, {100, 4}, {1000, 1},
	} {
		rows := mkRows(tc.count+tc.arity, tc.count, tc.arity)
		raw := AppendBatch(nil, rows)
		got, err := DecodeBatch(raw)
		if err != nil {
			t.Fatalf("%d×%d: %v", tc.count, tc.arity, err)
		}
		if len(got) != len(rows) {
			t.Fatalf("%d×%d: decoded %d rows", tc.count, tc.arity, len(got))
		}
		for i := range rows {
			if !got[i].Equal(rows[i]) {
				t.Fatalf("%d×%d: row %d = %v, want %v", tc.count, tc.arity, i, got[i], rows[i])
			}
		}
		if bc := BatchCount(raw); bc != tc.count {
			t.Errorf("BatchCount = %d, want %d", bc, tc.count)
		}
	}
}

// TestFlatRoundTrip: AppendFlat encodes a flat batch to the same bytes as
// AppendBatch over its tuples, DecodeFlat gives it back, and a batch of
// zero-arity tuples keeps its count.
func TestFlatRoundTrip(t *testing.T) {
	for _, tc := range []struct{ count, arity int }{
		{0, 0}, {1, 0}, {2, 0}, {1, 1}, {5, 1}, {7, 2}, {100, 4},
	} {
		b := relation.Batch{Arity: tc.arity}
		for _, row := range mkRows(tc.count+tc.arity, tc.count, tc.arity) {
			b.Append(row)
		}
		raw := AppendFlat(nil, b)
		if want := AppendBatch(nil, b.Tuples()); !bytes.Equal(raw, want) {
			t.Fatalf("%d×%d: AppendFlat %x, AppendBatch %x", tc.count, tc.arity, raw, want)
		}
		got, err := DecodeFlat(raw)
		if err != nil {
			t.Fatalf("%d×%d: %v", tc.count, tc.arity, err)
		}
		if got.N != b.N {
			t.Fatalf("%d×%d: decoded %d tuples", tc.count, tc.arity, got.N)
		}
		for i := 0; i < b.N; i++ {
			if !got.Row(i).Equal(b.Row(i)) {
				t.Fatalf("%d×%d: row %d = %v, want %v", tc.count, tc.arity, i, got.Row(i), b.Row(i))
			}
		}
		if bc := BatchCount(raw); bc != tc.count {
			t.Errorf("%d×%d: BatchCount = %d", tc.count, tc.arity, bc)
		}
		rel := relation.New(tc.arity)
		if n, err := DecodeInto(raw, rel); err != nil || n != tc.count || !slices.Equal(rel.Flat(0).Vals, got.Vals) {
			t.Fatalf("%d×%d: DecodeInto appended %d tuples %v, err %v; DecodeFlat %v", tc.count, tc.arity, n, rel.Flat(0).Vals, err, got.Vals)
		}
	}
	// A zero-arity header may not claim more tuples than it has bytes.
	if _, err := DecodeFlat([]byte{0xff, 0xff, 0x03, 0x00}); err == nil {
		t.Fatal("zero-arity batch claiming 65535 tuples in 4 bytes accepted")
	}
}

// TestAppendFlatSizesExactly: AppendFlat sizes its growth to the exact
// encoded length, so a destination with exactly that much spare capacity
// is written in place, and uvarintLen agrees with the encoder at every
// varint length boundary.
func TestAppendFlatSizesExactly(t *testing.T) {
	for _, x := range []uint64{0, 1, 127, 128, 1<<14 - 1, 1 << 14, 1<<21 - 1, 1 << 21, 1<<28 - 1, 1 << 28, 1<<32 - 1} {
		if got, want := uvarintLen(x), len(binary.AppendUvarint(nil, x)); got != want {
			t.Errorf("uvarintLen(%d) = %d, want %d", x, got, want)
		}
	}
	b := relation.Batch{Arity: 3}
	for i := 0; i < 200; i++ {
		b.Append(relation.Tuple{ast.Value(i), ast.Value(i << 9), ast.Value(-1 - i)})
	}
	want := AppendFlat(nil, b)
	dst := append(make([]byte, 0, 2+len(want)), 0xaa, 0xbb)
	got := AppendFlat(dst, b)
	if &got[0] != &dst[0] || !bytes.Equal(got[2:], want) {
		t.Fatalf("AppendFlat into %d spare bytes reallocated or wrote %d bytes, want %d in place", len(want), len(got)-2, len(want))
	}
}

func TestBatchNilAndEmpty(t *testing.T) {
	if rows, err := DecodeBatch(nil); err != nil || rows != nil {
		t.Fatalf("DecodeBatch(nil) = %v, %v", rows, err)
	}
	raw := AppendBatch(nil, nil)
	if rows, err := DecodeBatch(raw); err != nil || len(rows) != 0 {
		t.Fatalf("empty batch decoded to %v, %v", rows, err)
	}
	if BatchCount(nil) != 0 || BatchCount(raw) != 0 {
		t.Error("empty batches must count zero tuples")
	}
}

func TestBatchTruncated(t *testing.T) {
	raw := AppendBatch(nil, mkRows(3, 10, 3))
	for cut := 1; cut < len(raw); cut++ {
		if _, err := DecodeBatch(raw[:cut]); err == nil {
			// A cut can still be a valid shorter stream only if the header
			// count matches; with 10×3 values every proper prefix is short.
			t.Fatalf("truncation at %d/%d not detected", cut, len(raw))
		}
	}
}

func TestBatchHeaderLiesRejected(t *testing.T) {
	raw := AppendBatch(nil, mkRows(1, 2, 2))
	// Forge a count far beyond the payload: must error, not allocate.
	forged := append([]byte{0xff, 0xff, 0xff, 0xff, 0x0f}, raw...)
	if _, err := DecodeBatch(forged); err == nil {
		t.Fatal("forged batch count accepted")
	}
	rel := relation.New(2)
	if _, err := DecodeInto(forged, rel); err == nil || rel.Len() != 0 {
		t.Fatalf("DecodeInto of a forged batch count: err %v, %d rows", err, rel.Len())
	}
	if _, err := DecodeInto(raw, relation.New(3)); err == nil {
		t.Error("DecodeInto accepted an arity-2 batch for an arity-3 relation")
	}
}

func TestSnapshotRoundTrip(t *testing.T) {
	snap := map[string][]relation.Tuple{
		"anc":  mkRows(1, 50, 2),
		"edge": mkRows(2, 20, 2),
		"p":    mkRows(3, 5, 4),
	}
	raw := AppendSnapshot(nil, snap)
	got := map[string][]relation.Tuple{}
	var order []string
	err := DecodeSnapshot(raw, func(pred string, b relation.Batch) error {
		got[pred] = b.Tuples()
		order = append(order, pred)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if want := []string{"anc", "edge", "p"}; !reflect.DeepEqual(order, want) {
		t.Fatalf("decode order %v, want sorted %v", order, want)
	}
	for pred, rows := range snap {
		if len(got[pred]) != len(rows) {
			t.Fatalf("%s: %d rows, want %d", pred, len(got[pred]), len(rows))
		}
		for i := range rows {
			if !got[pred][i].Equal(rows[i]) {
				t.Fatalf("%s row %d mismatch", pred, i)
			}
		}
	}
	if n := SnapshotTuples(raw); n != 75 {
		t.Errorf("SnapshotTuples = %d, want 75", n)
	}
	if SnapshotTuples(nil) != 0 {
		t.Error("nil snapshot must count zero")
	}
}

func TestSnapshotDeterministicEncoding(t *testing.T) {
	// Two maps with identical contents built in different insert orders
	// must encode identically — that is what lets the checksum travel with
	// the bytes instead of being recomputed over a canonical form.
	a := map[string][]relation.Tuple{"x": mkRows(4, 3, 2), "y": mkRows(5, 4, 1)}
	b := map[string][]relation.Tuple{"y": mkRows(5, 4, 1), "x": mkRows(4, 3, 2)}
	ra, rb := AppendSnapshot(nil, a), AppendSnapshot(nil, b)
	if !bytes.Equal(ra, rb) {
		t.Fatal("equal snapshots encoded differently")
	}
	if Checksum(ra) != Checksum(rb) {
		t.Fatal("equal encodings hashed differently")
	}
}

func TestChecksumDetectsCorruption(t *testing.T) {
	raw := AppendSnapshot(nil, map[string][]relation.Tuple{"anc": mkRows(6, 30, 2)})
	sum := Checksum(raw)
	for i := 0; i < len(raw); i += 7 {
		bad := append([]byte(nil), raw...)
		bad[i] ^= 0x40
		if Checksum(bad) == sum {
			t.Fatalf("bit flip at byte %d not detected", i)
		}
	}
}

// TestSmallerThanGob pins the point of the codec: a typical data batch is
// several times smaller than the gob encoding of the equivalent payload.
func TestSmallerThanGob(t *testing.T) {
	// Values are interner indexes: dense small integers, 1–2 varint bytes.
	rng := rand.New(rand.NewSource(8))
	rows := make([]relation.Tuple, 200)
	for i := range rows {
		rows[i] = relation.Tuple{ast.Value(rng.Intn(2000)), ast.Value(rng.Intn(2000))}
	}
	raw := AppendBatch(nil, rows)
	vals := make([][]ast.Value, len(rows))
	for i, r := range rows {
		vals[i] = r
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(vals); err != nil {
		t.Fatal(err)
	}
	if len(raw)*3 >= buf.Len()*2 {
		t.Fatalf("wire %d bytes vs gob %d: want at least 1.5× smaller", len(raw), buf.Len())
	}
}
