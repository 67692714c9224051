// Package wire is the compact binary codec for relation payloads on the
// distributed data plane. Values are interned constants (small non-negative
// integers in practice), so a batch of tuples encodes as a run of unsigned
// varints — typically one or two bytes per value against gob's per-message
// type dictionary and per-slice headers. The coordinator never needs to
// look inside a payload except to count tuples, so it stores and replays
// checkpoints as the same opaque byte blobs it verified, and charges its
// memory budget the encoded length.
//
// Formats (all integers unsigned LEB128 varints):
//
//	batch    = count arity value×(count·arity)
//	snapshot = npreds (namelen name batch)×npreds    — names ascending
package wire

import (
	"encoding/binary"
	"fmt"
	"math/bits"
	"slices"
	"sort"

	"parlog/internal/ast"
	"parlog/internal/relation"
)

// maxNullaryBatch caps the count of a batch of zero-arity tuples.
const maxNullaryBatch = 1 << 10

// AppendFlat appends the batch encoding of b to dst and returns the
// extended slice. An empty batch encodes as count 0, arity 0; a batch of
// zero-arity tuples is its count alone.
func AppendFlat(dst []byte, b relation.Batch) []byte {
	if b.N == 0 {
		return appendHeader(dst, 0, 0)
	}
	vals := b.Vals[:b.N*b.Arity]
	// Grow dst once to the exact encoded length: a whole relation's output
	// would otherwise be copied at every doubling.
	n := uvarintLen(uint64(b.N)) + uvarintLen(uint64(b.Arity))
	for _, v := range vals {
		n += uvarintLen(uint64(uint32(v)))
	}
	return appendValues(appendHeader(slices.Grow(dst, n), b.N, b.Arity), vals)
}

// uvarintLen is the length of x's unsigned varint encoding.
func uvarintLen(x uint64) int { return (bits.Len64(x|1) + 6) / 7 }

// AppendBatch is AppendFlat for rows held as tuple headers, all of one
// arity.
func AppendBatch(dst []byte, rows []relation.Tuple) []byte {
	if len(rows) == 0 {
		return appendHeader(dst, 0, 0)
	}
	dst = appendHeader(dst, len(rows), len(rows[0]))
	for _, t := range rows {
		dst = appendValues(dst, t)
	}
	return dst
}

func appendHeader(dst []byte, count, arity int) []byte {
	return binary.AppendUvarint(binary.AppendUvarint(dst, uint64(count)), uint64(arity))
}

func appendValues(dst []byte, vals []ast.Value) []byte {
	for _, v := range vals {
		dst = binary.AppendUvarint(dst, uint64(uint32(v)))
	}
	return dst
}

// DecodeFlat decodes one batch into a single pointer-free value slice.
func DecodeFlat(raw []byte) (relation.Batch, error) {
	b, _, _, err := decodeBatch(nil, raw)
	return b, err
}

// DecodeAppend decodes one batch into values appended to buf, and returns
// the batch, a window of the returned buffer, with that buffer. A receiver
// that decodes every batch of a step into one buffer, reused across steps
// from its start, allocates only when the buffer grows; each batch stays
// valid until the buffer is reused.
func DecodeAppend(buf []ast.Value, raw []byte) (relation.Batch, []ast.Value, error) {
	b, buf, _, err := decodeBatch(buf, raw)
	return b, buf, err
}

// decodeBatch decodes the batch at the head of raw into values appended to
// buf, reading each value once, and returns the batch, the grown buffer and
// the bytes after the batch. On error buf comes back as it was.
func decodeBatch(buf []ast.Value, raw []byte) (relation.Batch, []ast.Value, []byte, error) {
	count, arity, rest, err := batchHeader(raw)
	if err != nil || count == 0 {
		return relation.Batch{}, buf, rest, err
	}
	base, end := len(buf), len(buf)+count*arity
	grown := slices.Grow(buf, count*arity)[:end]
	flat := grown[base:end:end]
	if rest, err = decodeValues(rest, flat); err != nil {
		return relation.Batch{}, buf, nil, err
	}
	return relation.Batch{Arity: arity, N: count, Vals: flat}, grown, rest, nil
}

// DecodeInto decodes one batch and appends its tuples to dst with no dedup
// probe: the caller guarantees they are distinct and not yet in dst, as for
// relation.AppendDisjointVals. The values are decoded once, straight into
// dst's arena, and the header's tuple count is bounded before dst grows (by
// the payload's length, or for zero-arity tuples by a small constant), so a
// hostile header cannot force a large allocation. It returns the number of
// tuples appended; on error dst is left as it was.
func DecodeInto(raw []byte, dst *relation.Relation) (int, error) {
	count, arity, rest, err := batchHeader(raw)
	if err != nil || count == 0 {
		return 0, err
	}
	if arity != dst.Arity() {
		return 0, fmt.Errorf("wire: arity-%d batch for an arity-%d relation", arity, dst.Arity())
	}
	err = dst.AppendDisjointVals(count, func(vals []ast.Value) error {
		_, err := decodeValues(rest, vals)
		return err
	})
	if err != nil {
		return 0, err
	}
	return count, nil
}

// decodeValues fills dst with the values at the head of raw and returns the
// bytes after them. Interned constants are small, so the one- and two-byte
// varints are decoded inline.
func decodeValues(raw []byte, dst []ast.Value) ([]byte, error) {
	for i := range dst {
		if len(raw) >= 2 {
			if b0 := raw[0]; b0 < 0x80 {
				dst[i] = ast.Value(b0)
				raw = raw[1:]
				continue
			} else if b1 := raw[1]; b1 < 0x80 {
				dst[i] = ast.Value(uint32(b0&0x7f) | uint32(b1)<<7)
				raw = raw[2:]
				continue
			}
		}
		v, n := binary.Uvarint(raw)
		if n <= 0 {
			return nil, fmt.Errorf("wire: truncated batch at value %d/%d", i, len(dst))
		}
		dst[i] = ast.Value(uint32(v))
		raw = raw[n:]
	}
	return raw, nil
}

// DecodeBatch is DecodeFlat returning tuple headers into the one value
// slice.
func DecodeBatch(raw []byte) ([]relation.Tuple, error) {
	b, err := DecodeFlat(raw)
	if err != nil {
		return nil, err
	}
	return b.Tuples(), nil
}

// BatchCount returns a batch's tuple count without decoding its values;
// malformed input counts as zero.
func BatchCount(raw []byte) int {
	count, _, _, err := batchHeader(raw)
	if err != nil {
		return 0
	}
	return count
}

func batchHeader(raw []byte) (count, arity int, rest []byte, err error) {
	if len(raw) == 0 {
		return 0, 0, nil, nil // nil payload: the empty batch
	}
	c, n := binary.Uvarint(raw)
	if n <= 0 {
		return 0, 0, nil, fmt.Errorf("wire: truncated batch count")
	}
	a, m := binary.Uvarint(raw[n:])
	if m <= 0 {
		return 0, 0, nil, fmt.Errorf("wire: truncated batch arity")
	}
	// Every value takes at least one byte. A batch of zero-arity tuples has
	// no values to bound its count by: there is only one such tuple, so a
	// sender's batch holds one. A constant cap bounds the per-tuple work a
	// forged count could cause; unlike a cap tied to the payload's length,
	// it also admits every decoded batch again once re-encoded.
	if a == 0 && c > maxNullaryBatch || a > 0 && (c*a/a != c || c*a > uint64(len(raw))) {
		return 0, 0, nil, fmt.Errorf("wire: batch header claims %d×%d values in %d bytes", c, a, len(raw))
	}
	return int(c), int(a), raw[n+m:], nil
}

// AppendSnapshot appends the snapshot encoding of snap — one batch per
// predicate, names in ascending order so equal snapshots encode to equal
// bytes (the checksum below then travels with the blob).
func AppendSnapshot(dst []byte, snap map[string][]relation.Tuple) []byte {
	preds := make([]string, 0, len(snap))
	for pred := range snap {
		preds = append(preds, pred)
	}
	sort.Strings(preds)
	dst = binary.AppendUvarint(dst, uint64(len(preds)))
	for _, pred := range preds {
		dst = binary.AppendUvarint(dst, uint64(len(pred)))
		dst = append(dst, pred...)
		dst = AppendBatch(dst, snap[pred])
	}
	return dst
}

// DecodeSnapshot streams a snapshot's per-predicate batches to fn, in the
// encoded (ascending-name) order. A nil or empty payload is the empty
// snapshot. Decoding stops at fn's first error.
func DecodeSnapshot(raw []byte, fn func(pred string, b relation.Batch) error) error {
	if len(raw) == 0 {
		return nil
	}
	npreds, n := binary.Uvarint(raw)
	if n <= 0 {
		return fmt.Errorf("wire: truncated snapshot header")
	}
	raw = raw[n:]
	for i := uint64(0); i < npreds; i++ {
		nameLen, n := binary.Uvarint(raw)
		if n <= 0 || uint64(len(raw)-n) < nameLen {
			return fmt.Errorf("wire: truncated snapshot name")
		}
		pred := string(raw[n : n+int(nameLen)])
		raw = raw[n+int(nameLen):]
		b, _, rest, err := decodeBatch(nil, raw)
		if err != nil {
			return err
		}
		if err := fn(pred, b); err != nil {
			return err
		}
		raw = rest
	}
	return nil
}

// SnapshotTuples returns a snapshot's total tuple count by walking the
// varint stream without materializing anything; malformed input counts as
// zero from the point of damage.
func SnapshotTuples(raw []byte) int {
	total := 0
	if len(raw) == 0 {
		return 0
	}
	npreds, n := binary.Uvarint(raw)
	if n <= 0 {
		return 0
	}
	raw = raw[n:]
	for i := uint64(0); i < npreds; i++ {
		nameLen, n := binary.Uvarint(raw)
		if n <= 0 || uint64(len(raw)-n) < nameLen {
			return total
		}
		raw = raw[n+int(nameLen):]
		count, _, _, err := batchHeader(raw)
		if err != nil {
			return total
		}
		total += count
		body, err := batchLen(raw)
		if err != nil {
			return total
		}
		raw = raw[body:]
	}
	return total
}

// batchLen returns the encoded length of the batch at the head of raw by
// skipping its varints.
func batchLen(raw []byte) (int, error) {
	count, arity, rest, err := batchHeader(raw)
	if err != nil {
		return 0, err
	}
	off := len(raw) - len(rest)
	for i := 0; i < count*arity; i++ {
		_, n := binary.Uvarint(rest)
		if n <= 0 {
			return 0, fmt.Errorf("wire: truncated batch body")
		}
		rest = rest[n:]
		off += n
	}
	return off, nil
}

// Checksum is the FNV-1a hash of an encoded payload. Both ends hash the
// same bytes they ship or received, so a snapshot corrupted in transit is
// detected without decoding it.
func Checksum(raw []byte) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for _, b := range raw {
		h ^= uint64(b)
		h *= prime64
	}
	return h
}
