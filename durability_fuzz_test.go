package parlog

import (
	"testing"

	"parlog/internal/relation"
)

// The fuzz targets below feed arbitrary bytes to the record payload
// decoders recovery runs on every write-ahead-log and segment record. A
// checksum-valid record can still carry a payload written by other code,
// so each decoder must either decode or return an error, never panic, and
// a decoded value must survive a re-encode unchanged.

// sameTuples reports whether two per-predicate tuple maps hold the same
// tuples in the same order; nil and empty lists are equal.
func sameTuples(a, b map[string][]Tuple) bool {
	if len(a) != len(b) {
		return false
	}
	for pred, ta := range a {
		tb, ok := b[pred]
		if !ok || len(ta) != len(tb) {
			return false
		}
		for i := range ta {
			if len(ta[i]) != len(tb[i]) {
				return false
			}
			for j := range ta[i] {
				if ta[i][j] != tb[i][j] {
					return false
				}
			}
		}
	}
	return true
}

func FuzzDecodeApply(f *testing.F) {
	f.Add([]byte{})
	f.Add(encodeApply(7, nil, nil))
	f.Add(encodeApply(3, map[string][]relation.Tuple{"par": {{1, 2}, {3, 4}}},
		map[string][]relation.Tuple{"par": {{5, 6}}, "e": {{}}}))
	f.Fuzz(func(t *testing.T, p []byte) {
		epoch, del, ins, err := decodeApply(p)
		if err != nil {
			return
		}
		e2, del2, ins2, err := decodeApply(encodeApply(epoch, del, ins))
		if err != nil {
			t.Fatalf("re-encoded apply record does not decode: %v", err)
		}
		if e2 != epoch || !sameTuples(del, del2) || !sameTuples(ins, ins2) {
			t.Fatalf("apply record changed in a round trip: (%d, %v, %v) became (%d, %v, %v)",
				epoch, del, ins, e2, del2, ins2)
		}
	})
}

func FuzzDecodeNames(f *testing.F) {
	f.Add([]byte{})
	f.Add(encodeNames(0, nil))
	f.Add(encodeNames(12, []string{"a", "", "héllo"}))
	f.Fuzz(func(t *testing.T, p []byte) {
		base, names, err := decodeNames(p)
		if err != nil {
			return
		}
		b2, names2, err := decodeNames(encodeNames(base, names))
		if err != nil {
			t.Fatalf("re-encoded names record does not decode: %v", err)
		}
		if b2 != base || len(names2) != len(names) {
			t.Fatalf("names record changed in a round trip: (%d, %q) became (%d, %q)", base, names, b2, names2)
		}
		for i := range names {
			if names[i] != names2[i] {
				t.Fatalf("name %d changed in a round trip: %q became %q", i, names[i], names2[i])
			}
		}
	})
}

func FuzzDecodeSegMeta(f *testing.F) {
	f.Add([]byte{})
	f.Add(encodeSegMeta(0, Store{}))
	f.Add(encodeSegMeta(9, Store{"par": relation.New(2), "e": relation.New(0)}))
	f.Fuzz(func(t *testing.T, p []byte) {
		epoch, arities, err := decodeSegMeta(p)
		if err != nil {
			return
		}
		edb := Store{}
		for pred, a := range arities {
			edb[pred] = relation.New(a)
		}
		e2, arities2, err := decodeSegMeta(encodeSegMeta(epoch, edb))
		if err != nil {
			t.Fatalf("re-encoded meta record does not decode: %v", err)
		}
		if e2 != epoch || len(arities2) != len(arities) {
			t.Fatalf("meta record changed in a round trip: (%d, %v) became (%d, %v)", epoch, arities, e2, arities2)
		}
		for pred, a := range arities {
			if arities2[pred] != a {
				t.Fatalf("arity of %s changed in a round trip: %d became %d", pred, a, arities2[pred])
			}
		}
	})
}
