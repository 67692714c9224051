package network

import (
	"errors"
	"testing"

	"parlog/internal/hashpart"
)

func TestCheckTransferableOwnershipMove(t *testing.T) {
	// Plain ownership moves (identity relabel) are always transferable.
	c := Candidate{Buckets: 4, Workers: 2, Owner: []int{0, 1, 1, 0}}
	tr, err := CheckTransferable(c, []bool{true, true, true, true}, nil)
	if err != nil {
		t.Fatalf("ownership move rejected: %v", err)
	}
	if tr == nil {
		t.Fatal("nil transfer on success")
	}
}

func TestCheckTransferableRejectsPinnedRelabel(t *testing.T) {
	c := Candidate{
		Buckets: 4, Workers: 2,
		Owner:   []int{0, 0, 1, 1},
		Relabel: []int{1, 0, 2, 3}, // swap buckets 0 and 1
	}
	_, err := CheckTransferable(c, []bool{true, false, false, false}, nil)
	if !errors.Is(err, ErrNotTransferable) {
		t.Fatalf("pinned relabel: got %v, want ErrNotTransferable", err)
	}
	// The same swap with no pinned buckets passes.
	if _, err := CheckTransferable(c, []bool{false, false, false, false}, nil); err != nil {
		t.Fatalf("unpinned relabel rejected: %v", err)
	}
}

func TestCheckTransferableRejectsMalformed(t *testing.T) {
	cases := []Candidate{
		{Buckets: 0, Workers: 1, Owner: nil},
		{Buckets: 2, Workers: 1, Owner: []int{0}},                          // short owner map
		{Buckets: 2, Workers: 1, Owner: []int{0, 1}},                       // worker out of range
		{Buckets: 2, Workers: 2, Owner: []int{0, 1}, Relabel: []int{0}},    // short relabel
		{Buckets: 2, Workers: 2, Owner: []int{0, 1}, Relabel: []int{0, 0}}, // not a permutation
	}
	for i, c := range cases {
		if _, err := CheckTransferable(c, nil, nil); !errors.Is(err, ErrNotTransferable) {
			t.Errorf("case %d: got %v, want ErrNotTransferable", i, err)
		}
	}
}

func TestCheckTransferableCollapsesDerivation(t *testing.T) {
	// Ancestor under a bit-vector h over one variable: 2 buckets, derived
	// self-pairs only (the right-linear rule keeps work bucket-local), so
	// any owner map induces zero cross edges.
	s := mustSirup(t, `
anc(X, Y) :- par(X, Y).
anc(X, Y) :- par(X, Z), anc(Z, Y).
`)
	d, err := Derive(s, []string{"Y"}, []string{"Y"}, BitVectorF(1), BitVectorF(1), hashpart.RangeProcs(2))
	if err != nil {
		t.Fatal(err)
	}
	c := Candidate{Buckets: 2, Workers: 2, Owner: []int{0, 1}}
	tr, err := CheckTransferable(c, nil, d)
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.CrossEdges) != 0 {
		t.Errorf("self-pair derivation induced cross edges %v", tr.CrossEdges)
	}

	// A broadcast derivation (discriminating variable X absent from Ȳ)
	// pairs every producer with every bucket; co-hosting all buckets on one
	// worker still kills every cross edge, splitting them recreates it.
	db, err := Derive(s, []string{"X"}, []string{"X"}, BitVectorF(1), BitVectorF(1), hashpart.RangeProcs(2))
	if err != nil {
		t.Fatal(err)
	}
	if !db.Broadcast {
		t.Fatal("expected broadcast derivation for vr=[X]")
	}
	one := Candidate{Buckets: 2, Workers: 2, Owner: []int{1, 1}}
	tr, err = CheckTransferable(one, nil, db)
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.CrossEdges) != 0 {
		t.Errorf("co-hosted buckets still cross: %v", tr.CrossEdges)
	}
	split := Candidate{Buckets: 2, Workers: 2, Owner: []int{0, 1}}
	tr, err = CheckTransferable(split, nil, db)
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.CrossEdges) == 0 {
		t.Error("split broadcast buckets induced no cross edges")
	}

	// A derivation over the wrong processor count proves nothing.
	bad := Candidate{Buckets: 3, Workers: 2, Owner: []int{0, 1, 0}}
	if _, err := CheckTransferable(bad, nil, d); !errors.Is(err, ErrNotTransferable) {
		t.Errorf("mismatched derivation: got %v, want ErrNotTransferable", err)
	}
}
