package storage

import (
	"math"
	"math/rand"
	"testing"

	"github.com/mahif/mahif/internal/schema"
	"github.com/mahif/mahif/internal/types"
)

// indexOf builds the multiset index of a relation's tuples.
func indexOf(r *Relation) *TupleIndex {
	ix := NewTupleIndex(len(r.Tuples))
	for _, t := range r.Tuples {
		ix.Add(t)
	}
	return ix
}

// count returns the multiplicity of t in ix.
func count(ix *TupleIndex, t schema.Tuple) int {
	for _, e := range ix.buckets[t.Hash()] {
		if e.tuple.Equal(t) {
			return e.count
		}
	}
	return 0
}

// distinct returns the number of resident entries of ix.
func distinct(ix *TupleIndex) int {
	n := 0
	for _, bucket := range ix.buckets {
		n += len(bucket)
	}
	return n
}

func TestTupleIndexMultiset(t *testing.T) {
	r := intRel("t", 1, 2, 2, 3, 3, 3)
	ix := indexOf(r)
	if ix.Len() != 6 || distinct(ix) != 3 {
		t.Fatalf("Len=%d Distinct=%d, want 6/3", ix.Len(), distinct(ix))
	}
	two := schema.Tuple{types.Int(2)}
	if count(ix, two) != 2 {
		t.Fatalf("Count(2) = %d", count(ix, two))
	}
	if !ix.Remove(two) || count(ix, two) != 1 || ix.Len() != 5 {
		t.Fatal("Remove did not decrement")
	}
	if !ix.Remove(two) || ix.Remove(two) {
		t.Fatal("Remove past zero succeeded")
	}
	if count(ix, schema.Tuple{types.Int(9)}) != 0 {
		t.Fatal("absent tuple has nonzero count")
	}
}

// TestTupleIndexCrossKindNumeric pins the Key-compatible equivalence:
// 1 (int) and 1.0 (float) are one multiset element, '1' (string) is
// not.
func TestTupleIndexCrossKindNumeric(t *testing.T) {
	ix := NewTupleIndex(0)
	ix.Add(schema.Tuple{types.Int(1)})
	ix.Add(schema.Tuple{types.Float(1.0)})
	ix.Add(schema.Tuple{types.String("1")})
	if got := count(ix, schema.Tuple{types.Int(1)}); got != 2 {
		t.Fatalf("Count(1) = %d, want 2 (int+float)", got)
	}
	if got := count(ix, schema.Tuple{types.String("1")}); got != 1 {
		t.Fatalf("Count('1') = %d, want 1", got)
	}
	if distinct(ix) != 2 {
		t.Fatalf("Distinct = %d, want 2", distinct(ix))
	}
}

// TestTupleIndexNegativeZero pins the −0.0 canonicalization: the two
// zeros compare equal (types.Value.Equal, the = operator), so they
// must land in one index entry — a hash that split them would make the
// compiled hash join and the delta disagree with the interpreter.
func TestTupleIndexNegativeZero(t *testing.T) {
	pos := schema.Tuple{types.Float(0.0)}
	neg := schema.Tuple{types.Float(math.Copysign(0, -1))}
	if !pos.Equal(neg) {
		t.Fatal("0.0 and -0.0 must compare equal")
	}
	if pos.Hash() != neg.Hash() {
		t.Fatal("0.0 and -0.0 hash differently")
	}
	ix := NewTupleIndex(0)
	ix.Add(pos)
	if count(ix, neg) != 1 || !ix.Remove(neg) {
		t.Fatal("-0.0 does not find +0.0 in the index")
	}
}

// TestHashAgreesWithKey cross-checks the two canonical encodings over
// random tuples: equal keys must imply equal hashes (the index relies
// on it), and Equal must imply both.
func TestHashAgreesWithKey(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	randVal := func() types.Value {
		switch rng.Intn(5) {
		case 0:
			return types.Null()
		case 1:
			return types.Int(int64(rng.Intn(4)))
		case 2:
			return types.Float(float64(rng.Intn(4)))
		case 3:
			return types.String([]string{"0", "1", "x"}[rng.Intn(3)])
		default:
			return types.Bool(rng.Intn(2) == 0)
		}
	}
	tuples := make([]schema.Tuple, 300)
	for i := range tuples {
		tuples[i] = schema.Tuple{randVal(), randVal()}
	}
	for _, a := range tuples {
		for _, b := range tuples {
			if a.Key() == b.Key() && a.Hash() != b.Hash() {
				t.Fatalf("equal keys, different hashes: %s vs %s", a, b)
			}
			if a.Equal(b) && a.Hash() != b.Hash() {
				t.Fatalf("Equal tuples with different hashes: %s vs %s", a, b)
			}
		}
	}
}
