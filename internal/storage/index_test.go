package storage

import (
	"math"
	"math/rand"
	"testing"

	"github.com/mahif/mahif/internal/schema"
	"github.com/mahif/mahif/internal/types"
)

func TestTupleIndexMultiset(t *testing.T) {
	r := intRel("t", 1, 2, 2, 3, 3, 3)
	ix := r.Index()
	if ix.Len() != 6 || ix.Distinct() != 3 {
		t.Fatalf("Len=%d Distinct=%d, want 6/3", ix.Len(), ix.Distinct())
	}
	two := schema.Tuple{types.Int(2)}
	if ix.Count(two) != 2 {
		t.Fatalf("Count(2) = %d", ix.Count(two))
	}
	if !ix.Remove(two) || ix.Count(two) != 1 || ix.Len() != 5 {
		t.Fatal("Remove did not decrement")
	}
	if !ix.Remove(two) || ix.Remove(two) {
		t.Fatal("Remove past zero succeeded")
	}
	if ix.Count(schema.Tuple{types.Int(9)}) != 0 {
		t.Fatal("absent tuple has nonzero count")
	}
	// Range skips exhausted entries.
	seen := 0
	ix.Range(func(tp schema.Tuple, count int) { seen += count })
	if seen != 4 {
		t.Fatalf("Range total = %d, want 4", seen)
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
	if got := ix.Count(schema.Tuple{types.Int(1)}); got != 2 {
		t.Fatalf("Count(1) = %d, want 2 (int+float)", got)
	}
	if got := ix.Count(schema.Tuple{types.String("1")}); got != 1 {
		t.Fatalf("Count('1') = %d, want 1", got)
	}
	if ix.Distinct() != 2 {
		t.Fatalf("Distinct = %d, want 2", ix.Distinct())
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
	if ix.Count(neg) != 1 || !ix.Remove(neg) {
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

func TestEqualMultiset(t *testing.T) {
	a := intRel("t", 1, 2, 2).Index()
	b := intRel("t", 2, 1, 2).Index()
	if !a.EqualMultiset(b) {
		t.Fatal("order must not matter")
	}
	c := intRel("t", 1, 2, 3).Index()
	if a.EqualMultiset(c) {
		t.Fatal("different multisets compare equal")
	}
}
