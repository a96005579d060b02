package delta

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"github.com/mahif/mahif/internal/schema"
	"github.com/mahif/mahif/internal/storage"
	"github.com/mahif/mahif/internal/types"
)

func rel(vals ...int64) *storage.Relation {
	r := storage.NewRelation(schema.New("t", schema.Col("a", types.KindInt)))
	for _, v := range vals {
		r.Add(schema.Tuple{types.Int(v)})
	}
	return r
}

func TestComputeDisjoint(t *testing.T) {
	d := Compute(rel(1, 2), rel(3, 4))
	if len(d.Minus) != 2 || len(d.Plus) != 2 {
		t.Fatalf("delta = %s", d)
	}
}

func TestComputeIdentical(t *testing.T) {
	d := Compute(rel(1, 2, 3), rel(3, 2, 1))
	if !d.Empty() {
		t.Errorf("identical bags must have empty delta, got %s", d)
	}
}

func TestComputeMultiset(t *testing.T) {
	// old has 1×3, new has 1×1: two copies exclusively in old.
	d := Compute(rel(1, 1, 1), rel(1))
	if len(d.Minus) != 2 || len(d.Plus) != 0 {
		t.Fatalf("multiset delta wrong: %s", d)
	}
}

func TestComputeAnnotationSides(t *testing.T) {
	d := Compute(rel(1), rel(2))
	if d.Minus[0][0].AsInt() != 1 {
		t.Errorf("minus side = %v, want the old tuple", d.Minus[0])
	}
	if d.Plus[0][0].AsInt() != 2 {
		t.Errorf("plus side = %v, want the new tuple", d.Plus[0])
	}
}

func TestComputeEmptyRelations(t *testing.T) {
	if d := Compute(rel(), rel()); !d.Empty() {
		t.Errorf("∅ vs ∅ delta: %s", d)
	}
	if d := Compute(rel(1), rel()); len(d.Minus) != 1 || len(d.Plus) != 0 {
		t.Errorf("delete-all delta: %s", d)
	}
}

func TestSizeAndEqual(t *testing.T) {
	a := Compute(rel(1, 2), rel(2, 3))
	if a.Size() != 2 {
		t.Errorf("Size = %d", a.Size())
	}
	b := Compute(rel(2, 1), rel(3, 2))
	if !a.Equal(b) {
		t.Error("order-insensitive Equal failed")
	}
	c := Compute(rel(1), rel(4))
	if a.Equal(c) {
		t.Error("different deltas compared equal")
	}
}

func TestString(t *testing.T) {
	d := Compute(rel(1), rel(2))
	s := d.String()
	if !strings.Contains(s, "- (1)") || !strings.Contains(s, "+ (2)") {
		t.Errorf("String() = %q", s)
	}
}

func TestSet(t *testing.T) {
	set := Set{
		"a": Compute(rel(1), rel(1)),
		"b": Compute(rel(1), rel(2)),
	}
	if set.Empty() {
		t.Error("set with non-empty member reported empty")
	}
	if set.Size() != 2 {
		t.Errorf("set Size = %d", set.Size())
	}
	if !strings.Contains(set.String(), "Δ t") {
		t.Errorf("set String = %q", set.String())
	}
	empty := Set{"a": Compute(rel(1), rel(1))}
	if !empty.Empty() {
		t.Error("empty set reported non-empty")
	}
	if !strings.Contains(empty.String(), "∅") {
		t.Errorf("empty set String = %q", empty.String())
	}
}

// Property: Δ is symmetric under swapping arguments (sides flip) and
// Δ(A,A) is empty, for random multisets.
func TestDeltaProperties(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	for i := 0; i < 300; i++ {
		mk := func() *storage.Relation {
			n := r.Intn(12)
			vals := make([]int64, n)
			for j := range vals {
				vals[j] = int64(r.Intn(5))
			}
			return rel(vals...)
		}
		a, b := mk(), mk()
		ab := Compute(a, b)
		ba := Compute(b, a)
		if len(ab.Minus) != len(ba.Plus) || len(ab.Plus) != len(ba.Minus) {
			t.Fatalf("asymmetry: %s vs %s", ab, ba)
		}
		if d := Compute(a, a); !d.Empty() {
			t.Fatalf("Δ(A,A) not empty: %s", d)
		}
		// |Δ| = |A| + |B| − 2·|A ∩ B| (multiset intersection).
		ib := storage.NewTupleIndex(b.Len())
		for _, tu := range b.Tuples {
			ib.Add(tu)
		}
		inter := 0
		for _, tu := range a.Tuples {
			if ib.Remove(tu) {
				inter++
			}
		}
		if want := a.Len() + b.Len() - 2*inter; ab.Size() != want {
			t.Fatalf("size %d, want %d", ab.Size(), want)
		}
	}
}

// TestNaNRowsReachBothSides: a tuple holding NaN equals no tuple, itself
// included (Value.Equal), so it never cancels and appears on its side of
// the delta — through Compute and through ComputeColumnar, with the
// float column on its typed lane and boxed. Draining Plus by looking
// each new tuple up again lost it: no lookup finds a NaN tuple.
func TestNaNRowsReachBothSides(t *testing.T) {
	sch := schema.New("t", schema.Col("x", types.KindFloat), schema.Col("k", types.KindInt))
	nan := schema.Tuple{types.Float(math.NaN()), types.Int(1)}
	one := schema.Tuple{types.Float(1), types.Int(1)}
	relOf := func(ts ...schema.Tuple) *storage.Relation {
		r := storage.NewRelation(sch)
		r.Tuples = append(r.Tuples, ts...)
		return r
	}
	render := func(ts []schema.Tuple) string {
		var parts []string
		for _, tu := range ts {
			parts = append(parts, tu.String())
		}
		return strings.Join(parts, " ")
	}
	for _, c := range []struct {
		name             string
		old, new         []schema.Tuple
		wantMin, wantPlu string
	}{
		{"an update to NaN", []schema.Tuple{one}, []schema.Tuple{nan}, "(1.0, 1)", "(NaN.0, 1)"},
		{"NaN against NaN", []schema.Tuple{nan}, []schema.Tuple{nan}, "(NaN.0, 1)", "(NaN.0, 1)"},
		{"NaN against NaN, misaligned", []schema.Tuple{one, nan}, []schema.Tuple{nan}, "(1.0, 1) (NaN.0, 1)", "(NaN.0, 1)"},
		{"a NaN row beside a duplicate", []schema.Tuple{nan, one}, []schema.Tuple{one, nan, one}, "(NaN.0, 1)", "(1.0, 1) (NaN.0, 1)"},
	} {
		results := map[string]*Result{"Compute": Compute(relOf(c.old...), relOf(c.new...))}
		for _, boxed := range []bool{false, true} {
			got, _ := ComputeColumnar(laneView(relOf(c.old...), boxed), laneView(relOf(c.new...), boxed))
			results[fmt.Sprintf("ComputeColumnar (boxed %v)", boxed)] = got
		}
		for entry, d := range results {
			if got := render(d.Minus); got != c.wantMin {
				t.Errorf("%s, %s: Minus %s, want %s", c.name, entry, got, c.wantMin)
			}
			if got := render(d.Plus); got != c.wantPlu {
				t.Errorf("%s, %s: Plus %s, want %s", c.name, entry, got, c.wantPlu)
			}
		}
	}
}
