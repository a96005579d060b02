package schema

import (
	"cmp"
	"math"
	"testing"
	"testing/quick"

	"github.com/mahif/mahif/internal/types"
)

func testSchema() *Schema {
	return New("orders",
		Col("id", types.KindInt),
		Col("customer", types.KindString),
		Col("price", types.KindFloat),
	)
}

func TestSchemaBasics(t *testing.T) {
	s := testSchema()
	if s.Arity() != 3 {
		t.Errorf("arity = %d", s.Arity())
	}
	if got := s.ColIndex("price"); got != 2 {
		t.Errorf("ColIndex(price) = %d", got)
	}
	if got := s.ColIndex("PRICE"); got != 2 {
		t.Errorf("case-insensitive ColIndex = %d", got)
	}
	if got := s.ColIndex("missing"); got != -1 {
		t.Errorf("ColIndex(missing) = %d", got)
	}
}

func TestSchemaClone(t *testing.T) {
	s := testSchema()
	c := s.Clone()
	c.Columns[0].Name = "changed"
	if s.Columns[0].Name != "id" {
		t.Error("Clone shares column storage")
	}
	if !s.Equal(testSchema()) {
		t.Error("schema no longer equals its spec")
	}
}

func TestSchemaEqual(t *testing.T) {
	a := testSchema()
	b := testSchema()
	b.Relation = "other" // relation name is ignored
	if !a.Equal(b) {
		t.Error("schemas with same columns must be equal")
	}
	c := New("orders", Col("id", types.KindInt))
	if a.Equal(c) {
		t.Error("different arity compared equal")
	}
	d := New("orders", Col("id", types.KindFloat), Col("customer", types.KindString), Col("price", types.KindFloat))
	if a.Equal(d) {
		t.Error("different column type compared equal")
	}
}

func TestSchemaString(t *testing.T) {
	got := testSchema().String()
	want := "orders(id int, customer string, price float)"
	if got != want {
		t.Errorf("String() = %q, want %q", got, want)
	}
}

func TestTupleCloneAndEqual(t *testing.T) {
	a := NewTuple(types.Int(1), types.String("x"))
	b := a.Clone()
	b[0] = types.Int(2)
	if a[0].AsInt() != 1 {
		t.Error("Clone shares storage")
	}
	if !a.Equal(NewTuple(types.Int(1), types.String("x"))) {
		t.Error("Equal failed on identical tuples")
	}
	if a.Equal(NewTuple(types.Int(1))) {
		t.Error("Equal ignored arity")
	}
	if a.Equal(b) {
		t.Error("Equal ignored value change")
	}
}

func TestTupleKeyDistinguishesKinds(t *testing.T) {
	cases := [][2]Tuple{
		{NewTuple(types.Int(1)), NewTuple(types.String("1"))},
		{NewTuple(types.Null()), NewTuple(types.Int(0))},
		{NewTuple(types.Bool(true)), NewTuple(types.String("true"))},
	}
	for _, c := range cases {
		if c[0].Key() == c[1].Key() {
			t.Errorf("keys collide: %s vs %s", c[0], c[1])
		}
	}
	// Int/float that compare equal share a key (delta treats them equal).
	if NewTuple(types.Int(1)).Key() != NewTuple(types.Float(1)).Key() {
		t.Error("1 and 1.0 must share a key")
	}
}

func TestTupleString(t *testing.T) {
	got := NewTuple(types.Int(1), types.String("a"), types.Null()).String()
	if got != "(1, 'a', NULL)" {
		t.Errorf("String() = %q", got)
	}
}

// Property: Key equality coincides with tuple equality for int tuples.
func TestTupleKeyProperty(t *testing.T) {
	f := func(a, b []int8) bool {
		ta := make(Tuple, len(a))
		for i, v := range a {
			ta[i] = types.Int(int64(v))
		}
		tb := make(Tuple, len(b))
		for i, v := range b {
			tb[i] = types.Int(int64(v))
		}
		return (ta.Key() == tb.Key()) == ta.Equal(tb)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestTupleCompareOrder pins the canonical order deltas are reported
// in: NULL < numerics by value < strings < bools, column by column, a
// proper prefix first.
func TestTupleCompareOrder(t *testing.T) {
	ascending := []Tuple{
		{},
		NewTuple(types.Null()),
		NewTuple(types.Null(), types.Int(0)),
		NewTuple(types.Float(math.Inf(-1))),
		NewTuple(types.Int(-1)),
		NewTuple(types.Float(-0.5)),
		NewTuple(types.Int(0)),
		NewTuple(types.Int(1)),
		NewTuple(types.Float(1.5)),
		NewTuple(types.Int(2), types.Null()),
		NewTuple(types.Int(2), types.String("")),
		NewTuple(types.Int(10)), // by value, not by rendering: "10" < "2"
		NewTuple(types.String("")),
		NewTuple(types.String("10")),
		NewTuple(types.String("2")),
		NewTuple(types.Bool(false)),
		NewTuple(types.Bool(true)),
	}
	for i, a := range ascending {
		for j, b := range ascending {
			want := cmp.Compare(i, j)
			if got := a.Compare(b); got != want {
				t.Errorf("%s.Compare(%s) = %d, want %d", a, b, got, want)
			}
		}
	}
	ties := [][2]Tuple{
		{NewTuple(types.Int(1)), NewTuple(types.Float(1))},
		{NewTuple(types.Float(math.Copysign(0, -1))), NewTuple(types.Int(0))},
		{NewTuple(types.Float(math.Copysign(0, -1))), NewTuple(types.Float(0))},
	}
	for _, p := range ties {
		if p[0].Compare(p[1]) != 0 || !p[0].Equal(p[1]) || p[0].Hash() != p[1].Hash() {
			t.Errorf("%s and %s must tie under Compare, Equal and Hash", p[0], p[1])
		}
	}
}

// fuzzTuples decodes three short tuples from fuzz bytes. Cells cover
// every kind, int/float pairs that are equal by value, both zeros,
// infinities and the 2^53 boundary. Ints stay within ±2^53 and no cell
// is NaN: beyond that Value.Equal is itself not transitive (see
// Tuple.Compare), so no order could agree with it.
func fuzzTuples(data []byte) [3]Tuple {
	numerics := []types.Value{
		types.Int(0), types.Float(0), types.Float(math.Copysign(0, -1)),
		types.Int(1), types.Float(1), types.Float(1.5), types.Int(-1),
		types.Int(1 << 53), types.Float(1 << 53), types.Int(-(1 << 53)),
		types.Float(math.Inf(1)), types.Float(math.Inf(-1)), types.Float(math.MaxFloat64),
	}
	next := func() byte {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return b
	}
	var out [3]Tuple
	for i := range out {
		t := make(Tuple, next()%4)
		for c := range t {
			switch tag := next(); tag % 6 {
			case 0:
				t[c] = types.Null()
			case 1:
				t[c] = types.Int(int64(int8(next())))
			case 2:
				t[c] = types.Float(float64(int8(next())) / 2)
			case 3:
				t[c] = types.String(string([]byte{next(), next()}[:tag/6%3]))
			case 4:
				t[c] = types.Bool(next()%2 == 1)
			case 5:
				t[c] = numerics[int(next())%len(numerics)]
			}
		}
		out[i] = t
	}
	return out
}

// FuzzTupleCompare checks that Compare is a total order that agrees
// with the other two typed identities: antisymmetric, transitive, and
// Compare == 0 ⇔ Equal ⇒ Hash equal.
func FuzzTupleCompare(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1, 5, 3, 1, 5, 4, 1, 1, 1})                // (1) (1.0) (1): int/float ties
	f.Add([]byte{1, 5, 1, 1, 5, 2, 1, 0})                   // (0.0) (-0.0) (NULL)
	f.Add([]byte{2, 5, 7, 3, 'a', 2, 5, 8, 9, 'a', 'b', 0}) // 2^53 int vs float, strings
	f.Add([]byte{3, 0, 4, 1, 15, 'x', 'y', 3, 0, 4, 0, 2, 7, 2, 1, 200, 2, 3})
	f.Fuzz(func(t *testing.T, data []byte) {
		ts := fuzzTuples(data)
		for _, a := range ts {
			if a.Compare(a) != 0 {
				t.Fatalf("%s does not tie with itself", a)
			}
			for _, b := range ts {
				ab := a.Compare(b)
				if ba := b.Compare(a); ab != -ba {
					t.Fatalf("not antisymmetric: %s vs %s: %d and %d", a, b, ab, ba)
				}
				if (ab == 0) != a.Equal(b) {
					t.Fatalf("%s vs %s: Compare = %d but Equal = %t", a, b, ab, a.Equal(b))
				}
				if ab == 0 && a.Hash() != b.Hash() {
					t.Fatalf("%s and %s tie but hash differently", a, b)
				}
				for _, c := range ts {
					if ab <= 0 && b.Compare(c) <= 0 && a.Compare(c) > 0 {
						t.Fatalf("not transitive: %s <= %s <= %s", a, b, c)
					}
				}
			}
		}
	})
}
