package types_test

import (
	"encoding/json"
	"math"
	"reflect"
	"testing"
	"unicode/utf8"

	"github.com/mahif/mahif/internal/schema"
	"github.com/mahif/mahif/internal/types"
)

// TestValueSize pins the cell size every tuple, lane and delta pays per
// attribute (the size unsafe.Sizeof reports): a field that grows it
// must fail here. The zero Value stays NULL.
func TestValueSize(t *testing.T) {
	if got := reflect.TypeFor[types.Value]().Size(); got != 32 {
		t.Errorf("types.Value is %d bytes, want 32", got)
	}
	var zero types.Value
	if !zero.IsNull() || zero.Kind() != types.KindNull || zero != types.Null() {
		t.Errorf("the zero Value is %v (kind %s), want NULL", zero, zero.Kind())
	}
}

// TestValueIdentityAndEquality: == on Values is bit identity of kind,
// payload and string, Equal is value equality, and the row hash folds
// what Equal identifies (±0, 1 and 1.0) to one value.
func TestValueIdentityAndEquality(t *testing.T) {
	negZero := math.Copysign(0, -1)
	nan := math.NaN()
	otherNaN := math.Float64frombits(math.Float64bits(nan) ^ 1)
	cases := []struct {
		name      string
		a, b      types.Value
		same, equ bool
	}{
		{"+0 vs -0", types.Float(0), types.Float(negZero), false, true},
		{"-0 vs -0", types.Float(negZero), types.Float(negZero), true, true},
		{"NaN vs its own bits", types.Float(nan), types.Float(nan), true, false},
		{"NaN vs another payload", types.Float(nan), types.Float(otherNaN), false, false},
		{"1 vs 1.0", types.Int(1), types.Float(1), false, true},
		{"0 vs false", types.Int(0), types.False, false, false},
		{"1 vs true", types.Int(1), types.True, false, false},
		{"NULL vs 0", types.Null(), types.Int(0), false, false},
		{"NULL vs empty string", types.Null(), types.String(""), false, false},
		{"NULL vs NULL", types.Null(), types.Null(), true, true},
		{"strings", types.String("ab"), types.String("a" + string('b')), true, true},
		{"bools", types.True, types.Bool(true), true, true},
	}
	for _, c := range cases {
		if got := c.a == c.b; got != c.same {
			t.Errorf("%s: %v == %v is %v, want %v", c.name, c.a, c.b, got, c.same)
		}
		if got := c.a.Equal(c.b); got != c.equ {
			t.Errorf("%s: %v.Equal(%v) = %v, want %v", c.name, c.a, c.b, got, c.equ)
		}
	}
	const h0 = 0x9e3779b97f4a7c15
	zero := schema.HashValue(h0, types.Float(0))
	for _, v := range []types.Value{types.Float(negZero), types.Int(0)} {
		if got := schema.HashValue(h0, v); got != zero {
			t.Errorf("HashValue(%v) = %#x, want HashValue(0.0) = %#x", v, got, zero)
		}
	}
	if schema.HashValue(h0, types.Int(1)) != schema.HashValue(h0, types.Float(1)) {
		t.Error("HashValue(1) != HashValue(1.0)")
	}
}

// FuzzValueRoundTrip: every constructor gives its input back bit for bit
// (any float bits: ±0, ±Inf, NaN payloads), the wire encoding
// round-trips every finite value to the identical cell, and Equal and
// Compare agree with Go's comparisons: Equal with int64 == on two ints
// and float64 == otherwise, Compare with float64 < and > on the
// operands widened to float64 (the SQL comparison, under which 2^53 and
// 2^53+1 tie).
func FuzzValueRoundTrip(f *testing.F) {
	f.Add(int64(0), int64(0), math.Float64bits(0), math.Float64bits(math.Copysign(0, -1)), "", false)
	f.Add(int64(math.MinInt64), int64(math.MaxInt64), math.Float64bits(math.NaN()), math.Float64bits(math.NaN())^1, "a\"b<", true)
	f.Add(int64(1<<53+1), int64(1<<53), math.Float64bits(math.Inf(1)), math.Float64bits(math.Inf(-1)), "\xff ", true)
	f.Add(int64(-1), int64(1), math.Float64bits(1), math.Float64bits(5e-324), "日本語", false)
	f.Fuzz(func(t *testing.T, i, j int64, xb, yb uint64, s string, b bool) {
		x, y := math.Float64frombits(xb), math.Float64frombits(yb)
		if v := types.Int(i); v.Kind() != types.KindInt || v.AsInt() != i || v.AsFloat() != float64(i) {
			t.Fatalf("Int(%d) gave %v", i, v)
		}
		for _, bits := range []uint64{xb, yb} {
			if v := types.Float(math.Float64frombits(bits)); v.Kind() != types.KindFloat || math.Float64bits(v.AsFloat()) != bits {
				t.Fatalf("Float(%#x) gave bits %#x", bits, math.Float64bits(v.AsFloat()))
			}
		}
		if v := types.String(s); v.Kind() != types.KindString || v.AsString() != s {
			t.Fatalf("String(%q) gave %v", s, v)
		}
		if v := types.Bool(b); v.Kind() != types.KindBool || v.AsBool() != b || v.IsTrue() != b {
			t.Fatalf("Bool(%v) gave %v", b, v)
		}

		vals := []types.Value{types.Null(), types.Int(i), types.String(s), types.Bool(b)}
		if !math.IsNaN(x) && !math.IsInf(x, 0) {
			vals = append(vals, types.Float(x))
		}
		for _, v := range vals {
			data, err := v.AppendJSON(nil)
			if err != nil {
				t.Fatalf("AppendJSON(%v): %v", v, err)
			}
			var back types.Value
			if err := back.UnmarshalJSON(data); err != nil {
				t.Fatalf("%v: unmarshal %s: %v", v, data, err)
			}
			want := v
			if v.Kind() == types.KindString && !utf8.ValidString(s) {
				var u string
				if err := json.Unmarshal(data, &u); err != nil {
					t.Fatal(err)
				}
				want = types.String(u)
			}
			if back != want {
				t.Fatalf("round trip %v → %s → %v", v, data, back)
			}
		}

		order := func(less, greater bool) int {
			switch {
			case less:
				return -1
			case greater:
				return 1
			}
			return 0
		}
		pairs := []struct {
			a, b    types.Value
			eq      bool
			ordered int
		}{
			{types.Int(i), types.Int(j), i == j, order(float64(i) < float64(j), float64(i) > float64(j))},
			{types.Float(x), types.Float(y), x == y, order(x < y, x > y)},
			{types.Int(i), types.Float(y), float64(i) == y, order(float64(i) < y, float64(i) > y)},
		}
		for _, p := range pairs {
			if got := p.a.Equal(p.b); got != p.eq {
				t.Fatalf("%v.Equal(%v) = %v, want %v", p.a, p.b, got, p.eq)
			}
			if got, err := p.a.Compare(p.b); err != nil || got != p.ordered {
				t.Fatalf("%v.Compare(%v) = %d, %v; want %d", p.a, p.b, got, err, p.ordered)
			}
		}
	})
}
