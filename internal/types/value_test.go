package types

import (
	"testing"
	"testing/quick"
)

func TestKindString(t *testing.T) {
	cases := map[Kind]string{
		KindNull: "null", KindInt: "int", KindFloat: "float",
		KindString: "string", KindBool: "bool",
	}
	for k, want := range cases {
		if got := k.String(); got != want {
			t.Errorf("Kind(%d).String() = %q, want %q", k, got, want)
		}
	}
}

func TestConstructorsAndAccessors(t *testing.T) {
	if v := Int(42); v.Kind() != KindInt || v.AsInt() != 42 {
		t.Errorf("Int(42) = %v", v)
	}
	if v := Float(2.5); v.Kind() != KindFloat || v.AsFloat() != 2.5 {
		t.Errorf("Float(2.5) = %v", v)
	}
	if v := String("hi"); v.Kind() != KindString || v.AsString() != "hi" {
		t.Errorf("String = %v", v)
	}
	if v := Bool(true); v.Kind() != KindBool || !v.AsBool() {
		t.Errorf("Bool(true) = %v", v)
	}
	if !Null().IsNull() {
		t.Error("Null() not null")
	}
	var zero Value
	if !zero.IsNull() {
		t.Error("zero Value must be NULL")
	}
}

func TestAsFloatWidensInt(t *testing.T) {
	if got := Int(7).AsFloat(); got != 7.0 {
		t.Errorf("Int(7).AsFloat() = %v", got)
	}
}

func TestAccessorPanics(t *testing.T) {
	cases := []func(){
		func() { Null().AsInt() },
		func() { String("x").AsFloat() },
		func() { Int(1).AsString() },
		func() { Float(1).AsBool() },
	}
	for i, f := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: expected panic", i)
				}
			}()
			f()
		}()
	}
}

func TestIsTrue(t *testing.T) {
	if !Bool(true).IsTrue() {
		t.Error("Bool(true) must be true")
	}
	for _, v := range []Value{Bool(false), Null(), Int(1), String("true")} {
		if v.IsTrue() {
			t.Errorf("%v must not be true", v)
		}
	}
}

func TestString(t *testing.T) {
	cases := []struct {
		v    Value
		want string
	}{
		{Null(), "NULL"},
		{Int(-3), "-3"},
		{Float(2.5), "2.5"},
		{String("a"), "'a'"},
		{Bool(true), "true"},
		{Bool(false), "false"},
	}
	for _, c := range cases {
		if got := c.v.String(); got != c.want {
			t.Errorf("%#v.String() = %q, want %q", c.v, got, c.want)
		}
	}
}

func TestEqual(t *testing.T) {
	cases := []struct {
		a, b Value
		want bool
	}{
		{Int(1), Int(1), true},
		{Int(1), Int(2), false},
		{Int(1), Float(1), true}, // numeric cross-kind
		{Float(1.5), Float(1.5), true},
		{String("a"), String("a"), true},
		{String("a"), String("b"), false},
		{Bool(true), Bool(true), true},
		{Null(), Null(), true},
		{Null(), Int(0), false},
		{String("1"), Int(1), false},
	}
	for _, c := range cases {
		if got := c.a.Equal(c.b); got != c.want {
			t.Errorf("%v.Equal(%v) = %v, want %v", c.a, c.b, got, c.want)
		}
		if got := c.b.Equal(c.a); got != c.want {
			t.Errorf("Equal not symmetric for %v, %v", c.a, c.b)
		}
	}
}

func TestCompare(t *testing.T) {
	cases := []struct {
		a, b Value
		want int
	}{
		{Int(1), Int(2), -1},
		{Int(2), Int(1), 1},
		{Int(2), Float(2), 0},
		{Float(1.5), Int(2), -1},
		{String("a"), String("b"), -1},
		{String("b"), String("a"), 1},
		{Bool(false), Bool(true), -1},
		{Bool(true), Bool(true), 0},
	}
	for _, c := range cases {
		got, err := c.a.Compare(c.b)
		if err != nil {
			t.Errorf("Compare(%v,%v): %v", c.a, c.b, err)
			continue
		}
		if got != c.want {
			t.Errorf("Compare(%v,%v) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestCompareErrors(t *testing.T) {
	bad := [][2]Value{
		{Null(), Int(1)},
		{Int(1), Null()},
		{Int(1), String("1")},
		{Bool(true), Int(1)},
	}
	for _, pair := range bad {
		if _, err := pair[0].Compare(pair[1]); err == nil {
			t.Errorf("Compare(%v,%v): expected error", pair[0], pair[1])
		}
	}
}

func TestArithInts(t *testing.T) {
	cases := []struct {
		op   Op
		a, b int64
		want Value
	}{
		{OpAdd, 2, 3, Int(5)},
		{OpSub, 2, 3, Int(-1)},
		{OpMul, 4, 3, Int(12)},
		{OpDiv, 7, 2, Float(3.5)}, // division always floats
	}
	for _, c := range cases {
		got, err := Arith(c.op, Int(c.a), Int(c.b))
		if err != nil {
			t.Fatalf("Arith(%v): %v", c.op, err)
		}
		if !got.Equal(c.want) || got.Kind() != c.want.Kind() {
			t.Errorf("%d %s %d = %v (%v), want %v", c.a, c.op, c.b, got, got.Kind(), c.want)
		}
	}
}

func TestArithMixedPromotes(t *testing.T) {
	got, err := Arith(OpAdd, Int(1), Float(0.5))
	if err != nil {
		t.Fatal(err)
	}
	if got.Kind() != KindFloat || got.AsFloat() != 1.5 {
		t.Errorf("1 + 0.5 = %v", got)
	}
}

func TestArithNullPropagates(t *testing.T) {
	got, err := Arith(OpAdd, Null(), Int(1))
	if err != nil || !got.IsNull() {
		t.Errorf("NULL + 1 = %v, %v", got, err)
	}
}

func TestArithErrors(t *testing.T) {
	if _, err := Arith(OpAdd, String("a"), Int(1)); err == nil {
		t.Error("string arithmetic must error")
	}
	if _, err := Arith(OpDiv, Int(1), Int(0)); err == nil {
		t.Error("division by zero must error")
	}
}

// Property: int arithmetic on +,-,* agrees with Go int64 arithmetic.
func TestArithMatchesGoProperty(t *testing.T) {
	f := func(a, b int32) bool {
		x, y := int64(a), int64(b)
		for _, c := range []struct {
			op   Op
			want int64
		}{{OpAdd, x + y}, {OpSub, x - y}, {OpMul, x * y}} {
			got, err := Arith(c.op, Int(x), Int(y))
			if err != nil || got.AsInt() != c.want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: Compare is antisymmetric and Equal-consistent for ints.
func TestCompareAntisymmetricProperty(t *testing.T) {
	f := func(a, b int16) bool {
		va, vb := Int(int64(a)), Int(int64(b))
		ab, err1 := va.Compare(vb)
		ba, err2 := vb.Compare(va)
		if err1 != nil || err2 != nil {
			return false
		}
		if ab != -ba {
			return false
		}
		return (ab == 0) == va.Equal(vb)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestArithFiniteDomain pins the closure of the value domain: float
// results outside the finite range (overflow to ±Inf, NaN from
// Inf-producing chains) are errors, never values. Parse already
// rejects such literals; together they guarantee comparison, hashing,
// and equality agree on every representable float.
func TestArithFiniteDomain(t *testing.T) {
	huge := Float(1.7e308)
	if _, err := Arith(OpMul, huge, Float(10)); err == nil {
		t.Error("float overflow produced a value, want error")
	}
	if _, err := Arith(OpAdd, huge, huge); err == nil {
		t.Error("float overflow via addition produced a value, want error")
	}
	if v, err := Arith(OpMul, huge, Float(0)); err != nil || v.AsFloat() != 0 {
		t.Errorf("finite product rejected: %v, %v", v, err)
	}
}

// TestArithConstMatchesArith pins the specialized constant-operand
// evaluator to the generic one over the full kind cross-product,
// including the specialized int/float Add/Sub fast cases, NULL
// propagation, division by zero, overflow, and non-numeric operands:
// same value, same error presence, for every (op, v, k).
func TestArithConstMatchesArith(t *testing.T) {
	vals := []Value{
		Null(), Int(0), Int(7), Int(-3), Float(0), Float(2.5), Float(-1.7e308),
		Float(1.7e308), String("x"), Bool(true),
	}
	for _, op := range []Op{OpAdd, OpSub, OpMul, OpDiv} {
		for _, k := range vals {
			fn := ArithConst(op, k)
			for _, v := range vals {
				want, wantErr := Arith(op, v, k)
				got, gotErr := fn(v)
				if (wantErr == nil) != (gotErr == nil) {
					t.Fatalf("%v %s %v: error divergence: generic=%v const=%v", v, op, k, wantErr, gotErr)
				}
				if wantErr == nil && !want.Equal(got) && !(want.IsNull() && got.IsNull()) {
					t.Fatalf("%v %s %v: generic=%v const=%v", v, op, k, want, got)
				}
			}
		}
	}
}
