// Package types defines the universal value domain D used by relations,
// expressions, and the symbolic machinery: 64-bit integers, floats,
// strings, booleans, and NULL, with SQL-style comparison and arithmetic.
package types

import (
	"fmt"
	"math"
	"strconv"
	"strings"
)

// Kind enumerates the runtime type of a Value.
type Kind uint8

// The supported value kinds.
const (
	KindNull Kind = iota
	KindInt
	KindFloat
	KindString
	KindBool
)

// String returns the SQL-ish name of the kind.
func (k Kind) String() string {
	switch k {
	case KindNull:
		return "null"
	case KindInt:
		return "int"
	case KindFloat:
		return "float"
	case KindString:
		return "string"
	case KindBool:
		return "bool"
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// Value is a single attribute value from the universal domain.
// The zero Value is NULL.
//
// A Value is 32 bytes: the string, one payload word and the kind. The
// word holds an int's two's-complement bits, a float's IEEE bits or a
// bool as 0/1, so == on two Values is bit identity: Float(0) !=
// Float(-0), and a NaN equals a NaN of the same bits. Equal is the
// value equality (1 equals 1.0, ±0 are equal, NaN equals nothing).
type Value struct {
	s    string
	n    uint64
	kind Kind
}

// Null returns the NULL value.
func Null() Value { return Value{} }

// Int returns an integer value.
func Int(v int64) Value { return Value{kind: KindInt, n: uint64(v)} }

// Float returns a floating point value.
func Float(v float64) Value { return Value{kind: KindFloat, n: math.Float64bits(v)} }

// String returns a string value. (Methods and package-level functions
// live in different namespaces, so this does not clash with the
// fmt.Stringer method on Value; the historical String_ spelling is
// gone.)
func String(v string) Value { return Value{kind: KindString, s: v} }

// Bool returns a boolean value.
func Bool(v bool) Value {
	if v {
		return Value{kind: KindBool, n: 1}
	}
	return Value{kind: KindBool}
}

// True and False are the boolean constants.
var (
	True  = Bool(true)
	False = Bool(false)
)

// Kind reports the runtime kind of v.
func (v Value) Kind() Kind { return v.kind }

// IsNull reports whether v is NULL.
func (v Value) IsNull() bool { return v.kind == KindNull }

// i and f read the payload word as an int or a float, whatever the kind.
func (v Value) i() int64   { return int64(v.n) }
func (v Value) f() float64 { return math.Float64frombits(v.n) }

// AsInt returns the integer payload. It panics unless Kind is KindInt.
func (v Value) AsInt() int64 {
	if v.kind != KindInt {
		panic(fmt.Sprintf("types: AsInt on %s value", v.kind))
	}
	return v.i()
}

// AsFloat returns the numeric payload widened to float64. It panics
// unless the value is numeric.
func (v Value) AsFloat() float64 {
	switch v.kind {
	case KindInt:
		return float64(v.i())
	case KindFloat:
		return v.f()
	}
	panic(fmt.Sprintf("types: AsFloat on %s value", v.kind))
}

// AsString returns the string payload. It panics unless Kind is KindString.
func (v Value) AsString() string {
	if v.kind != KindString {
		panic(fmt.Sprintf("types: AsString on %s value", v.kind))
	}
	return v.s
}

// AsBool returns the boolean payload. It panics unless Kind is KindBool.
func (v Value) AsBool() bool {
	if v.kind != KindBool {
		panic(fmt.Sprintf("types: AsBool on %s value", v.kind))
	}
	return v.n != 0
}

// IsNumeric reports whether v is an int or float.
func (v Value) IsNumeric() bool { return v.kind == KindInt || v.kind == KindFloat }

// IsTrue reports whether v is the boolean true. NULL and non-boolean
// values are not true.
func (v Value) IsTrue() bool { return v.kind == KindBool && v.n != 0 }

// String renders the value in SQL literal syntax.
func (v Value) String() string {
	switch v.kind {
	case KindNull:
		return "NULL"
	case KindInt:
		return strconv.FormatInt(v.i(), 10)
	case KindFloat:
		// Render integral floats with an explicit ".0" (mirroring the
		// JSON wire format) so the SQL rendering round-trips to a float
		// rather than collapsing into the int domain.
		out := strconv.FormatFloat(v.f(), 'g', -1, 64)
		if !strings.ContainsAny(out, ".eE") {
			out += ".0"
		}
		return out
	case KindString:
		// SQL-escape embedded quotes so renderings stay parseable.
		return "'" + strings.ReplaceAll(v.s, "'", "''") + "'"
	case KindBool:
		if v.n != 0 {
			return "true"
		}
		return "false"
	}
	return "?"
}

// Equal reports deep equality of two values. NULL equals NULL here;
// use Compare for SQL three-valued semantics.
func (v Value) Equal(o Value) bool {
	if v.kind != o.kind {
		// Numeric cross-kind equality: 1 == 1.0.
		if v.IsNumeric() && o.IsNumeric() {
			return v.AsFloat() == o.AsFloat()
		}
		return false
	}
	switch v.kind {
	case KindNull:
		return true
	case KindInt, KindBool:
		return v.n == o.n
	case KindFloat:
		return v.f() == o.f()
	case KindString:
		return v.s == o.s
	}
	return false
}

// Compare orders two non-NULL values of comparable kinds: numerics
// numerically, widened to float64 (so Int(2^53) and Int(2^53+1) tie,
// as the = operator has them), strings lexicographically, bools
// false<true. It returns -1, 0, or +1 and an error for NULLs or
// incompatible kinds.
func (v Value) Compare(o Value) (int, error) {
	if v.kind == KindNull || o.kind == KindNull {
		return 0, fmt.Errorf("types: comparison with NULL has no order")
	}
	if v.IsNumeric() && o.IsNumeric() {
		a, b := v.AsFloat(), o.AsFloat()
		switch {
		case a < b:
			return -1, nil
		case a > b:
			return 1, nil
		}
		return 0, nil
	}
	if v.kind != o.kind {
		return 0, fmt.Errorf("types: cannot compare %s with %s", v.kind, o.kind)
	}
	switch v.kind {
	case KindString:
		switch {
		case v.s < o.s:
			return -1, nil
		case v.s > o.s:
			return 1, nil
		}
		return 0, nil
	case KindBool:
		switch {
		case v.n < o.n:
			return -1, nil
		case v.n > o.n:
			return 1, nil
		}
		return 0, nil
	}
	return 0, fmt.Errorf("types: cannot compare %s values", v.kind)
}

// arithmetic ----------------------------------------------------------------

// Op is a binary scalar operator from the expression grammar (Fig. 7).
type Op uint8

// The arithmetic operators.
const (
	OpAdd Op = iota
	OpSub
	OpMul
	OpDiv
)

// String returns the SQL spelling of the operator.
func (op Op) String() string {
	switch op {
	case OpAdd:
		return "+"
	case OpSub:
		return "-"
	case OpMul:
		return "*"
	case OpDiv:
		return "/"
	}
	return "?"
}

// Arith applies op to two values. NULL operands propagate to NULL.
// Division always produces a float; all other int∘int stay int.
// Float results that leave the finite domain (NaN, ±Inf — e.g. from
// overflow or Inf/Inf) are errors: Parse never admits them, and
// keeping them out of the value domain is what lets comparison,
// hashing, and equality agree everywhere (Compare has no consistent
// order for NaN).
func Arith(op Op, a, b Value) (Value, error) {
	if a.IsNull() || b.IsNull() {
		return Null(), nil
	}
	if !a.IsNumeric() || !b.IsNumeric() {
		return Null(), fmt.Errorf("types: arithmetic %s on %s and %s", op, a.kind, b.kind)
	}
	if op == OpDiv {
		d := b.AsFloat()
		if d == 0 {
			return Null(), fmt.Errorf("types: division by zero")
		}
		return finiteFloat(a.AsFloat() / d)
	}
	if a.kind == KindInt && b.kind == KindInt {
		switch op {
		case OpAdd:
			return Int(a.i() + b.i()), nil
		case OpSub:
			return Int(a.i() - b.i()), nil
		case OpMul:
			return Int(a.i() * b.i()), nil
		}
	}
	x, y := a.AsFloat(), b.AsFloat()
	switch op {
	case OpAdd:
		return finiteFloat(x + y)
	case OpSub:
		return finiteFloat(x - y)
	case OpMul:
		return finiteFloat(x * y)
	}
	return Null(), fmt.Errorf("types: unknown operator")
}

// ArithConst returns an evaluator for v ∘ k with the constant right
// operand baked in, semantically identical to Arith(op, v, k) on every
// input. The int and float Add/Sub cases — the dominant SET-clause
// shapes on the statement-application hot path — skip the general
// dispatch; mixed kinds, NULLs, Mul/Div, and non-numeric operands all
// fall back to Arith so the error and NULL behavior cannot drift.
func ArithConst(op Op, k Value) func(Value) (Value, error) {
	switch {
	case k.kind == KindInt && op == OpAdd:
		n := k.i()
		return func(v Value) (Value, error) {
			if v.kind == KindInt {
				return Int(v.i() + n), nil
			}
			return Arith(op, v, k)
		}
	case k.kind == KindInt && op == OpSub:
		n := k.i()
		return func(v Value) (Value, error) {
			if v.kind == KindInt {
				return Int(v.i() - n), nil
			}
			return Arith(op, v, k)
		}
	case k.kind == KindFloat && op == OpAdd:
		f := k.f()
		return func(v Value) (Value, error) {
			if v.kind == KindFloat {
				return finiteFloat(v.f() + f)
			}
			return Arith(op, v, k)
		}
	case k.kind == KindFloat && op == OpSub:
		f := k.f()
		return func(v Value) (Value, error) {
			if v.kind == KindFloat {
				return finiteFloat(v.f() - f)
			}
			return Arith(op, v, k)
		}
	}
	return func(v Value) (Value, error) { return Arith(op, v, k) }
}

func finiteFloat(f float64) (Value, error) {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		return Null(), fmt.Errorf("types: arithmetic result %v outside the finite float domain", f)
	}
	return Float(f), nil
}

// ParseFloat parses s as a float of the finite domain: it rejects what
// strconv.ParseFloat rejects, and also the NaN and ±Inf spellings it
// accepts ("NaN", "inf", "-Infinity").
func ParseFloat(s string) (float64, bool) {
	f, err := strconv.ParseFloat(s, 64)
	if err != nil || math.IsInf(f, 0) || math.IsNaN(f) {
		return 0, false
	}
	return f, true
}
