// Package schema defines relation schemas and tuples. A tuple is an
// immutable-by-convention slice of values matching its schema's arity.
package schema

import (
	"cmp"
	"fmt"
	"math"
	"strings"

	"github.com/mahif/mahif/internal/types"
)

// Column describes one attribute of a relation.
type Column struct {
	Name string
	Type types.Kind
}

// Schema is an ordered list of named, typed columns for a relation.
type Schema struct {
	Relation string
	Columns  []Column

	// byName maps lowercase column name → ordinal. Built once by New
	// and Clone so ColIndex is a map lookup instead of a case-folding
	// linear scan; nil for schemas built as raw struct literals, which
	// fall back to the scan.
	byName map[string]int
}

// New builds a schema for relation name rel from (name, kind) pairs.
func New(rel string, cols ...Column) *Schema {
	s := &Schema{Relation: rel, Columns: cols}
	s.buildIndex()
	return s
}

func (s *Schema) buildIndex() {
	s.byName = make(map[string]int, len(s.Columns))
	for i, c := range s.Columns {
		name := strings.ToLower(c.Name)
		if _, ok := s.byName[name]; !ok {
			s.byName[name] = i
		}
	}
}

// Col is a convenience constructor for a Column.
func Col(name string, t types.Kind) Column { return Column{Name: name, Type: t} }

// Arity returns the number of columns.
func (s *Schema) Arity() int { return len(s.Columns) }

// ColIndex returns the position of the named column, or -1.
// Lookup is case-insensitive, matching SQL identifier semantics.
func (s *Schema) ColIndex(name string) int {
	if s.byName != nil {
		if i, ok := s.byName[strings.ToLower(name)]; ok {
			return i
		}
		return -1
	}
	for i, c := range s.Columns {
		if strings.EqualFold(c.Name, name) {
			return i
		}
	}
	return -1
}

// ColNames returns the column names in order.
func (s *Schema) ColNames() []string {
	out := make([]string, len(s.Columns))
	for i, c := range s.Columns {
		out[i] = c.Name
	}
	return out
}

// Clone returns a deep copy of the schema.
func (s *Schema) Clone() *Schema {
	cols := make([]Column, len(s.Columns))
	copy(cols, s.Columns)
	return New(s.Relation, cols...)
}

// Equal reports whether two schemas have the same column names and types
// (relation name is ignored, so reenactment output schemas compare equal
// to their base relation).
func (s *Schema) Equal(o *Schema) bool {
	if len(s.Columns) != len(o.Columns) {
		return false
	}
	for i := range s.Columns {
		if !strings.EqualFold(s.Columns[i].Name, o.Columns[i].Name) || s.Columns[i].Type != o.Columns[i].Type {
			return false
		}
	}
	return true
}

// String renders the schema as R(A int, B string, ...).
func (s *Schema) String() string {
	var b strings.Builder
	b.WriteString(s.Relation)
	b.WriteByte('(')
	for i, c := range s.Columns {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "%s %s", c.Name, c.Type)
	}
	b.WriteByte(')')
	return b.String()
}

// Tuple is one row: a value per schema column.
type Tuple []types.Value

// NewTuple builds a tuple from values.
func NewTuple(vs ...types.Value) Tuple { return Tuple(vs) }

// Clone returns a copy of the tuple that shares no backing storage.
func (t Tuple) Clone() Tuple {
	out := make(Tuple, len(t))
	copy(out, t)
	return out
}

// Equal reports value-wise equality of two tuples.
func (t Tuple) Equal(o Tuple) bool {
	if len(t) != len(o) {
		return false
	}
	for i := range t {
		if !t[i].Equal(o[i]) {
			return false
		}
	}
	return true
}

// valueRank places the kinds in the canonical cross-kind order used by
// Compare: NULL < numeric < string < bool. Int and float share a rank
// because they compare by value (1 equals 1.0).
func valueRank(k types.Kind) int {
	switch k {
	case types.KindNull:
		return 0
	case types.KindInt, types.KindFloat:
		return 1
	case types.KindString:
		return 2
	}
	return 3
}

func compareValue(a, b types.Value) int {
	if ra, rb := valueRank(a.Kind()), valueRank(b.Kind()); ra != rb {
		return cmp.Compare(ra, rb)
	}
	switch a.Kind() {
	case types.KindInt, types.KindFloat:
		if a.Kind() == types.KindInt && b.Kind() == types.KindInt {
			return cmp.Compare(a.AsInt(), b.AsInt())
		}
		// Not cmp.Compare: -0.0 and +0.0 must tie, as they do under Equal.
		x, y := a.AsFloat(), b.AsFloat()
		switch {
		case x < y:
			return -1
		case x > y:
			return 1
		}
	case types.KindString:
		return strings.Compare(a.AsString(), b.AsString())
	case types.KindBool:
		switch x, y := a.AsBool(), b.AsBool(); {
		case !x && y:
			return -1
		case x && !y:
			return 1
		}
	}
	return 0
}

// Compare orders two tuples column-wise without rendering them: NULL
// sorts before numerics (ordered by value, so 1 and 1.0 tie), numerics
// before strings (byte order), strings before bools (false < true); a
// tuple that is a proper prefix of another sorts first. It returns -1,
// 0 or +1, and Compare == 0 exactly when Equal — the same classes Hash
// collides — so it is the canonical order of deltas and the only
// per-tuple identity the what-if hot path needs besides Hash/Equal.
//
// The order is total on the engine's value domain. Outside it there are
// two gaps, both inherited from Value.Equal: a NaN cell (types.Parse
// and types.Arith never produce one) ties with every float yet equals
// none, and ints beyond ±2^53 compare exactly with each other but by
// float64 value with floats, so two distinct ints can both equal the
// same float — Equal is not transitive there, and neither is this.
func (t Tuple) Compare(o Tuple) int {
	for i := 0; i < len(t) && i < len(o); i++ {
		if c := compareValue(t[i], o[i]); c != 0 {
			return c
		}
	}
	return cmp.Compare(len(t), len(o))
}

// Key returns a canonical string encoding of the tuple, for places
// whose product is a string (template fingerprints, debug output).
// Anything that runs per what-if identifies tuples by Hash, Equal and
// Compare instead.
func (t Tuple) Key() string {
	var b strings.Builder
	for i, v := range t {
		if i > 0 {
			b.WriteByte('|')
		}
		// Prefix with the kind so 1 (int), 1.0 (float) and '1' (string)
		// stay distinct, but normalize int/float that compare equal.
		switch v.Kind() {
		case types.KindNull:
			b.WriteString("n:")
		case types.KindInt, types.KindFloat:
			fmt.Fprintf(&b, "f:%v", v.AsFloat())
		case types.KindString:
			fmt.Fprintf(&b, "s:%s", v.AsString())
		case types.KindBool:
			fmt.Fprintf(&b, "b:%v", v.AsBool())
		}
	}
	return b.String()
}

// FNV-1a parameters (hash/fnv is avoided on this hot path: it would
// force a byte-slice conversion per value).
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

func fnvByte(h uint64, b byte) uint64 { return (h ^ uint64(b)) * fnvPrime64 }

func fnvUint64(h uint64, v uint64) uint64 {
	for i := 0; i < 8; i++ {
		h = fnvByte(h, byte(v>>(8*i)))
	}
	return h
}

func fnvString(h uint64, s string) uint64 {
	for i := 0; i < len(s); i++ {
		h = fnvByte(h, s[i])
	}
	return h
}

// HashSeed is the FNV-1a offset basis, the starting accumulator for
// HashValue chains.
const HashSeed uint64 = fnvOffset64

// HashValue folds one typed value into an FNV-1a accumulator. Values
// that compare equal under types.Value.Equal hash equally (numerics are
// normalized to their float64 bit pattern, so 1 and 1.0 collide; kinds
// are tagged so 1, '1' and true stay distinct). The compiled executor
// uses it for join keys; Tuple.Hash chains it across a row.
func HashValue(h uint64, v types.Value) uint64 {
	switch v.Kind() {
	case types.KindNull:
		h = fnvByte(h, 'n')
	case types.KindInt, types.KindFloat:
		h = fnvByte(h, 'f')
		f := v.AsFloat()
		if f == 0 {
			f = 0 // canonicalize -0.0: it compares equal to +0.0
		}
		h = fnvUint64(h, math.Float64bits(f))
	case types.KindString:
		h = fnvByte(h, 's')
		h = fnvString(h, v.AsString())
	case types.KindBool:
		h = fnvByte(h, 'b')
		if v.AsBool() {
			h = fnvByte(h, 1)
		} else {
			h = fnvByte(h, 0)
		}
	}
	return h
}

// HashNull, HashNumeric and HashString fold one cell of a
// statically known kind into an FNV-1a accumulator, byte-for-byte
// identical to HashValue on the equivalent boxed value. They exist for
// the columnar executor lanes, which hash typed cells without boxing;
// int cells hash through HashNumeric(h, float64(i)) — the same
// widening HashValue applies — so 1 and 1.0 still collide.
func HashNull(h uint64) uint64 { return fnvByte(h, 'n') }

// HashNumeric folds a numeric cell (int lanes widen to float64 first,
// matching HashValue's normalization).
func HashNumeric(h uint64, f float64) uint64 {
	h = fnvByte(h, 'f')
	if f == 0 {
		f = 0 // canonicalize -0.0: it compares equal to +0.0
	}
	return fnvUint64(h, math.Float64bits(f))
}

// HashString folds a string cell.
func HashString(h uint64, s string) uint64 {
	h = fnvByte(h, 's')
	return fnvString(h, s)
}

// Hash returns an FNV-1a hash of the tuple over typed values. Tuples
// that are Equal hash equally. It is the index key for the hash-based
// multiset operations (difference, delta, bag equality, report
// patching).
func (t Tuple) Hash() uint64 {
	h := HashSeed
	for _, v := range t {
		h = HashValue(h, v)
	}
	return h
}

// String renders the tuple as (v1, v2, ...).
func (t Tuple) String() string {
	var b strings.Builder
	b.WriteByte('(')
	for i, v := range t {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(v.String())
	}
	b.WriteByte(')')
	return b.String()
}
