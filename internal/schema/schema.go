// Package schema defines relation schemas and tuples. A tuple is an
// immutable-by-convention slice of values matching its schema's arity.
package schema

import (
	"cmp"
	"fmt"
	"math"
	"math/bits"
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

// Key returns a canonical string encoding of the tuple, in which an int
// and a float that compare equal share a key. It keys the string-keyed
// reference implementations of the tests; anything that runs per
// what-if identifies tuples by Hash, Equal and Compare instead.
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

// The row hash is a chain of word-wise multiply-fold steps: a cell
// folds one 64-bit word, its halves swapped, into the accumulator by
// xor, and the 128-bit product of that with a per-kind odd constant
// folds its two halves together (mix). An int-valued float keeps all
// its information in the high half of its bits; swapped into the low
// half, it reaches both halves of the product, so the low bits a hash
// table masks are mixed as well as the high ones. There is no
// per-process seed: a hash is a pure function of the values, equal
// across processes and runs.
const (
	// HashSeed is the starting accumulator of a row hash: HashValue
	// chains start here, and so does every lane-wise fold of one.
	HashSeed uint64 = 0x243f6a8885a308d3

	hashNumeric uint64 = 0x94d049bb133111eb
	hashString  uint64 = 0xbf58476d1ce4e5b9
	hashNull    uint64 = 0x9e3779b97f4a7c15
	hashBool    uint64 = 0xa0761d6478bd642f
)

// mix folds word w into accumulator h under multiplier k.
func mix(h, w, k uint64) uint64 {
	hi, lo := bits.Mul64(h^bits.RotateLeft64(w, 32), k)
	return hi ^ lo
}

// HashValue folds one typed value into a row-hash accumulator. Values
// that compare equal under types.Value.Equal hash equally (numerics are
// normalized to their float64 bit pattern, so 1 and 1.0 collide; each
// kind mixes under its own constant, so 1, '1' and true stay apart).
// The compiled executor uses it for join keys; Tuple.Hash chains it
// across a row.
func HashValue(h uint64, v types.Value) uint64 {
	switch v.Kind() {
	case types.KindNull:
		return HashNull(h)
	case types.KindInt, types.KindFloat:
		return HashNumeric(h, v.AsFloat())
	case types.KindString:
		return HashString(h, v.AsString())
	case types.KindBool:
		if v.AsBool() {
			return mix(h, 1, hashBool)
		}
		return mix(h, 0, hashBool)
	}
	return h
}

// HashNull, HashNumeric and HashString fold one cell of a statically
// known kind into a row-hash accumulator, identical to HashValue on the
// equivalent boxed value. They exist for the columnar executor lanes,
// which hash typed cells without boxing; int cells hash through
// HashNumeric(h, float64(i)) — the same widening HashValue applies —
// so 1 and 1.0 still collide.
func HashNull(h uint64) uint64 { return mix(h, 0, hashNull) }

// HashNumeric folds a numeric cell (int lanes widen to float64 first,
// matching HashValue's normalization): one mix of its bits.
func HashNumeric(h uint64, f float64) uint64 {
	if f == 0 {
		f = 0 // canonicalize -0.0: it compares equal to +0.0
	}
	return mix(h, math.Float64bits(f), hashNumeric)
}

// HashString folds a string cell: its length, then its 8-byte words,
// then its tail zero-padded to a word.
func HashString(h uint64, s string) uint64 {
	h = mix(h, uint64(len(s)), hashString)
	for ; len(s) >= 8; s = s[8:] {
		h = mix(h, uint64(s[0])|uint64(s[1])<<8|uint64(s[2])<<16|uint64(s[3])<<24|
			uint64(s[4])<<32|uint64(s[5])<<40|uint64(s[6])<<48|uint64(s[7])<<56, hashString)
	}
	if len(s) == 0 {
		return h
	}
	var w uint64
	for i := len(s) - 1; i >= 0; i-- {
		w = w<<8 | uint64(s[i])
	}
	return mix(h, w, hashString)
}

// Hash returns the row hash of the tuple over typed values. Tuples that
// are Equal hash equally. It is the index key for the hash-based
// multiset operations (difference, delta, bag equality, report
// patching), and the lane-wise folds of storage.ColVec compute the same
// value without boxing.
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

// AppendJSON appends t as a JSON array of its cells' wire encodings
// (types.Value.AppendJSON). A nil tuple is null, as encoding/json
// writes a nil slice. This is the per-cell loop, so it calls
// Value.AppendJSON directly: through types.AppendJSONArray's element
// function a large delta encodes about 10 % slower.
func (t Tuple) AppendJSON(dst []byte) ([]byte, error) {
	if t == nil {
		return append(dst, "null"...), nil
	}
	dst = append(dst, '[')
	for i, v := range t {
		if i > 0 {
			dst = append(dst, ',')
		}
		var err error
		if dst, err = v.AppendJSON(dst); err != nil {
			return dst, err
		}
	}
	return append(dst, ']'), nil
}
