package schema

import (
	"math"
	"strings"
	"testing"

	"github.com/mahif/mahif/internal/types"
)

// hashEdgePool is every kind with the values Equal is subtle on: NULL,
// ints against equal floats, the two zeros, NaN, the 2^53 boundary
// (where distinct ints widen to the same float), and strings of every
// length from 0 to 17, so that each tail length and a second word occur.
func hashEdgePool() []types.Value {
	const two53 = int64(1) << 53
	pool := []types.Value{
		types.Null(), types.True, types.False,
		types.Int(0), types.Float(0), types.Float(math.Copysign(0, -1)),
		types.Int(1), types.Float(1), types.Int(-1), types.Float(-1), types.Float(1.5),
		types.Float(math.NaN()), types.Float(math.Inf(1)), types.Float(math.Inf(-1)),
		types.Int(two53 - 1), types.Int(two53), types.Int(two53 + 1),
		types.Float(float64(two53 - 1)), types.Float(float64(two53)), types.Float(float64(two53 + 2)),
		types.Int(-two53 - 1), types.Float(-float64(two53)),
	}
	for n := 0; n <= 17; n++ {
		pool = append(pool, types.String(strings.Repeat("a", n)), types.String(strings.Repeat("\x00", n)))
	}
	return append(pool, types.String("1"), types.String("abcdefgh"), types.String("abcdefgi"))
}

// TestHashEqualImpliesHashEqual: over every pair of single-cell and
// two-cell tuples of the edge pool, Equal tuples hash equally — and
// HashValue, the per-cell step, is the same fold as Tuple.Hash.
func TestHashEqualImpliesHashEqual(t *testing.T) {
	pool := hashEdgePool()
	var tuples []Tuple
	for _, a := range pool {
		tuples = append(tuples, NewTuple(a))
		for _, b := range pool {
			tuples = append(tuples, NewTuple(a, b))
		}
	}
	for _, a := range tuples {
		h := HashSeed
		for _, v := range a {
			h = HashValue(h, v)
		}
		if h != a.Hash() {
			t.Fatalf("%s: chained HashValue %x, Hash %x", a, h, a.Hash())
		}
	}
	// Pairs of equal arity only: no tuple equals one of another width.
	for _, a := range pool {
		for _, b := range pool {
			if a.Equal(b) && NewTuple(a).Hash() != NewTuple(b).Hash() {
				t.Errorf("%s and %s are Equal but hash %x and %x", a, b, NewTuple(a).Hash(), NewTuple(b).Hash())
			}
			for _, c := range pool {
				x, y := NewTuple(a, c), NewTuple(b, c)
				if x.Equal(y) && x.Hash() != y.Hash() {
					t.Fatalf("%s and %s are Equal but hash differently", x, y)
				}
			}
		}
	}
	// Distinct kinds and lengths stay apart here (not a guarantee, but a
	// collision in a pool this small would mean the kinds or the lengths
	// are not mixed in). Numerics of one float64 value collide by design:
	// 2^53 and 2^53+1 are not Equal as ints, but each is Equal to 2^53.0.
	sameFloat := func(a, b types.Value) bool {
		if !a.IsNumeric() || !b.IsNumeric() {
			return false
		}
		x, y := a.AsFloat(), b.AsFloat()
		return x == y || x != x && y != y
	}
	seen := map[uint64]types.Value{}
	for _, a := range pool {
		h := NewTuple(a).Hash()
		if o, ok := seen[h]; ok && !o.Equal(a) && !sameFloat(o, a) {
			t.Errorf("%s and %s are not Equal but hash the same", o, a)
		}
		seen[h] = a
	}
}

// TestHashPinned: the row hash is a pure function of the values, equal
// across processes, runs and builds. Changing it changes every value
// compared across processes; change this pin only with the hash.
func TestHashPinned(t *testing.T) {
	tu := NewTuple(types.Int(42), types.Float(-0.5), types.String("what-if"), types.Null(), types.True, types.String(""))
	const want uint64 = 0x752267029cfc9305
	if got := tu.Hash(); got != want {
		t.Fatalf("Hash(%s) = %#x, want %#x", tu, got, want)
	}
}

// TestHashLowBitSpread: a table indexed by the low bits of a row hash
// must spread int-valued floats, whose low mantissa bits are all zero.
// 2^16 keys into 2^16 buckets fill about 1 − 1/e ≈ 63 % of them under a
// random hash.
func TestHashLowBitSpread(t *testing.T) {
	const n = 1 << 16
	for _, kind := range []string{"int", "float"} {
		used := make([]bool, n)
		filled := 0
		for i := 0; i < n; i++ {
			v := types.Float(float64(i))
			if kind == "int" {
				v = types.Int(int64(i))
			}
			b := NewTuple(v).Hash() & (n - 1)
			if !used[b] {
				used[b] = true
				filled++
			}
		}
		if filled*100 < 60*n {
			t.Errorf("%s keys 0..2^16 fill %d of %d low-bit buckets (%.1f %%), want ≥ 60 %%", kind, filled, n, 100*float64(filled)/n)
		}
	}
}
