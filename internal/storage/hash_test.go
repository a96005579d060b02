package storage

import (
	"math"
	"strings"
	"testing"

	"github.com/mahif/mahif/internal/schema"
	"github.com/mahif/mahif/internal/types"
)

// TestFoldHashMatchesTupleHash: every lane-wise fold of the row hash —
// FoldHash over all rows and over a selection, FoldHashRows over a
// gathered selection, HashCell per cell — equals Tuple.Hash of the boxed
// rows, on typed, masked and boxed lanes, so that Equal cells on
// different lanes (1 in an int lane, 1.0 in a float lane, either boxed)
// hash equally.
func TestFoldHashMatchesTupleHash(t *testing.T) {
	const n = 40
	const two53 = int64(1) << 53
	negZero := math.Copysign(0, -1)
	ints := func(i int) int64 { return []int64{0, 1, -1, two53, two53 + 1, -two53 - 1, 7}[i%7] }
	floats := func(i int) float64 {
		return []float64{0, negZero, 1, 1.5, math.NaN(), float64(two53), math.Inf(-1), 7}[i%8]
	}
	strs := func(i int) string { return strings.Repeat("abcdefghi", 2)[:i%18] }
	boxed := func(i int) types.Value {
		return []types.Value{types.Null(), types.Int(1), types.Float(1), types.String("1"), types.True, types.Float(negZero), types.Int(two53 + 1)}[i%7]
	}
	var cols []ColVec
	for _, masked := range []bool{false, true} {
		ci := ColVec{Kind: types.KindInt, Ints: make([]int64, n)}
		cf := ColVec{Kind: types.KindFloat, Floats: make([]float64, n)}
		cs := ColVec{Kind: types.KindString, Strs: make([]string, n)}
		for i := 0; i < n; i++ {
			ci.Ints[i], cf.Floats[i], cs.Strs[i] = ints(i), floats(i), strs(i)
		}
		if masked {
			for _, c := range []*ColVec{&ci, &cf, &cs} {
				c.Nulls = make([]bool, n)
				for i := 0; i < n; i += 3 {
					c.Nulls[i] = true
				}
			}
		}
		cols = append(cols, ci, cf, cs)
	}
	cb := ColVec{Kind: types.KindNull, Vals: make([]types.Value, n)}
	for i := range cb.Vals {
		cb.Vals[i] = boxed(i)
	}
	cols = append(cols, cb)

	rows := make([]schema.Tuple, n)
	for i := range rows {
		for c := range cols {
			rows[i] = append(rows[i], cols[c].Value(i))
		}
	}
	seeded := func(k int) []uint64 {
		hs := make([]uint64, k)
		for i := range hs {
			hs[i] = schema.HashSeed
		}
		return hs
	}
	all, some := seeded(n), seeded(n)
	sel := []int{1, 2, 5, 13, 21, 34}
	gathered := seeded(len(sel))
	for c := range cols {
		cols[c].FoldHash(all, nil, n)
		cols[c].FoldHash(some, sel, n)
		cols[c].FoldHashRows(gathered, sel)
	}
	for i, tu := range rows {
		if all[i] != tu.Hash() {
			t.Fatalf("row %d %s: FoldHash %x, Tuple.Hash %x", i, tu, all[i], tu.Hash())
		}
	}
	for i, r := range sel {
		if some[r] != rows[r].Hash() || gathered[i] != rows[r].Hash() {
			t.Fatalf("row %d %s: FoldHash over a selection %x, FoldHashRows %x, Tuple.Hash %x", r, rows[r], some[r], gathered[i], rows[r].Hash())
		}
	}
	for c := range cols {
		for i := 0; i < n; i++ {
			h, ok := cols[c].HashCell(schema.HashSeed, i)
			v := cols[c].Value(i)
			if ok == v.IsNull() || ok && h != schema.NewTuple(v).Hash() {
				t.Fatalf("column %d cell %d (%s): HashCell %x, %v", c, i, v, h, ok)
			}
		}
	}
}
