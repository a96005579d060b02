package delta

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"github.com/mahif/mahif/internal/schema"
	"github.com/mahif/mahif/internal/storage"
	"github.com/mahif/mahif/internal/types"
)

// The residual is matched on the lanes: rows that cancel only across
// positions meet as a class of the new side and a probe of the old one,
// on whatever lanes each side holds them. Compute, over boxed rows, is
// the oracle, byte for byte.

// TestComputeColumnarCrossLaneResidual: Equal rows sit on different
// lanes on the two sides (int against float, typed against boxed,
// masked against unmasked) and cancel across positions; the rows left
// are the delta, including ties under Compare that render differently.
func TestComputeColumnarCrossLaneResidual(t *testing.T) {
	I, F, S, N := types.Int, types.Float, types.String, types.Null()
	row := schema.NewTuple
	const two53 = int64(1) << 53
	negZero := math.Copysign(0, -1)
	sch := schema.New("t", schema.Col("a", types.KindInt), schema.Col("b", types.KindString))
	for _, tc := range []struct {
		name     string
		old, new []schema.Tuple
	}{
		{"an int lane against a float lane, permuted",
			[]schema.Tuple{row(I(1), S("x")), row(I(2), S("x")), row(I(3), S("y")), row(I(5), S("x")), row(I(5), S("x")), row(I(7), S("z"))},
			[]schema.Tuple{row(F(2), S("x")), row(F(5), S("x")), row(F(1), S("x")), row(F(7), S("z")), row(F(3), S("y")), row(F(8), S("x"))}},
		{"1 and 1.0 tie: Plus drains the class in new-side order",
			[]schema.Tuple{row(I(7), S("a")), row(I(1), S("b"))},
			[]schema.Tuple{row(I(1), S("b")), row(F(7), S("a")), row(I(7), S("a")), row(F(7), S("a"))}},
		{"a masked lane against an unmasked one",
			[]schema.Tuple{row(I(1), N), row(I(2), S("p")), row(I(3), S("q")), row(I(4), S(""))},
			[]schema.Tuple{row(I(3), S("q")), row(I(2), S("p")), row(I(1), S("")), row(I(4), S(""))}},
		{"a NULL's payload matches nothing across positions",
			[]schema.Tuple{row(N, S("a")), row(I(0), N), row(I(5), S("c"))},
			[]schema.Tuple{row(I(5), S("c")), row(I(0), S("")), row(I(0), S("a"))}},
		{"NaN rows, duplicated on both sides, match nothing",
			[]schema.Tuple{row(F(math.NaN()), S("a")), row(I(1), S("a")), row(F(math.NaN()), S("a"))},
			[]schema.Tuple{row(I(1), S("a")), row(F(math.NaN()), S("a")), row(F(math.NaN()), S("a")), row(F(math.NaN()), S("a"))}},
		{"the two zeros cancel across positions",
			[]schema.Tuple{row(F(0), S("a")), row(I(1), S("a")), row(F(0), S("a"))},
			[]schema.Tuple{row(I(1), S("a")), row(F(negZero), S("a")), row(I(0), S("a")), row(F(negZero), S("a"))}},
		{"ints past 2^53 against floats: Equal is not transitive",
			[]schema.Tuple{row(F(float64(two53)), S("a")), row(I(two53+1), S("a")), row(I(two53), S("a")), row(I(3), S("a"))},
			[]schema.Tuple{row(I(3), S("a")), row(I(two53+1), S("a")), row(I(two53), S("a")), row(F(float64(two53)), S("a")), row(I(two53-1), S("a"))}},
		{"the first class of a hash runs out first",
			[]schema.Tuple{row(I(0), S("z")), row(F(float64(two53)), S("a")), row(I(two53+1), S("a"))},
			[]schema.Tuple{row(I(two53+1), S("a")), row(I(two53), S("a")), row(I(two53+1), S("a")), row(I(two53), S("a"))}},
		{"duplicate classes with multiplicities on both sides",
			[]schema.Tuple{row(I(1), S("a")), row(I(2), S("b")), row(I(1), S("a")), row(I(1), S("a")), row(I(2), S("b"))},
			[]schema.Tuple{row(I(2), S("b")), row(F(1), S("a")), row(I(2), S("b")), row(I(2), S("b")), row(I(3), S("c"))}},
		{"misaligned: a row deleted at the front",
			[]schema.Tuple{row(I(0), S("a")), row(I(1), S("b")), row(I(2), S("c")), row(I(3), S("d"))},
			[]schema.Tuple{row(I(1), S("b")), row(F(2), S("c")), row(I(3), S("d"))}},
	} {
		requireColumnarMatchesRows(t, tc.name, relOf(sch, tc.old...), relOf(sch, tc.new...))
	}
}

// TestComputeColumnarResidualAround2to53: random bags over the values
// near 2^53 and 2^54, where distinct ints widen to one float — so
// classes of one row hash are not Equal to each other, a probe may be
// Equal to several, and the order classes are found and emptied in
// decides the delta. Permuted and misaligned, so nearly everything is residual.
func TestComputeColumnarResidualAround2to53(t *testing.T) {
	const two53 = int64(1) << 53
	trials := 3000
	if testing.Short() {
		trials = 500
	}
	// Past 2^54 four ints widen to one float: four classes of one hash,
	// so which class an emptied one's place goes to matters.
	const two54 = 2 * two53
	pool := []types.Value{
		types.Int(two53 - 1), types.Int(two53), types.Int(two53 + 1), types.Int(two53 + 2),
		types.Float(float64(two53)), types.Float(float64(two53 + 2)), types.Float(float64(two53 - 1)),
		types.Int(two54 - 1), types.Int(two54), types.Int(two54 + 1), types.Int(two54 + 2), types.Float(float64(two54)),
	}
	second := []types.Value{types.Int(0), types.Float(0), types.Null()}
	sch := schema.New("t", schema.Col("a", types.KindInt), schema.Col("b", types.KindInt))
	r := rand.New(rand.NewSource(53))
	bag := func(n int) *storage.Relation {
		out := storage.NewRelation(sch)
		for i := 0; i < n; i++ {
			out.Tuples = append(out.Tuples, schema.Tuple{pool[r.Intn(len(pool))], second[r.Intn(2+i%2)]})
		}
		return out
	}
	for i := 0; i < trials; i++ {
		a := bag(r.Intn(12))
		b := permuted(r, a)
		for k := r.Intn(4); k > 0; k-- {
			b.Tuples = append(b.Tuples, bag(1).Tuples[0])
		}
		if i%3 == 0 {
			b = bag(r.Intn(12))
		}
		requireColumnarMatchesRows(t, fmt.Sprintf("trial %d", i), a, b)
	}
}

// TestComputeColumnarDuplicateHeavyResidual: 10⁴ Equal rows a side that
// cancel only across positions cost about one row comparison each, not
// one per row of their class: a class is a count, not a chain of rows.
func TestComputeColumnarDuplicateHeavyResidual(t *testing.T) {
	const two53 = int64(1) << 53
	const n = 10000
	I, F, S := types.Int, types.Float, types.String
	sch := schema.New("t", schema.Col("a", types.KindInt), schema.Col("b", types.KindString))
	halves := func(x, y schema.Tuple, nx, ny int) *storage.Relation {
		out := storage.NewRelation(sch)
		for i := 0; i < nx; i++ {
			out.Tuples = append(out.Tuples, x)
		}
		for i := 0; i < ny; i++ {
			out.Tuples = append(out.Tuples, y)
		}
		return out
	}
	x, y := schema.NewTuple(I(1), S("x")), schema.NewTuple(F(2), S("y"))
	big, nan := schema.NewTuple(I(two53), S("x")), schema.NewTuple(F(math.NaN()), S("x"))
	for _, tc := range []struct {
		name     string
		old, new *storage.Relation
		perRow   int  // row comparisons allowed per residual row
		nan      bool // the delta is the NaN rows; the row oracle is not asked
	}{
		// Two classes, swapped halves: no position cancels.
		{"a class a half", halves(x, y, n, n), halves(y, x, n+3, n-2), 1, false},
		// NaN rows are never indexed and never compared (the row oracle
		// indexes each apart, so it is quadratic here).
		{"NaN rows", halves(nan, y, n, n), halves(y, nan, n, n), 1, true},
		// 2^53 and 2^53+1 share a row hash and are not Equal: two classes
		// of one hash, both Equal to the old side's 2^53.0.
		{"two classes of one hash", halves(schema.NewTuple(F(float64(two53)), S("x")), y, 2*n, n),
			relOf(sch, append(halves(y, big, n, n).Tuples, halves(schema.NewTuple(I(two53+1), S("x")), y, n, 0).Tuples...)...), 2, false},
	} {
		if tc.nan {
			got, _ := ComputeColumnar(laneView(tc.old, false), laneView(tc.new, false))
			if len(got.Minus) != n || len(got.Plus) != n || got.Minus[0].Equal(got.Minus[0]) || got.Plus[n-1].Equal(got.Plus[n-1]) {
				t.Fatalf("NaN rows: delta of %d/%d rows, want the %d NaN rows a side", len(got.Minus), len(got.Plus), n)
			}
		} else {
			requireColumnarMatchesRows(t, tc.name, tc.old, tc.new)
		}
		vo, vn := laneView(tc.old, false), laneView(tc.new, false)
		neq := make([]bool, min(vo.Rows, vn.Rows))
		for c := range vo.Cols {
			storage.MarkUnequal(neq, &vo.Cols[c], nil, &vn.Cols[c], nil)
		}
		oldIdx, newIdx := residualRows(neq, vo.Rows, vn.Rows)
		m := matchResidual(vo, vn, oldIdx, newIdx, viewHasher(vo), viewHasher(vn))
		hashed := len(oldIdx) + len(newIdx)
		if hashed < 2*n || m.equals > tc.perRow*hashed {
			t.Errorf("%s: %d row comparisons for %d residual rows; want at most %d a row", tc.name, m.equals, hashed, tc.perRow)
		}
	}
}

// FuzzComputeColumnar: ComputeColumnar ≡ Compute, byte for byte, on two
// bags decoded from the input — cells from an edge pool, each column of
// each side on its typed or its boxed lane.
func FuzzComputeColumnar(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{4, 3, 0, 1, 2, 3, 4, 5, 6, 7, 3, 2, 1, 0, 7, 6, 5, 4})
	f.Add([]byte{6, 6, 3, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 12, 11, 10, 9, 8, 17, 16, 15, 14, 13})
	f.Add([]byte{5, 2, 1, 18, 19, 20, 21, 18, 19, 21, 20, 22, 22, 2, 2})
	f.Add([]byte{3, 5, 2, 23, 24, 25, 23, 24, 24, 25, 23, 26, 1, 1, 1, 27, 28})
	f.Fuzz(func(t *testing.T, data []byte) {
		pool := fuzzCells()
		next := func() int {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return int(b)
		}
		sch := schema.New("t", schema.Col("a", types.KindInt), schema.Col("b", types.KindFloat))
		nOld, nNew, lanes := next()%16, next()%16, next()
		side := func(n int) *storage.Relation {
			out := storage.NewRelation(sch)
			for i := 0; i < n; i++ {
				out.Tuples = append(out.Tuples, schema.Tuple{pool[next()%len(pool)], pool[next()%len(pool)]})
			}
			return out
		}
		a, b := side(nOld), side(nNew)
		va := laneViewOf(a, func(c int) bool { return lanes>>c&1 == 1 })
		vb := laneViewOf(b, func(c int) bool { return lanes>>(2+c)&1 == 1 })
		want := Compute(va.Relation(), vb.Relation())
		got, work := ComputeColumnar(va, vb)
		requireIdentical(t, "minus", got.Minus, want.Minus)
		requireIdentical(t, "plus", got.Plus, want.Plus)
		// Hashed − Boxed is not always even: past 2^53 a new row may take
		// another class's row in the drain, and its own class keeps one.
		if work.Boxed != want.Size() || work.Hashed < work.Boxed || work.Hashed > nOld+nNew {
			t.Fatalf("work %+v for a delta of %d", work, want.Size())
		}
	})
}

// fuzzCells is FuzzComputeColumnar's cell pool: small ints and the
// floats equal to them, both zeros, NaN, the 2^53 neighbourhood, NULL,
// strings and bools (a column holding either is boxed).
func fuzzCells() []types.Value {
	const two53 = int64(1) << 53
	return []types.Value{
		types.Int(0), types.Int(1), types.Int(2), types.Int(3),
		types.Float(0), types.Float(1), types.Float(2), types.Float(2.5),
		types.Null(), types.Null(),
		types.Float(math.Copysign(0, -1)), types.Float(math.NaN()), types.Float(math.Inf(1)),
		types.Int(two53), types.Int(two53 + 1), types.Int(two53 - 1), types.Float(float64(two53)),
		types.Float(float64(two53 + 2)), types.Int(two53 + 2),
		types.Int(-two53 - 1), types.Float(-float64(two53)), types.Int(-two53),
		types.String(""), types.String("a"), types.String("abcdefghi"),
		types.True, types.False, types.Int(1), types.Float(1),
	}
}
