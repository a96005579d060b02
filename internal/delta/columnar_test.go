package delta

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"github.com/mahif/mahif/internal/schema"
	"github.com/mahif/mahif/internal/storage"
	"github.com/mahif/mahif/internal/types"
	"github.com/mahif/mahif/internal/workload"
)

// ComputeColumnar's oracle is Compute over the same two results read
// back as rows: the row path never looks at a lane. Every case runs with
// each side's columns on the lanes their cells allow and on the boxed
// lane, so that a column's two sides meet on equal, different and boxed
// lanes.

// laneView transposes rel, putting every column whose non-NULL cells are
// all ints, all floats or all strings on that typed lane — whatever the
// schema declares, so a float lane can face an int lane — and the rest,
// or every column when boxed is set, on the boxed lane.
func laneView(rel *storage.Relation, boxed bool) *storage.ColumnarView {
	return laneViewOf(rel, func(int) bool { return boxed })
}

// laneViewOf is laneView with the boxed lane chosen per column.
func laneViewOf(rel *storage.Relation, boxed func(c int) bool) *storage.ColumnarView {
	n := len(rel.Tuples)
	v := &storage.ColumnarView{Schema: rel.Schema, Rows: n, Cols: make([]storage.ColVec, rel.Schema.Arity())}
	for c := range v.Cols {
		kind, mixed := types.KindNull, boxed(c)
		for _, t := range rel.Tuples {
			switch k := t[c].Kind(); {
			case k == types.KindNull:
			case k == types.KindBool, kind != types.KindNull && kind != k:
				mixed = true
			default:
				kind = k
			}
		}
		col := &v.Cols[c]
		if mixed || kind == types.KindNull {
			col.Vals = make([]types.Value, n)
			for i, t := range rel.Tuples {
				col.Vals[i] = t[c]
			}
			continue
		}
		col.Kind = kind
		switch kind {
		case types.KindInt:
			col.Ints = make([]int64, n)
		case types.KindFloat:
			col.Floats = make([]float64, n)
		case types.KindString:
			col.Strs = make([]string, n)
		}
		for i, t := range rel.Tuples {
			switch {
			case t[c].IsNull():
				if col.Nulls == nil {
					col.Nulls = make([]bool, n)
				}
				col.Nulls[i] = true
			case kind == types.KindInt:
				col.Ints[i] = t[c].AsInt()
			case kind == types.KindFloat:
				col.Floats[i] = t[c].AsFloat()
			default:
				col.Strs[i] = t[c].AsString()
			}
		}
	}
	return v
}

// requireIdentical compares two tuple lists cell for cell by rendering,
// which tells 1 from 1.0 and 0.0 from -0.0 and lets NaN match NaN.
func requireIdentical(t *testing.T, label string, got, want []schema.Tuple) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d tuples, want %d\ngot  %v\nwant %v", label, len(got), len(want), got, want)
	}
	for i := range want {
		if got[i].String() != want[i].String() {
			t.Fatalf("%s: tuple %d = %s, want %s", label, i, got[i], want[i])
		}
	}
}

// requireColumnarMatchesRows checks ComputeColumnar against Compute on
// all four lane pairings of one input pair, and its work counts against
// a count made from the rows; and ComputeHashed, over the old side
// hashed once, with its Minus boxed and taken from the old side's rows,
// against ComputeColumnar: the same result and the same counts.
func requireColumnarMatchesRows(t *testing.T, label string, a, b *storage.Relation) {
	t.Helper()
	n := min(len(a.Tuples), len(b.Tuples))
	residual := len(a.Tuples) + len(b.Tuples) - 2*n
	for i := 0; i < n; i++ {
		if !a.Tuples[i].Equal(b.Tuples[i]) {
			residual += 2
		}
	}
	for _, boxA := range []bool{false, true} {
		for _, boxB := range []bool{false, true} {
			va, vb := laneView(a, boxA), laneView(b, boxB)
			want := Compute(va.Relation(), vb.Relation())
			got, work := ComputeColumnar(va, vb)
			l := fmt.Sprintf("%s (boxed: old %v, new %v)", label, boxA, boxB)
			requireIdentical(t, l+" minus", got.Minus, want.Minus)
			requireIdentical(t, l+" plus", got.Plus, want.Plus)
			if got.Relation != want.Relation || got.Schema != want.Schema {
				t.Fatalf("%s: result names %s/%v, want %s/%v", l, got.Relation, got.Schema, want.Relation, want.Schema)
			}
			if work.Compared != n || work.Hashed != residual || work.Boxed != want.Size() {
				t.Fatalf("%s: work %+v, want %d compared, %d hashed, %d boxed", l, work, n, residual, want.Size())
			}
			hv := NewHashedView(va)
			for _, oldRows := range [][]schema.Tuple{nil, va.Relation().Tuples} {
				h, hwork := ComputeHashed(hv, vb, oldRows)
				hl := fmt.Sprintf("%s hashed (old rows given: %v)", l, oldRows != nil)
				requireIdentical(t, hl+" minus", h.Minus, want.Minus)
				requireIdentical(t, hl+" plus", h.Plus, want.Plus)
				if hwork != work {
					t.Fatalf("%s: work %+v, want ComputeColumnar's %+v", hl, hwork, work)
				}
			}
		}
	}
}

func relOf(sch *schema.Schema, rows ...schema.Tuple) *storage.Relation {
	out := storage.NewRelation(sch)
	out.Tuples = rows
	return out
}

func TestComputeColumnarEdgeCases(t *testing.T) {
	I, F, S, N := types.Int, types.Float, types.String, types.Null()
	row := schema.NewTuple
	sch := schema.New("t", schema.Col("k", types.KindInt), schema.Col("x", types.KindFloat), schema.Col("s", types.KindString))
	base := func(n int) []schema.Tuple {
		out := make([]schema.Tuple, n)
		for i := range out {
			out[i] = row(I(int64(i)), F(float64(i%7)/2), S(string(rune('a'+i%5))))
		}
		return out
	}
	with := func(rows []schema.Tuple, edit func(rows []schema.Tuple) []schema.Tuple) []schema.Tuple {
		return edit(append([]schema.Tuple(nil), rows...))
	}
	const two53 = int64(1) << 53
	negZero := math.Copysign(0, -1)
	for _, tc := range []struct {
		name     string
		old, new []schema.Tuple
	}{
		{"both empty", nil, nil},
		{"equal sides", base(40), base(40)},
		{"disjoint sides", base(10), with(base(10), func(r []schema.Tuple) []schema.Tuple {
			for i := range r {
				r[i] = row(I(int64(100+i)), r[i][1], r[i][2])
			}
			return r
		})},
		{"old empty", nil, base(5)},
		{"new empty", base(5), nil},
		{"a row deleted on the new side: nothing after it is aligned", base(30), with(base(30), func(r []schema.Tuple) []schema.Tuple {
			return append(r[:7:7], r[8:]...)
		})},
		{"a row deleted on the old side, one appended too", with(base(30), func(r []schema.Tuple) []schema.Tuple {
			return append(append(r[:3:3], r[4:]...), row(I(77), F(1), S("z")))
		}), base(30)},
		{"duplicates with different multiplicities",
			[]schema.Tuple{row(I(1), F(1), S("a")), row(I(1), F(1), S("a")), row(I(1), F(1), S("a")), row(I(2), F(2), S("b"))},
			[]schema.Tuple{row(I(2), F(2), S("b")), row(I(1), F(1), S("a")), row(I(2), F(2), S("b")), row(I(2), F(2), S("b")), row(I(2), F(2), S("b"))}},
		{"rows that cancel only across positions", base(20), with(base(20), func(r []schema.Tuple) []schema.Tuple {
			r[2], r[17] = r[17], r[2]
			r[5], r[6], r[7] = r[7], r[5], r[6]
			return r
		})},
		{"in-place rewrites", base(50), with(base(50), func(r []schema.Tuple) []schema.Tuple {
			for i := 0; i < len(r); i += 9 {
				r[i] = row(r[i][0], F(99), r[i][2])
			}
			return r
		})},
		{"NULL mask on the new side only", base(12), with(base(12), func(r []schema.Tuple) []schema.Tuple {
			r[3] = row(N, r[3][1], r[3][2])
			r[4] = row(r[4][0], N, N)
			return r
		})},
		{"NULL masks on both sides, partly agreeing",
			with(base(12), func(r []schema.Tuple) []schema.Tuple {
				r[3] = row(N, r[3][1], r[3][2])
				r[5] = row(r[5][0], N, r[5][2])
				r[8] = row(N, N, N)
				return r
			}),
			with(base(12), func(r []schema.Tuple) []schema.Tuple {
				r[3] = row(N, r[3][1], r[3][2])
				r[6] = row(r[6][0], N, r[6][2])
				r[8] = row(N, N, N)
				return r
			})},
		{"a NULL payload is garbage, not a value",
			[]schema.Tuple{row(N, F(1), S("a")), row(I(0), F(1), S("a"))},
			[]schema.Tuple{row(I(0), F(1), S("a")), row(N, F(1), S("a"))}},
		{"NaN equals nothing, itself included",
			[]schema.Tuple{row(I(1), F(math.NaN()), S("a")), row(I(2), F(1), S("b"))},
			[]schema.Tuple{row(I(1), F(math.NaN()), S("a")), row(I(2), F(1), S("b"))}},
		{"the two zeros are equal",
			[]schema.Tuple{row(I(1), F(0), S("a")), row(I(2), F(negZero), S("b"))},
			[]schema.Tuple{row(I(1), F(negZero), S("a")), row(I(2), F(0), S("b"))}},
		{"int lanes compare exactly past 2^53",
			[]schema.Tuple{row(I(two53), F(1), S("a")), row(I(two53+1), F(1), S("a")), row(I(-two53-1), F(1), S("a"))},
			[]schema.Tuple{row(I(two53+1), F(1), S("a")), row(I(two53+1), F(1), S("a")), row(I(-two53), F(1), S("a"))}},
		{"an int lane against a float lane compares as floats",
			[]schema.Tuple{row(I(two53), F(1), S("a")), row(I(two53+1), F(1), S("a")), row(I(3), F(1), S("a")), row(I(4), F(1), S("a"))},
			[]schema.Tuple{row(F(float64(two53)), F(1), S("a")), row(F(float64(two53)), F(1), S("a")), row(F(3), F(1), S("a")), row(F(4.5), F(1), S("a"))}},
		{"a float lane against an int lane, with NULLs",
			[]schema.Tuple{row(I(1), F(2), S("a")), row(I(2), N, S("a")), row(I(3), F(2.5), S("a")), row(I(4), N, S("a"))},
			[]schema.Tuple{row(I(1), I(2), S("a")), row(I(2), N, S("a")), row(I(3), I(2), S("a")), row(I(4), I(0), S("a"))}},
		{"1 and 1.0 tie under Compare: the drain order decides",
			[]schema.Tuple{row(I(9), F(1), S("a")), row(I(8), F(1), S("a"))},
			[]schema.Tuple{row(F(1), F(1), S("a")), row(I(1), F(1), S("a")), row(I(1), F(1), S("b")), row(F(1), F(1), S("b"))}},
		{"a string lane against an int lane",
			[]schema.Tuple{row(I(1), F(1), S("1")), row(N, F(1), N)},
			[]schema.Tuple{row(I(1), F(1), I(1)), row(N, F(1), N)}},
		{"a bool among strings boxes the column",
			[]schema.Tuple{row(I(1), F(1), S("a")), row(I(2), F(1), types.True)},
			[]schema.Tuple{row(I(1), F(1), S("a")), row(I(2), F(1), types.False)}},
	} {
		requireColumnarMatchesRows(t, tc.name, relOf(sch, tc.old...), relOf(sch, tc.new...))
	}
}

// TestComputeColumnarBatchBoundaries: row counts around the executor's
// 1024-row batch, equal and unequal, with a sparse in-place delta.
func TestComputeColumnarBatchBoundaries(t *testing.T) {
	sizes := []int{0, 1, 1023, 1024, 1025}
	for _, na := range sizes {
		for _, nb := range sizes {
			a := workload.Taxi(max(na, 1), 1).Rel
			a.Tuples = a.Tuples[:na]
			b := storage.NewRelation(a.Schema)
			full := workload.Taxi(max(nb, 1), 1).Rel.Tuples[:nb]
			b.Tuples = append(b.Tuples, full...)
			for i := 0; i < nb; i += 100 {
				r := b.Tuples[i].Clone()
				r[6] = types.Float(r[6].AsFloat() + 1)
				b.Tuples[i] = r
			}
			requireColumnarMatchesRows(t, fmt.Sprintf("%d vs %d rows", na, nb), a, b)
		}
	}
}

// TestComputeColumnarDifferentArity: no tuple of one width equals a
// tuple of another.
func TestComputeColumnarDifferentArity(t *testing.T) {
	a := relOf(schema.New("t", schema.Col("a", types.KindInt)), schema.NewTuple(types.Int(1)), schema.NewTuple(types.Int(2)))
	b := relOf(schema.New("t", schema.Col("a", types.KindInt), schema.Col("b", types.KindInt)), schema.NewTuple(types.Int(1), types.Int(1)))
	requireColumnarMatchesRows(t, "1 vs 2 columns", a, b)
	requireColumnarMatchesRows(t, "2 vs 1 columns", b, a)
}

// TestComputeColumnarRandomProperty: 10⁴ random pairs from a pool small
// enough that rows collide, with every kind in every column, in the four
// shapes reenactment produces (see TestComputeMatchesMultisetDiff).
func TestComputeColumnarRandomProperty(t *testing.T) {
	trials := 10000
	if testing.Short() {
		trials = 1000
	}
	r := rand.New(rand.NewSource(20))
	// Narrower pools per column, so that typed lanes (and int-against-
	// float ones) come up as often as boxed ones.
	pools := [][]types.Value{
		mixedCells,
		{types.Int(0), types.Int(1), types.Int(2), types.Null()},
		{types.Float(0), types.Float(1), types.Float(2.5), types.Float(math.Copysign(0, -1)), types.Float(math.NaN())},
		{types.Int(1), types.Float(1), types.Int(2)},
		{types.String("a"), types.String("b"), types.Null()},
	}
	sch := schema.New("t", schema.Col("a", types.KindInt), schema.Col("b", types.KindString))
	bag := func(n int, pa, pb []types.Value) *storage.Relation {
		out := storage.NewRelation(sch)
		for i := 0; i < n; i++ {
			out.Tuples = append(out.Tuples, schema.Tuple{pa[r.Intn(len(pa))], pb[r.Intn(len(pb))]})
		}
		return out
	}
	for i := 0; i < trials; i++ {
		pa, pb := pools[r.Intn(len(pools))], pools[r.Intn(len(pools))]
		a := bag(r.Intn(25), pa, pb)
		var b *storage.Relation
		switch i % 4 {
		case 0:
			b = bag(r.Intn(25), pools[r.Intn(len(pools))], pb)
		case 1:
			b = relOf(sch, append([]schema.Tuple(nil), a.Tuples...)...)
			for k := r.Intn(4); k > 0 && len(b.Tuples) > 0; k-- {
				b.Tuples[r.Intn(len(b.Tuples))] = bag(1, pa, pb).Tuples[0]
			}
		case 2:
			b = relOf(sch, append([]schema.Tuple(nil), a.Tuples...)...)
			if n := len(b.Tuples); n > 0 {
				k := r.Intn(n)
				b.Tuples = append(b.Tuples[:k:k], b.Tuples[k+1:]...)
			}
		case 3:
			b = permuted(r, a)
		}
		requireColumnarMatchesRows(t, fmt.Sprintf("trial %d", i), a, b)
	}
}

// TestComputeColumnarResultPinsItsOwnRows: the new side is the old one
// rotated by a row, so no position cancels and both whole relations are
// residual — 3 MB of cells a side, were they boxed — of which two tuples
// a side are delta. Only those are boxed, into arenas of their own size,
// and kept alone the Result holds nothing else.
func TestComputeColumnarResultPinsItsOwnRows(t *testing.T) {
	const rows = 6000
	a := workload.Taxi(rows, 1).Rel
	b := storage.NewRelation(a.Schema)
	b.Tuples = append(append(b.Tuples, a.Tuples[1:]...), a.Tuples[0])
	for _, i := range []int{10, 4000} {
		r := b.Tuples[i].Clone()
		r[6] = types.Float(r[6].AsFloat() + 1)
		b.Tuples[i] = r
	}
	va, vb := storage.BuildColumnar(a), storage.BuildColumnar(b)
	heap := func() int64 {
		runtime.GC()
		runtime.GC()
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return int64(m.HeapAlloc)
	}
	before := heap()
	kept, work := ComputeColumnar(va, vb)
	grew := heap() - before
	if kept.Size() != 4 || work.Boxed != 4 || work.Hashed != 2*rows {
		t.Fatalf("delta of %d tuples, %d rows boxed of %d hashed; want 4, 4, %d", kept.Size(), work.Boxed, work.Hashed, 2*rows)
	}
	if !kept.Equal(Compute(a, b)) {
		t.Fatal("delta differs from the row path's")
	}
	if grew > 64<<10 {
		t.Errorf("a kept 4-tuple delta holds %d KB", grew>>10)
	}
	runtime.KeepAlive(va)
	runtime.KeepAlive(vb)
}

// taxiResidualPair is a what-if-shaped input: 3 200 Taxi rows a side, of
// which about 45 % do not cancel at their position — a fifth rewritten
// in place, a quarter permuted among neighbours so that they cancel
// only across positions (scan_heavy's mix).
func taxiResidualPair() (orig, mod *storage.Relation) {
	orig = workload.Taxi(3200, 1).Rel
	mod = storage.NewRelation(orig.Schema)
	mod.Tuples = append(mod.Tuples, orig.Tuples...)
	for i := 0; i+1 < len(mod.Tuples); i += 20 {
		for k := 0; k < 4; k++ {
			row := mod.Tuples[i+k].Clone()
			row[6] = types.Float(row[6].AsFloat() + 1)
			mod.Tuples[i+k] = row
		}
		w := mod.Tuples[i+4 : i+9]
		w[0], w[1] = w[1], w[0]
		w[2], w[3], w[4] = w[4], w[2], w[3]
	}
	return orig, mod
}

// BenchmarkDeltaColumnar is one what-if's delta three ways: columnar is
// the whole of what it costs now; rows is Compute alone, over sides that
// arrive boxed; box+rows adds what the executor's row sink paid to box
// both sides first, which is what a what-if's tail used to cost.
func BenchmarkDeltaColumnar(b *testing.B) {
	orig, mod := taxiResidualPair()
	vo, vm := storage.BuildColumnar(orig), storage.BuildColumnar(mod)
	if got, work := ComputeColumnar(vo, vm); !got.Equal(Compute(orig, mod)) || work.Hashed*100/(2*work.Compared) != 45 || work.Boxed != got.Size() {
		b.Fatalf("fixture: %d of %d rows residual, %d boxed for a delta of %d, delta agrees: %v", work.Hashed, 2*work.Compared, work.Boxed, got.Size(), got.Equal(Compute(orig, mod)))
	}
	b.Run("columnar", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			benchSink, _ = ComputeColumnar(vo, vm)
		}
	})
	b.Run("box+rows", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			benchSink = Compute(vo.Relation(), vm.Relation())
		}
	})
	b.Run("rows", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			benchSink = Compute(orig, mod)
		}
	})
}
