package storage

import (
	"fmt"
	"math/rand"
	"testing"

	"github.com/mahif/mahif/internal/schema"
	"github.com/mahif/mahif/internal/types"
)

// A vectorized run leaves its result in a ColumnarView by appending one
// batch after another, and a column need not arrive on the same lane in
// every batch. These tests feed AppendRows batches whose lanes and masks
// change from one to the next and read the view back as rows.

// appendAsBatches appends rows to v in batches of bs rows, each batch
// transposed on its own (so each picks its own lanes, as a private scan
// does) and narrowed by a selection that drops what keep rejects.
func appendAsBatches(v *ColumnarView, rows []schema.Tuple, bs int, keep func(i int) bool) (kept []schema.Tuple) {
	arity := v.Schema.Arity()
	cols := make([]ColVec, arity)
	for lo := 0; lo < len(rows); lo += bs {
		chunk := rows[lo:min(lo+bs, len(rows))]
		for c := range cols {
			cols[c].FillFromTuples(chunk, c, v.Schema.Columns[c].Type)
		}
		var sel []int
		if keep != nil {
			sel = []int{}
			for r := range chunk {
				if keep(lo + r) {
					sel = append(sel, r)
					kept = append(kept, chunk[r])
				}
			}
		} else {
			kept = append(kept, chunk...)
		}
		v.AppendRows(cols, sel, len(chunk))
	}
	return kept
}

func requireViewRows(t *testing.T, label string, v *ColumnarView, want []schema.Tuple) {
	t.Helper()
	got := v.Relation().Tuples
	if v.Rows != len(want) || len(got) != len(want) {
		t.Fatalf("%s: view holds %d rows (%d read back), want %d", label, v.Rows, len(got), len(want))
	}
	for i := range want {
		if got[i].String() != want[i].String() {
			t.Fatalf("%s: row %d = %s, want %s", label, i, got[i], want[i])
		}
	}
	for c := range v.Cols {
		if n := laneLen(&v.Cols[c]); n != v.Rows {
			t.Fatalf("%s: column %d holds %d cells for %d rows", label, c, n, v.Rows)
		}
		if m := v.Cols[c].Nulls; m != nil && len(m) != v.Rows {
			t.Fatalf("%s: column %d has a %d-cell mask for %d rows", label, c, len(m), v.Rows)
		}
	}
}

func TestAppendRowsLaneDriftAndLateNulls(t *testing.T) {
	sch := schema.New("t", schema.Col("i", types.KindInt), schema.Col("f", types.KindFloat), schema.Col("s", types.KindString))
	row := func(i int) schema.Tuple {
		return schema.NewTuple(types.Int(int64(i)), types.Float(float64(i)/2), types.String("g"))
	}
	const n, bs = 50, 10
	cases := []struct {
		name  string
		at    func(i int) schema.Tuple
		lanes [3]types.Kind // the lane each column ends on
		masks [3]bool
	}{
		{"all typed", row, [3]types.Kind{types.KindInt, types.KindFloat, types.KindString}, [3]bool{}},
		{"first NULL in the fourth batch", func(i int) schema.Tuple {
			tp := row(i)
			if i == 33 {
				tp[0], tp[2] = types.Null(), types.Null()
			}
			return tp
		}, [3]types.Kind{types.KindInt, types.KindFloat, types.KindString}, [3]bool{true, false, true}},
		{"NULLs in the first batch only", func(i int) schema.Tuple {
			tp := row(i)
			if i < 3 {
				tp[1] = types.Null()
			}
			return tp
		}, [3]types.Kind{types.KindInt, types.KindFloat, types.KindString}, [3]bool{false, true, false}},
		{"a float in an int column, third batch", func(i int) schema.Tuple {
			tp := row(i)
			if i == 25 {
				tp[0] = types.Float(2.5)
			}
			if i == 4 {
				tp[0] = types.Null() // a mask to carry across the demotion
			}
			return tp
		}, [3]types.Kind{types.KindNull, types.KindFloat, types.KindString}, [3]bool{}},
		{"boxed first, typed after", func(i int) schema.Tuple {
			tp := row(i)
			if i == 2 {
				tp[2] = types.Bool(true)
			}
			return tp
		}, [3]types.Kind{types.KindInt, types.KindFloat, types.KindNull}, [3]bool{}},
	}
	for _, tc := range cases {
		rows := make([]schema.Tuple, n)
		for i := range rows {
			rows[i] = tc.at(i)
		}
		for _, sel := range []struct {
			name string
			keep func(i int) bool
		}{{"dense", nil}, {"every third row dropped", func(i int) bool { return i%3 != 1 }}, {"second batch empty", func(i int) bool { return i/bs != 1 }}} {
			v := NewColumnarView(sch, 0)
			want := appendAsBatches(v, rows, bs, sel.keep)
			label := tc.name + "/" + sel.name
			requireViewRows(t, label, v, want)
			if sel.keep != nil {
				continue // a selection may drop the cell that decides the lane
			}
			for c := range v.Cols {
				if v.Cols[c].Kind != tc.lanes[c] {
					t.Errorf("%s: column %d ended on lane %s, want %s", label, c, v.Cols[c].Kind, tc.lanes[c])
				}
				if (v.Cols[c].Nulls != nil) != tc.masks[c] {
					t.Errorf("%s: column %d mask present = %v, want %v", label, c, v.Cols[c].Nulls != nil, tc.masks[c])
				}
			}
		}
	}
}

// TestAppendRowsUnselectedNullsLeaveNoMask: a source mask whose NULLs
// are all filtered out must not cost the result its no-NULL lanes.
func TestAppendRowsUnselectedNullsLeaveNoMask(t *testing.T) {
	sch := schema.New("t", schema.Col("i", types.KindInt))
	src := []ColVec{{Kind: types.KindInt, Ints: []int64{1, 0, 3, 4}, Nulls: []bool{false, true, false, false}}}
	v := NewColumnarView(sch, 0)
	v.AppendRows(src, []int{0, 2}, 4)
	v.AppendRows(src, []int{}, 4)
	if v.Rows != 2 || v.Cols[0].Nulls != nil {
		t.Fatalf("rows %d, mask %v; want 2 rows and no mask", v.Rows, v.Cols[0].Nulls)
	}
	v.AppendRows(src, nil, 4)
	requireViewRows(t, "then dense", v, []schema.Tuple{
		{types.Int(1)}, {types.Int(3)}, {types.Int(1)}, {types.Null()}, {types.Int(3)}, {types.Int(4)},
	})
}

// TestAppendRowsCopies: the view owns its cells; the batch is the
// producer's to overwrite as soon as AppendRows returns.
func TestAppendRowsCopies(t *testing.T) {
	sch := schema.New("t", schema.Col("i", types.KindInt), schema.Col("x", types.KindBool))
	src := []ColVec{
		{Kind: types.KindInt, Ints: []int64{1, 2, 3}},
		{Kind: types.KindNull, Vals: []types.Value{types.True, types.False, types.Null()}},
	}
	v := NewColumnarView(sch, 0)
	v.AppendRows(src, nil, 3)
	src[0].Ints[0], src[1].Vals[0] = 99, types.Int(99)
	v.AppendRows(src, []int{0}, 3)
	requireViewRows(t, "after overwrite", v, []schema.Tuple{
		{types.Int(1), types.True}, {types.Int(2), types.False}, {types.Int(3), types.Null()}, {types.Int(99), types.Int(99)},
	})
}

// TestColumnarViewResetRefills: a view Reset for a new schema reads as
// empty, keeps no string or value it held reachable, refills a lane's
// array when the column comes back on that lane, and answers exactly
// like a fresh view whatever the lanes and masks of the rows appended
// after — fewer columns, more columns, another lane, a NULL mask.
func TestColumnarViewResetRefills(t *testing.T) {
	rng := rand.New(rand.NewSource(54))
	two := schema.New("t", schema.Col("i", types.KindInt), schema.Col("s", types.KindString))
	v := NewColumnarView(two, 0)
	rows := make([]schema.Tuple, 40)
	for i := range rows {
		rows[i] = schema.NewTuple(types.Int(int64(i)), types.String("x"))
	}
	requireViewRows(t, "fresh", v, appendAsBatches(v, rows, 16, nil))
	ints, strs := &v.Cols[0].Ints[:1][0], v.Cols[1].Strs[:cap(v.Cols[1].Strs)]

	v.Reset(two, 0)
	if v.Rows != 0 || v.Schema != two || len(v.Cols) != 2 {
		t.Fatalf("reset view: %d rows, schema %v, %d columns", v.Rows, v.Schema, len(v.Cols))
	}
	for i, s := range strs {
		if s != "" {
			t.Fatalf("reset view still holds string %q at %d", s, i)
		}
	}
	requireViewRows(t, "refilled", v, appendAsBatches(v, rows[:10], 4, nil))
	if &v.Cols[0].Ints[0] != ints {
		t.Fatal("an int column back on its lane did not refill its array")
	}

	schemas := []*schema.Schema{
		two,
		schema.New("u", schema.Col("f", types.KindFloat)),
		schema.New("w", schema.Col("i", types.KindInt), schema.Col("s", types.KindString), schema.Col("x", types.KindInt)),
	}
	cell := func() types.Value {
		return []types.Value{types.Int(1), types.Float(2.5), types.String("y"), types.Null(), types.True}[rng.Intn(5)]
	}
	for trial := 0; trial < 200; trial++ {
		s := schemas[rng.Intn(len(schemas))]
		rows := make([]schema.Tuple, rng.Intn(30))
		for i := range rows {
			rows[i] = make(schema.Tuple, s.Arity())
			for c := range rows[i] {
				rows[i][c] = cell()
			}
		}
		keep := func(i int) bool { return i%3 != 1 }
		bs := 1 + rng.Intn(9)
		v.Reset(s, rng.Intn(8))
		fresh := NewColumnarView(s, 0)
		appendAsBatches(fresh, rows, bs, keep)
		label := fmt.Sprintf("trial %d", trial)
		requireViewRows(t, label, v, appendAsBatches(v, rows, bs, keep))
		for c := range v.Cols {
			if v.Rows > 0 && (v.Cols[c].Kind != fresh.Cols[c].Kind || (v.Cols[c].Nulls == nil) != (fresh.Cols[c].Nulls == nil)) {
				t.Fatalf("%s: column %d on lane %v (mask %v), a fresh view's on %v (mask %v)", label, c,
					v.Cols[c].Kind, v.Cols[c].Nulls != nil, fresh.Cols[c].Kind, fresh.Cols[c].Nulls != nil)
			}
		}
	}
}

// TestGatherTuples: gathered tuples read the listed rows, in the listed
// order, and none can grow into its neighbour in the shared arena.
func TestGatherTuples(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	rel := NewRelation(schema.New("t", schema.Col("i", types.KindInt), schema.Col("s", types.KindString)))
	for i := 0; i < 300; i++ {
		s := types.String("x")
		if i%7 == 0 {
			s = types.Null()
		}
		rel.Add(schema.NewTuple(types.Int(int64(i)), s))
	}
	v := BuildColumnar(rel)
	if got := v.GatherTuples(nil); got != nil {
		t.Fatalf("no rows listed, got %v", got)
	}
	rows := []int{299, 0, 7, 7, 150}
	for i := 0; i < 20; i++ {
		rows = append(rows, rng.Intn(300))
	}
	got := v.GatherTuples(rows)
	for i, r := range rows {
		if got[i].String() != rel.Tuples[r].String() {
			t.Fatalf("gathered row %d = %s, want row %d = %s", i, got[i], r, rel.Tuples[r])
		}
		if cap(got[i]) != 2 {
			t.Fatalf("gathered row %d can grow into its neighbour (cap %d)", i, cap(got[i]))
		}
	}
}

// laneLen is the number of cells in c's active lane.
func laneLen(c *ColVec) int {
	switch c.Kind {
	case types.KindInt:
		return len(c.Ints)
	case types.KindFloat:
		return len(c.Floats)
	case types.KindString:
		return len(c.Strs)
	}
	return len(c.Vals)
}
