package storage

import (
	"context"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"github.com/mahif/mahif/internal/schema"
	"github.com/mahif/mahif/internal/types"
)

// publishedRel returns rel as a SnapshotCache hands it out — frozen —
// along with the cache whose counters it moves.
func publishedRel(t *testing.T, rel *Relation) (*Relation, *SnapshotCache) {
	t.Helper()
	db := NewDatabase()
	db.AddRelation(rel)
	c := NewSnapshotCache(NewVersioned(db))
	snap, err := c.SnapshotCtx(context.Background(), 0)
	if err != nil {
		t.Fatal(err)
	}
	out, err := snap.Relation(rel.Schema.Relation)
	if err != nil {
		t.Fatal(err)
	}
	return out, c
}

// TestSharedColumnarOncePerFrozenRelation pins the lifetime of the
// view the vectorized executor scans through: built once per published
// relation however many ask at once, counted apart from Derive, absent
// on private relations and clones, and rebuilt with an evicted snapshot.
func TestSharedColumnarOncePerFrozenRelation(t *testing.T) {
	v := newBumpStore(t, 6)
	c := NewSnapshotCache(v)
	db, err := c.SnapshotCtx(context.Background(), 3)
	if err != nil {
		t.Fatal(err)
	}
	rel, _ := db.Relation("t")

	views := make([]*ColumnarView, 16)
	var wg sync.WaitGroup
	for g := range views {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			var err error
			if views[g], err = rel.SharedColumnar(); err != nil {
				t.Error(err)
			}
		}(g)
	}
	wg.Wait()
	for g, view := range views {
		if view == nil || view != views[0] {
			t.Fatalf("caller %d got view %p, caller 0 got %p: not one shared view", g, view, views[0])
		}
	}
	if views[0].Rows != rel.Len() || views[0].Cols[0].Ints[0] != rel.Tuples[0][0].AsInt() {
		t.Errorf("view does not transpose the relation: %d rows, first cell %d", views[0].Rows, views[0].Cols[0].Ints[0])
	}
	if hits, misses := c.ColumnarStats(); hits != 15 || misses != 1 {
		t.Errorf("ColumnarStats() = %d hits, %d misses, want 15, 1", hits, misses)
	}
	if hits, misses := c.DerivedStats(); hits != 0 || misses != 0 {
		t.Errorf("the view moved Derive's counters: %d hits, %d misses", hits, misses)
	}

	// Keyed values cannot crowd the view out: it has its own slot.
	for key := 0; key < maxDerived+3; key++ {
		if _, err := rel.Derive(key, func() (any, error) { return key, nil }); err != nil {
			t.Fatal(err)
		}
	}
	if again, _ := rel.SharedColumnar(); again != views[0] {
		t.Error("the view was rebuilt once Derive's slots were full")
	}
	if hits, misses := c.ColumnarStats(); hits != 16 || misses != 1 {
		t.Errorf("Derive moved the view's counters: %d hits, %d misses, want 16, 1", hits, misses)
	}

	// Private relations have no shared view and move no counter.
	if view, err := rel.Clone().SharedColumnar(); view != nil || err != nil {
		t.Errorf("a clone of a published relation has a shared view (%p, %v)", view, err)
	}
	if view, err := intRel("p", 1, 2).SharedColumnar(); view != nil || err != nil {
		t.Errorf("a never-published relation has a shared view (%p, %v)", view, err)
	}
	if hits, misses := c.ColumnarStats(); hits != 16 || misses != 1 {
		t.Errorf("a private relation moved the cache's counters: %d hits, %d misses", hits, misses)
	}

	// Evicted and rebuilt: a new relation object, a new view.
	c.SetLimit(1)
	if _, err := c.SnapshotCtx(context.Background(), 5); err != nil {
		t.Fatal(err)
	}
	db2, err := c.SnapshotCtx(context.Background(), 3)
	if err != nil {
		t.Fatal(err)
	}
	rel2, _ := db2.Relation("t")
	if rel2 == rel {
		t.Fatal("version 3 was not rebuilt after its eviction")
	}
	view2, err := rel2.SharedColumnar()
	if err != nil || view2 == nil || view2 == views[0] {
		t.Errorf("a rebuilt snapshot returned view %p (the evicted one was %p), err %v", view2, views[0], err)
	}
	if _, misses := c.ColumnarStats(); misses != 2 {
		t.Errorf("%d view builds after a rebuild, want 2", misses)
	}
}

// TestSharedColumnarShortRow: a published relation holding a tuple
// shorter than its schema has no view; the build reports it — once,
// remembered like a view — instead of indexing past the tuple.
func TestSharedColumnarShortRow(t *testing.T) {
	rel := NewRelation(schema.New("t", schema.Col("a", types.KindInt), schema.Col("b", types.KindInt)))
	rel.Add(schema.NewTuple(types.Int(1), types.Int(2)))
	rel.Tuples = append(rel.Tuples, schema.NewTuple(types.Int(3)))
	frozen, c := publishedRel(t, rel)
	for i := 0; i < 2; i++ {
		view, err := frozen.SharedColumnar()
		if view != nil || err == nil || err.Error() != "row arity 1 below attribute index 1" {
			t.Fatalf("call %d: SharedColumnar() = %p, %v; want the short-row error", i, view, err)
		}
	}
	if hits, misses := c.ColumnarStats(); hits != 1 || misses != 1 {
		t.Errorf("ColumnarStats() = %d hits, %d misses, want the failed build remembered (1, 1)", hits, misses)
	}
}

// TestColumnarViewWindow checks the aliasing windows a scan reads a
// view through: every cell of every window equals the row store's, the
// lanes are capped at the window's end, and a typed column hands out a
// NULL mask only for windows touching a block that holds a NULL — the
// no-NULL kernels must not be lost to one NULL elsewhere in the column.
func TestColumnarViewWindow(t *testing.T) {
	const rows = 3*nullBlockRows + 17
	rel := NewRelation(schema.New("t",
		schema.Col("clean", types.KindInt),
		schema.Col("sparse", types.KindFloat), // NULLs in blocks 0 and 3 only
		schema.Col("s", types.KindString),     // a NULL in block 2 only
		schema.Col("mixed", types.KindInt),    // one float cell: boxed lane
	))
	for i := 0; i < rows; i++ {
		sparse, s, mixed := types.Float(float64(i)/2), types.String(fmt.Sprint("s", i%7)), types.Int(int64(i))
		if i == 5 || i == rows-1 {
			sparse = types.Null()
		}
		if i == 2*nullBlockRows+100 {
			s = types.Null()
		}
		if i == nullBlockRows+1 {
			mixed = types.Float(0.5)
		}
		rel.Add(schema.NewTuple(types.Int(int64(i)), sparse, s, mixed))
	}
	view := rel.Columnar()
	if view.Cols[3].Kind != types.KindNull {
		t.Fatalf("mixed column took lane %v, want boxed", view.Cols[3].Kind)
	}

	type window struct{ lo, hi int }
	wantMask := map[window][3]bool{ // per typed column: clean, sparse, s
		{0, nullBlockRows}:                         {false, true, false},
		{nullBlockRows, 2 * nullBlockRows}:         {false, false, false},
		{2 * nullBlockRows, 3 * nullBlockRows}:     {false, false, true},
		{3 * nullBlockRows, rows}:                  {false, true, false},
		{nullBlockRows - 1, nullBlockRows + 1}:     {false, true, false}, // straddles into block 0
		{nullBlockRows, 2*nullBlockRows + 1}:       {false, false, true}, // straddles into block 2
		{0, rows}:                                  {false, true, true},
		{nullBlockRows + 10, nullBlockRows + 10}:   {false, false, false}, // empty
		{rows - 1, rows}:                           {false, true, false},
		{2*nullBlockRows + 101, 3 * nullBlockRows}: {false, false, true}, // conservative: the block, not the window
	}
	dst := make([]ColVec, len(view.Cols))
	for w, masks := range wantMask {
		view.Window(dst, w.lo, w.hi)
		for c := range dst {
			col := &dst[c]
			if laneLen(col) != w.hi-w.lo {
				t.Fatalf("window %v col %d: %d cells, want %d", w, c, laneLen(col), w.hi-w.lo)
			}
			if c < 3 && (col.Nulls != nil) != masks[c] {
				t.Errorf("window %v col %d: mask present = %v, want %v", w, c, col.Nulls != nil, masks[c])
			}
			if n := cap(col.Ints) + cap(col.Floats) + cap(col.Strs) + cap(col.Vals); n != w.hi-w.lo {
				t.Errorf("window %v col %d: lane capacity %d reaches past the window's %d rows", w, c, n, w.hi-w.lo)
			}
			if col.Nulls != nil && cap(col.Nulls) != w.hi-w.lo {
				t.Errorf("window %v col %d: mask capacity %d, want %d", w, c, cap(col.Nulls), w.hi-w.lo)
			}
			for r := 0; r < w.hi-w.lo; r++ {
				if got, want := col.Value(r), rel.Tuples[w.lo+r][c]; !got.Equal(want) || got.Kind() != want.Kind() {
					t.Fatalf("window %v col %d row %d = %s, want %s", w, c, r, got, want)
				}
			}
		}
	}

	// A view assembled by hand (the checkpoint decoder's) has no block
	// summary: its windows always carry the column's mask.
	bare := &ColumnarView{Schema: view.Schema, Rows: view.Rows, Cols: view.Cols}
	bare.Window(dst, nullBlockRows, 2*nullBlockRows)
	if dst[0].Nulls != nil || dst[1].Nulls == nil {
		t.Errorf("hand-assembled view: clean mask %v, sparse mask present %v; want nil, true", dst[0].Nulls, dst[1].Nulls != nil)
	}
}

// rewriteRow replaces row pos of t with a fresh copy of row, the way a
// replayed statement writes a row it changes.
type rewriteRow struct {
	pos int
	row schema.Tuple
}

func (m rewriteRow) Apply(db *Database) error {
	r, err := db.Relation("t")
	if err != nil {
		return err
	}
	r.Tuples[m.pos] = m.row.Clone()
	return nil
}

func (m rewriteRow) ApplyIndexed(db *Database, _ *IndexSet) error { return m.Apply(db) }

func (m rewriteRow) String() string { return fmt.Sprintf("rewrite row %d to %v", m.pos, m.row) }

// TestSnapshotLineageReleased: a snapshot replayed from one whose view
// is built carries a lineage until its own view is built, and not a
// moment longer — whether the derivation succeeds or meets a short row,
// which gets Transpose's error. A replay from the base, or from a
// snapshot without a view, carries none.
func TestSnapshotLineageReleased(t *testing.T) {
	rel := NewRelation(schema.New("t", schema.Col("a", types.KindInt), schema.Col("b", types.KindInt)))
	for i := 0; i < 100; i++ {
		rel.Add(schema.Tuple{types.Int(int64(i)), types.Int(int64(i % 3))})
	}
	db := NewDatabase()
	db.AddRelation(rel)
	v := NewVersioned(db)
	for _, m := range []rewriteRow{
		{4, schema.Tuple{types.Int(4), types.Int(400)}},
		{5, schema.Tuple{types.Int(5), types.Int(500)}},
		{7, schema.Tuple{types.Int(7)}}, // shorter than the schema
		{9, schema.Tuple{types.Int(9), types.Int(900)}},
		{0, schema.Tuple{types.Int(0), types.Int(0)}}, // keeps version 4 off the tip
	} {
		if err := v.Apply(m); err != nil {
			t.Fatal(err)
		}
	}
	c := NewSnapshotCache(v)
	snapshotRel := func(ver int) *Relation {
		t.Helper()
		snap, err := c.SnapshotCtx(context.Background(), ver)
		if err != nil {
			t.Fatal(err)
		}
		r, _ := snap.Relation("t")
		return r
	}
	// Version 1 is replayed from the base, which is not published.
	r1 := snapshotRel(1)
	if r1.lineage != nil {
		t.Fatal("version 1 carries a lineage from the base")
	}
	if _, err := r1.SharedColumnar(); err != nil {
		t.Fatal(err)
	}

	r2 := snapshotRel(2)
	if r2.lineage == nil || r2.lineage.base != r1.builtView() || len(r2.lineage.changed) != 1 {
		t.Fatalf("version 2, one row from a start with a view: lineage %+v", r2.lineage)
	}
	view, err := r2.SharedColumnar()
	if err != nil {
		t.Fatal(err)
	}
	if r2.lineage != nil {
		t.Fatal("the lineage outlived the view it derived")
	}
	if c.ColumnarDerived() != 1 || !reflect.DeepEqual(view, BuildColumnar(r2)) {
		t.Fatalf("version 2: %d derived, view ≡ BuildColumnar: %v", c.ColumnarDerived(), reflect.DeepEqual(view, BuildColumnar(r2)))
	}

	r3 := snapshotRel(3)
	if r3.lineage == nil {
		t.Fatal("version 3: no lineage from a start with a view")
	}
	_, err = r3.SharedColumnar()
	_, want := Transpose(r3.Clone())
	if err == nil || want == nil || err.Error() != want.Error() {
		t.Fatalf("version 3 holds a short row: err %v, Transpose's %v", err, want)
	}
	if r3.lineage != nil || c.ColumnarDerived() != 1 {
		t.Fatalf("a failed derivation kept its lineage (%v) or was counted (%d)", r3.lineage != nil, c.ColumnarDerived())
	}

	// Version 3 has no view, so a replay from it has nothing to derive from.
	if r4 := snapshotRel(4); r4.lineage != nil {
		t.Fatal("version 4 carries a lineage from a start whose view failed")
	}
}
