package workload

import (
	"testing"

	"github.com/mahif/mahif/internal/expr"
	"github.com/mahif/mahif/internal/history"
	"github.com/mahif/mahif/internal/schema"
)

func TestDatasetsShape(t *testing.T) {
	for _, tc := range []struct {
		name string
		mk   func(int, int64) *Dataset
	}{
		{"taxi", Taxi}, {"tpcc", TPCC}, {"ycsb", YCSB},
	} {
		ds := tc.mk(500, 1)
		if ds.Rel.Len() != 500 {
			t.Errorf("%s: %d rows", tc.name, ds.Rel.Len())
		}
		if ds.Rel.Schema.ColIndex(ds.SelAttr) < 0 {
			t.Errorf("%s: SelAttr %q missing", tc.name, ds.SelAttr)
		}
		if ds.Rel.Schema.ColIndex(ds.SelAttr2) < 0 {
			t.Errorf("%s: SelAttr2 %q missing", tc.name, ds.SelAttr2)
		}
		for _, p := range ds.Payload {
			if ds.Rel.Schema.ColIndex(p) < 0 {
				t.Errorf("%s: payload %q missing", tc.name, p)
			}
		}
		if ds.Rel.Schema.ColIndex(ds.GroupBy) < 0 {
			t.Errorf("%s: group-by %q missing", tc.name, ds.GroupBy)
		}
		row := ds.NewRow(randFor(tc.name), 123)
		if len(row) != ds.Rel.Schema.Arity() {
			t.Errorf("%s: NewRow arity %d", tc.name, len(row))
		}
	}
}

func TestDatasetDeterminism(t *testing.T) {
	a := Taxi(100, 7)
	b := Taxi(100, 7)
	for i := range a.Rel.Tuples {
		if !a.Rel.Tuples[i].Equal(b.Rel.Tuples[i]) {
			t.Fatalf("row %d differs across same-seed generations", i)
		}
	}
	c := Taxi(100, 8)
	same := true
	for i := range a.Rel.Tuples {
		if !a.Rel.Tuples[i].Equal(c.Rel.Tuples[i]) {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds produced identical data")
	}
}

func TestSelectivityOfThreshold(t *testing.T) {
	// attr >= threshold(T) must affect ≈T% of a large uniform dataset.
	ds := Taxi(20000, 3)
	idx := ds.Rel.Schema.ColIndex(ds.SelAttr)
	for _, tPct := range []float64{0.5, 10, 25, 80} {
		cut := threshold(tPct)
		n := 0
		for _, tup := range ds.Rel.Tuples {
			if tup[idx].AsInt() >= cut {
				n++
			}
		}
		got := 100 * float64(n) / float64(ds.Rel.Len())
		if got < tPct*0.8-0.2 || got > tPct*1.2+0.2 {
			t.Errorf("T=%v: measured selectivity %.2f%%", tPct, got)
		}
	}
}

func TestGenerateCounts(t *testing.T) {
	ds := Taxi(500, 5)
	w, err := Generate(ds, Config{
		Updates: 40, Mods: 2, DependentPct: 25, AffectedPct: 10,
		InsertPct: 10, DeletePct: 10, Seed: 9,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(w.History) != 40 {
		t.Fatalf("history length %d", len(w.History))
	}
	if len(w.Mods) != 2 {
		t.Fatalf("mods %d", len(w.Mods))
	}
	var nIns, nDel, nUpd int
	for _, st := range w.History {
		switch st.(type) {
		case *history.InsertValues:
			nIns++
		case *history.Delete:
			nDel++
		case *history.Update:
			nUpd++
		}
	}
	if nIns != 4 || nDel != 4 {
		t.Errorf("inserts=%d deletes=%d, want 4/4", nIns, nDel)
	}
	// 2 modified + 10 dependent survive as updates (dependent count is
	// 25% of 40 = 10); some independents were replaced.
	if nUpd != 32 {
		t.Errorf("updates=%d, want 32", nUpd)
	}
	if len(w.DependentPos) != 10 {
		t.Errorf("dependent positions = %d, want 10", len(w.DependentPos))
	}
}

func TestGenerateModsTargetUpdates(t *testing.T) {
	ds := TPCC(300, 5)
	w, err := Generate(ds, Config{Updates: 10, Mods: 3, DependentPct: 20, AffectedPct: 10, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range w.Mods {
		r, ok := m.(history.Replace)
		if !ok {
			t.Fatalf("modification %T, want Replace", m)
		}
		if _, ok := w.History[r.Pos].(*history.Update); !ok {
			t.Errorf("modification targets %T at %d", w.History[r.Pos], r.Pos)
		}
		// The replacement must differ from the original.
		if w.History[r.Pos].String() == r.Stmt.String() {
			t.Errorf("replacement identical to original at %d", r.Pos)
		}
	}
}

// TestIndependentDisjointness: independent updates must be value-
// disjoint from the modified updates' conditions — the property program
// slicing exploits.
func TestIndependentDisjointness(t *testing.T) {
	ds := YCSB(400, 11)
	w, err := Generate(ds, Config{Updates: 20, Mods: 1, DependentPct: 20, AffectedPct: 15, Seed: 13})
	if err != nil {
		t.Fatal(err)
	}
	mod := w.Mods[0].(history.Replace)
	origCond := w.History[mod.Pos].(*history.Update).Where
	newCond := mod.Stmt.(*history.Update).Where
	for _, pos := range w.IndependentPos {
		u := w.History[pos].(*history.Update)
		// Exhaustively check disjointness on the sel-attr grid.
		for sel := int64(0); sel < SelRange; sel += 97 {
			for sel2 := int64(0); sel2 < SelRange; sel2 += 97 {
				tup := make(schema.Tuple, ds.Rel.Schema.Arity())
				copy(tup, ds.Rel.Tuples[0])
				tup[ds.Rel.Schema.ColIndex(ds.SelAttr)] = intVal(sel)
				tup[ds.Rel.Schema.ColIndex(ds.SelAttr2)] = intVal(sel2)
				indep, err := expr.Satisfied(u.Where, ds.Rel.Schema, tup)
				if err != nil {
					t.Fatal(err)
				}
				if !indep {
					continue
				}
				o, _ := expr.Satisfied(origCond, ds.Rel.Schema, tup)
				n, _ := expr.Satisfied(newCond, ds.Rel.Schema, tup)
				if o || n {
					t.Fatalf("independent update %d overlaps the modification at sel=%d sel2=%d", pos, sel, sel2)
				}
			}
		}
	}
}

// TestDependentOverlap: every dependent update's condition must overlap
// the modified condition somewhere.
func TestDependentOverlap(t *testing.T) {
	ds := Taxi(400, 15)
	w, err := Generate(ds, Config{Updates: 10, Mods: 1, DependentPct: 50, AffectedPct: 20, Seed: 17})
	if err != nil {
		t.Fatal(err)
	}
	mod := w.Mods[0].(history.Replace)
	origCond := w.History[mod.Pos].(*history.Update).Where
	selIdx := ds.Rel.Schema.ColIndex(ds.SelAttr)
	for _, pos := range w.DependentPos {
		u := w.History[pos].(*history.Update)
		overlap := false
		for sel := int64(0); sel < SelRange && !overlap; sel += 13 {
			tup := make(schema.Tuple, ds.Rel.Schema.Arity())
			copy(tup, ds.Rel.Tuples[0])
			tup[selIdx] = intVal(sel)
			a, _ := expr.Satisfied(u.Where, ds.Rel.Schema, tup)
			b, _ := expr.Satisfied(origCond, ds.Rel.Schema, tup)
			overlap = a && b
		}
		if !overlap {
			t.Errorf("dependent update at %d never overlaps the modified condition", pos)
		}
	}
}

func TestGenerateErrors(t *testing.T) {
	ds := Taxi(50, 1)
	if _, err := Generate(ds, Config{Updates: 2, Mods: 5}); err == nil {
		t.Error("M > U accepted")
	}
}

func TestLoadExecutesHistory(t *testing.T) {
	ds := TPCC(200, 19)
	w, err := Generate(ds, Config{Updates: 5, Mods: 1, DependentPct: 20, AffectedPct: 10, Seed: 21})
	if err != nil {
		t.Fatal(err)
	}
	vdb, err := w.Load()
	if err != nil {
		t.Fatal(err)
	}
	if vdb.NumVersions() != 5 {
		t.Errorf("versions = %d, want 5", vdb.NumVersions())
	}
	// The base snapshot must equal the dataset.
	base, err := vdb.Version(0)
	if err != nil {
		t.Fatal(err)
	}
	rel, _ := base.Relation("stock")
	if !rel.EqualAsBag(ds.Rel) {
		t.Error("version 0 differs from the dataset")
	}
}
