package storage

import (
	"math/rand"
	"slices"
	"testing"

	"github.com/mahif/mahif/internal/schema"
	"github.com/mahif/mahif/internal/types"
)

// TestRowHashIndexMatchesBagDifference: Match removes exactly the rows
// TupleIndex.Remove would — the earliest of each Equal class, as many as
// the bag holds — reports the tuples that found no row, and says
// identical only when every tuple is the row it removed, kind and bits
// included (1 against 1.0, -0.0 against 0.0 are not). Rows come from a
// small pool so the classes repeat, and the columns sit on typed lanes,
// masked lanes and the boxed lane.
func TestRowHashIndexMatchesBagDifference(t *testing.T) {
	s := schema.New("t", schema.Col("k", types.KindInt), schema.Col("v", types.KindFloat), schema.Col("m", types.KindString))
	cells := []types.Value{types.Null(), types.Int(1), types.Float(1), types.Float(0.5), types.Float(0), types.String("a")}
	r := rand.New(rand.NewSource(5))
	for c := 0; c < 500; c++ {
		rel := NewRelation(s)
		for n := r.Intn(40); n > 0; n-- {
			m := types.String([]string{"x", "y"}[r.Intn(2)])
			if c%3 == 0 {
				m = cells[r.Intn(len(cells))] // a mixed column: the boxed lane
			}
			rel.Tuples = append(rel.Tuples, schema.Tuple{types.Int(int64(r.Intn(3))), cells[r.Intn(5)], m})
		}
		var bag []schema.Tuple
		for n := r.Intn(12); n > 0; n-- {
			var tp schema.Tuple
			if len(rel.Tuples) > 0 && r.Intn(4) > 0 {
				tp = slices.Clone(rel.Tuples[r.Intn(len(rel.Tuples))])
			} else {
				tp = schema.Tuple{types.Int(int64(r.Intn(4))), cells[r.Intn(5)], types.String("x")}
			}
			if r.Intn(5) == 0 && tp[0].Kind() == types.KindInt {
				tp[0] = types.Float(float64(tp[0].AsInt()))
			}
			bag = append(bag, tp)
		}
		ix := NewRowHashIndex(BuildColumnar(rel))
		rows, missing, identical := ix.Match(bag)

		all := indexOf(rel)
		wantMissing := 0
		for _, tp := range bag {
			if !all.Remove(tp) {
				wantMissing++
			}
		}
		if missing != wantMissing {
			t.Fatalf("case %d: %d missing, TupleIndex says %d", c, missing, wantMissing)
		}
		wantIdentical := true
		for i, row := range rows {
			if row < 0 {
				continue
			}
			for j := range bag[i] {
				x, y := bag[i][j], rel.Tuples[row][j]
				if x.Kind() != y.Kind() || x.String() != y.String() {
					wantIdentical = false
				}
			}
		}
		if identical != wantIdentical {
			t.Fatalf("case %d: identical = %v, want %v", c, identical, wantIdentical)
		}
		// The rows a bag difference keeps are the ones Match did not take,
		// in order.
		taken := map[int]bool{}
		for _, row := range rows {
			if row >= 0 {
				if taken[row] {
					t.Fatalf("case %d: row %d taken twice", c, row)
				}
				taken[row] = true
			}
		}
		var survivors []schema.Tuple
		for i, tp := range rel.Tuples {
			if !taken[i] {
				survivors = append(survivors, tp)
			}
		}
		wantSurvivors := bagDifference(rel.Tuples, bag)
		if len(survivors) != len(wantSurvivors) {
			t.Fatalf("case %d: %d survivors, the bag difference keeps %d", c, len(survivors), len(wantSurvivors))
		}
		for i := range survivors {
			if survivors[i].String() != wantSurvivors[i].String() {
				t.Fatalf("case %d: survivor %d = %s, the bag difference keeps %s", c, i, survivors[i], wantSurvivors[i])
			}
		}
	}
}

// bagDifference is R − bag with TupleIndex.Remove's rule: each row
// probes the bag in order, so the earliest Equal rows are removed.
func bagDifference(rows, bag []schema.Tuple) []schema.Tuple {
	ix := NewTupleIndex(len(bag))
	for _, t := range bag {
		ix.Add(t)
	}
	var out []schema.Tuple
	for _, t := range rows {
		if ix.Len() > 0 && ix.Remove(t) {
			continue
		}
		out = append(out, t)
	}
	return out
}
