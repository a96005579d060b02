package algebra

import (
	"errors"
	"math/rand"
	"testing"

	"github.com/mahif/mahif/internal/expr"
	"github.com/mahif/mahif/internal/schema"
	"github.com/mahif/mahif/internal/storage"
	"github.com/mahif/mahif/internal/types"
)

// TestGroupStateMergeMatchesFold: folding a bag H, taking a sub-bag M
// out and merging a bag P in gives, group by group, the state of
// folding H − M + P directly — groups emptied by M are absent, groups
// new in P follow H's in P's first-appearance order — or refuses with
// ErrExtremumRemoved or ErrExtremumTie for a MIN/MAX the states do not
// decide. Keys mix NULL with cross-kind numerics (1 and 1.0 are one
// group); values mix ints, tenths and NULLs.
func TestGroupStateMergeMatchesFold(t *testing.T) {
	sch := schema.New("t", schema.Col("g", types.KindInt), schema.Col("v", types.KindFloat))
	full := &Aggregate{
		GroupBy: []NamedExpr{{Name: "g", E: expr.Column("g")}},
		Aggs: []AggExpr{
			{Name: "n", Fn: AggCount},
			{Name: "c", Fn: AggCount, Arg: expr.Column("v")},
			{Name: "s", Fn: AggSum, Arg: expr.Column("v")},
			{Name: "a", Fn: AggAvg, Arg: expr.Column("v")},
			{Name: "lo", Fn: AggMin, Arg: expr.Column("v")},
			{Name: "hi", Fn: AggMax, Arg: expr.Column("v")},
		},
		In: &Scan{Rel: "t"},
	}
	// Without MIN and MAX every merge is exact.
	sums := &Aggregate{GroupBy: full.GroupBy, Aggs: full.Aggs[:4], In: full.In}
	keys := []types.Value{types.Null(), types.Int(1), types.Float(1), types.Int(2), types.Int(3), types.Float(4.5)}
	r := rand.New(rand.NewSource(3))
	row := func() schema.Tuple {
		v := types.Float(float64(r.Intn(401)-200) / 10)
		switch r.Intn(6) {
		case 0:
			v = types.Null()
		case 1:
			v = types.Int(int64(r.Intn(41) - 20))
		}
		return schema.Tuple{keys[r.Intn(len(keys))], v}
	}
	fold := func(x *Aggregate, rows []schema.Tuple) *GroupState {
		rel := storage.NewRelation(sch)
		rel.Tuples = rows
		st, err := foldAggregate(x, rel)
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	merged, refused := 0, 0
	for c := 0; c < 2000; c++ {
		x := []*Aggregate{full, sums}[c%2]
		var h []schema.Tuple
		for n := r.Intn(40); n > 0; n-- {
			h = append(h, row())
		}
		var m, rest []schema.Tuple
		for _, t := range h {
			if r.Intn(5) == 0 {
				m = append(m, t)
			} else {
				rest = append(rest, t)
			}
		}
		var p []schema.Tuple
		for n := r.Intn(6); n > 0; n-- {
			p = append(p, row())
		}
		hist := fold(x, h)
		got := hist.Clone()
		err := got.Merge(fold(x, m), -1)
		if err == nil {
			err = got.Merge(fold(x, p), 1)
		}
		if x == full && (errors.Is(err, ErrExtremumRemoved) || errors.Is(err, ErrExtremumTie)) {
			refused++
			continue
		}
		if err != nil {
			t.Fatalf("case %d: %v", c, err)
		}
		merged++
		want := fold(x, append(rest, p...))
		gotRows, err := got.Rows()
		if err != nil {
			t.Fatal(err)
		}
		wantRows, err := want.Rows()
		if err != nil {
			t.Fatal(err)
		}
		if len(gotRows) != len(wantRows) {
			t.Fatalf("case %d: %d groups merged, %d folded", c, len(gotRows), len(wantRows))
		}
		for _, wr := range wantRows {
			found := false
			for _, gr := range gotRows {
				if gr[0].Equal(wr[0]) {
					found = true
					for j := range wr {
						if j > 0 && !same(gr[j], wr[j]) {
							t.Fatalf("case %d, group %s: merged row %s, folded %s", c, wr[0], gr, wr)
						}
					}
				}
			}
			if !found {
				t.Fatalf("case %d: group %s missing from the merged state", c, wr[0])
			}
		}
		// The historical state is untouched by merging into its clone.
		if again := fold(x, h); !sameRows(t, hist, again) {
			t.Fatalf("case %d: merging into a clone changed the state it was cloned from", c)
		}
	}
	if merged < 1200 || refused < 100 {
		t.Fatalf("%d merged, %d refused: the cases do not exercise both outcomes", merged, refused)
	}
}

func sameRows(t *testing.T, a, b *GroupState) bool {
	t.Helper()
	ar, err := a.Rows()
	if err != nil {
		t.Fatal(err)
	}
	br, err := b.Rows()
	if err != nil {
		t.Fatal(err)
	}
	if len(ar) != len(br) {
		return false
	}
	for i := range ar {
		for j := range ar[i] {
			if !same(ar[i][j], br[i][j]) {
				return false
			}
		}
	}
	return true
}
