package storage

import (
	"math"
	"math/rand"
	"testing"

	"github.com/mahif/mahif/internal/types"
)

// TestMarkUnequalUnderSelections: MarkUnequal marks exactly the live
// positions whose cells are not Value.Equal — the k-th live cell of one
// column against the k-th of the other — for every pair of lanes (int,
// float, string, boxed; masked or not), under no selection, a selection
// on one side, or different selections on both, and it never clears a
// mark it was handed.
func TestMarkUnequalUnderSelections(t *testing.T) {
	rng := rand.New(rand.NewSource(52))
	const n = 24
	pool := []types.Value{
		types.Null(), types.Int(0), types.Int(1), types.Int(1 << 53), types.Int(1<<53 + 1),
		types.Float(0), types.Float(math.Copysign(0, -1)), types.Float(1), types.Float(1 << 53), types.Float(math.NaN()),
		types.String(""), types.String("1"), types.True,
	}
	// column draws n cells on the lane kind, with a mask when masked.
	column := func(kind types.Kind, masked bool) ColVec {
		c := ColVec{Kind: kind}
		if masked {
			c.Nulls = make([]bool, n)
		}
		for i := 0; i < n; i++ {
			null := masked && rng.Intn(4) == 0
			if null {
				c.Nulls[i] = true
			}
			switch kind {
			case types.KindInt:
				c.Ints = append(c.Ints, []int64{0, 1, 1 << 53, 1<<53 + 1}[rng.Intn(4)])
			case types.KindFloat:
				c.Floats = append(c.Floats, []float64{0, math.Copysign(0, -1), 1, 1 << 53, math.NaN()}[rng.Intn(5)])
			case types.KindString:
				c.Strs = append(c.Strs, []string{"", "1", "a"}[rng.Intn(3)])
			default:
				c.Vals = append(c.Vals, pool[rng.Intn(len(pool))])
			}
		}
		return c
	}
	// selection lists live rows ascending, or is nil for rows 0..live-1.
	selection := func(live int) []int {
		if rng.Intn(3) == 0 {
			return nil
		}
		sel := rng.Perm(n)[:live]
		for i := 1; i < len(sel); i++ {
			for j := i; j > 0 && sel[j] < sel[j-1]; j-- {
				sel[j], sel[j-1] = sel[j-1], sel[j]
			}
		}
		return sel
	}
	kinds := []types.Kind{types.KindInt, types.KindFloat, types.KindString, types.KindNull}
	for trial := 0; trial < 3000; trial++ {
		a := column(kinds[rng.Intn(4)], rng.Intn(2) == 0)
		b := column(kinds[rng.Intn(4)], rng.Intn(2) == 0)
		live := rng.Intn(n + 1)
		aSel, bSel := selection(live), selection(live)
		neq := make([]bool, live)
		preset := make([]bool, live)
		for k := range neq {
			preset[k] = rng.Intn(8) == 0
			neq[k] = preset[k]
		}
		MarkUnequal(neq, &a, aSel, &b, bSel)
		for k := range neq {
			want := preset[k] || !a.Value(selRow(aSel, k)).Equal(b.Value(selRow(bSel, k)))
			if neq[k] != want {
				t.Fatalf("trial %d: %s lane %v against %s lane %v at live %d (rows %d, %d): marked %v, want %v",
					trial, a.Kind, aSel, b.Kind, bSel, k, selRow(aSel, k), selRow(bSel, k), neq[k], want)
			}
		}
	}
}
