package storage

import (
	"math"
	"testing"

	"github.com/mahif/mahif/internal/types"
)

// TestColVecHoldsBitIdentity: a cell holds x only when it is the cell a
// transposition of x would write, bit for bit. On the boxed lane that
// is == on Values, not Equal: a lineage that took -0 for +0, or 1.0 for
// 1, would alias a lane the transposition does not build.
func TestColVecHoldsBitIdentity(t *testing.T) {
	negZero := types.Float(math.Copysign(0, -1))
	nan := types.Float(math.NaN())
	boxed := ColVec{Kind: types.KindNull, Vals: []types.Value{types.Float(0), nan, types.Int(1), types.Null(), types.String("a")}}
	floats := ColVec{Kind: types.KindFloat, Floats: []float64{0, math.NaN(), 1}}
	cases := []struct {
		c    *ColVec
		r    int
		x    types.Value
		want bool
	}{
		{&boxed, 0, types.Float(0), true},
		{&boxed, 0, negZero, false},
		{&boxed, 0, types.Int(0), false},
		{&boxed, 1, nan, true},
		{&boxed, 1, types.Float(math.Float64frombits(math.Float64bits(math.NaN()) ^ 1)), false},
		{&boxed, 2, types.Int(1), true},
		{&boxed, 2, types.Float(1), false},
		{&boxed, 3, types.Null(), true},
		{&boxed, 4, types.String("a"), true},
		{&floats, 0, negZero, false},
		{&floats, 1, nan, true},
		{&floats, 2, types.Int(1), false},
	}
	for _, c := range cases {
		if got := c.c.holds(c.r, c.x); got != c.want {
			t.Errorf("lane %s cell %d holds %v = %v, want %v", c.c.Kind, c.r, c.x, got, c.want)
		}
	}
}
