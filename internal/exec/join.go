package exec

import (
	"github.com/mahif/mahif/internal/expr"
	"github.com/mahif/mahif/internal/schema"
	"github.com/mahif/mahif/internal/types"
)

// Join key semantics for the hash join (compileVecJoin,
// vequiJoinNode): which conditions it takes and what key equality
// means.

// splitEquiJoin scans the conjuncts of a join condition for cross-side
// column equalities (L.a = R.b in either spelling). It returns the key
// ordinals per side and the conjunction of the remaining conjuncts
// (nil when every conjunct became a key). Columns whose names resolve
// on both sides are left in the residual — the algebra requires
// distinct names across join inputs, but ambiguity must not silently
// pick a side.
func splitEquiJoin(cond expr.Expr, ls, rs *schema.Schema) (lKeys, rKeys []int, residual expr.Expr) {
	var rest []expr.Expr
	for _, c := range conjuncts(cond) {
		cmp, ok := c.(*expr.Cmp)
		if !ok || cmp.Op != expr.CmpEq {
			rest = append(rest, c)
			continue
		}
		a, aok := cmp.L.(*expr.Col)
		b, bok := cmp.R.(*expr.Col)
		if !aok || !bok {
			rest = append(rest, c)
			continue
		}
		aL, aR := ls.ColIndex(a.Name), rs.ColIndex(a.Name)
		bL, bR := ls.ColIndex(b.Name), rs.ColIndex(b.Name)
		switch {
		case aL >= 0 && aR < 0 && bR >= 0 && bL < 0:
			lKeys = append(lKeys, aL)
			rKeys = append(rKeys, bR)
		case aR >= 0 && aL < 0 && bL >= 0 && bR < 0:
			lKeys = append(lKeys, bL)
			rKeys = append(rKeys, aR)
		default:
			rest = append(rest, c)
		}
	}
	if len(rest) == 0 {
		return lKeys, rKeys, nil
	}
	return lKeys, rKeys, expr.AndOf(rest...)
}

// conjuncts flattens a conjunction tree into its leaves.
func conjuncts(e expr.Expr) []expr.Expr {
	if and, ok := e.(*expr.And); ok {
		return append(conjuncts(and.L), conjuncts(and.R)...)
	}
	return []expr.Expr{e}
}

// hashKeys hashes the key columns of t; ok is false when any key is
// NULL (the tuple cannot join, matching SQL's NULL = NULL → unknown).
func hashKeys(t schema.Tuple, keys []int) (h uint64, ok bool) {
	h = schema.HashSeed
	for _, i := range keys {
		if t[i].IsNull() {
			return 0, false
		}
		h = schema.HashValue(h, t[i])
	}
	return h, true
}

// joinKeyEqual verifies key equality value-wise (guards against hash
// collisions), mirroring the = operator on non-NULL values exactly:
// numeric pairs compare widened to float64 (EvalCmp routes them
// through Compare, so Int(2^53) equals Int(2^53+1) there — exact int
// equality would diverge), equal non-numeric kinds by payload,
// mismatched kinds are unequal. −0.0 equals +0.0 and the tuple hash
// canonicalizes it; NaN cannot reach here (types.Parse and types.Arith
// keep it out of the value domain).
func joinKeyEqual(a, b types.Value) bool {
	if a.IsNumeric() && b.IsNumeric() {
		return a.AsFloat() == b.AsFloat()
	}
	if a.Kind() != b.Kind() {
		return false
	}
	return a.Equal(b)
}
