package exec

import (
	"github.com/mahif/mahif/internal/algebra"
	"github.com/mahif/mahif/internal/expr"
	"github.com/mahif/mahif/internal/schema"
	"github.com/mahif/mahif/internal/storage"
	"github.com/mahif/mahif/internal/types"
)

// Join planning and key semantics for the vectorized joins
// (compileVecJoin, vequiJoinNode): which conditions take the hash path,
// which side builds, and what key equality means.

// buildOnLeft decides the hash-join build side. The left build keeps
// output order interpreter-exact by buffering matches per left row, so
// unlike the streaming right build its transient memory is O(|L| +
// matches) rather than O(|R|): on a heavily skewed key that buffer is
// the pre-filter join output. The trade is therefore only taken when
// the left input is decisively smaller (8×) and small in absolute
// terms; marginal cases keep the streaming right-build default.
// Estimates come from snapshot row counts at compile time; unknown
// estimates keep the default too.
func buildOnLeft(x *algebra.Join, db *storage.Database) bool {
	const margin, maxBuild = 8, 1 << 20
	le, lok := estimateRows(x.L, db)
	re, rok := estimateRows(x.R, db)
	return lok && rok && le <= maxBuild && le*margin <= re
}

// estimateRows is a compile-time upper-bound cardinality estimate from
// the snapshot's relation sizes: selections and projections preserve
// the bound, unions add, a difference is bounded by its left input,
// joins multiply. ok is false when a subtree's size cannot be derived
// from the snapshot.
func estimateRows(q algebra.Query, db *storage.Database) (int, bool) {
	switch x := q.(type) {
	case *algebra.Scan:
		r, err := db.Relation(x.Rel)
		if err != nil {
			return 0, false
		}
		return r.Len(), true
	case *algebra.Select:
		return estimateRows(x.In, db)
	case *algebra.Project:
		return estimateRows(x.In, db)
	case *algebra.Union:
		a, aok := estimateRows(x.L, db)
		b, bok := estimateRows(x.R, db)
		return a + b, aok && bok
	case *algebra.Difference:
		return estimateRows(x.L, db)
	case *algebra.Join:
		a, aok := estimateRows(x.L, db)
		b, bok := estimateRows(x.R, db)
		if !aok || !bok {
			return 0, false
		}
		if a > 0 && b > (1<<31)/a {
			return 1 << 31, true // saturate instead of overflowing
		}
		return a * b, true
	case *algebra.Singleton:
		return len(x.Tuples), true
	}
	return 0, false
}

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
