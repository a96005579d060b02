package exec

import (
	"cmp"
	"fmt"

	"github.com/mahif/mahif/internal/expr"
	"github.com/mahif/mahif/internal/types"
)

// truth is SQL three-valued logic unboxed: conditions compile to
// kernels writing truth vectors directly, so predicate trees (the
// per-UPDATE CASE guards and per-DELETE filters of reenactment)
// evaluate without constructing a types.Value per node per row.
type truth int8

const (
	tFalse truth = iota
	tTrue
	tNull
)

// truthOf converts a connective operand's value to the truth level: a
// non-NULL, non-boolean operand is an evaluation error (the
// interpreter's evalAndOr and NOT semantics).
func truthOf(v types.Value) (truth, error) {
	if v.IsNull() {
		return tNull, nil
	}
	if v.Kind() != types.KindBool {
		return tNull, fmt.Errorf("exec: boolean connective applied to %s", v.Kind())
	}
	if v.AsBool() {
		return tTrue, nil
	}
	return tFalse, nil
}

// whereTruth converts a condition's value under WHERE semantics: only
// TRUE satisfies; NULL and a non-boolean are not satisfied, never an
// error (expr.Satisfied).
func whereTruth(v types.Value) (truth, error) {
	return boolTruth(v.IsTrue()), nil
}

func (t truth) value() types.Value {
	switch t {
	case tTrue:
		return types.True
	case tFalse:
		return types.False
	}
	return types.Null()
}

// isBoolNode reports whether e always evaluates to a boolean or NULL.
func isBoolNode(e expr.Expr) bool {
	switch e.(type) {
	case *expr.Cmp, *expr.And, *expr.Or, *expr.Not, *expr.IsNull:
		return true
	}
	return false
}

// evalCmpTruth is the generic-comparison escape hatch of the fast
// paths (cross-kind operands), converting EvalCmp's boxed result.
func evalCmpTruth(op expr.CmpOp, l, r types.Value) (truth, error) {
	v, err := expr.EvalCmp(op, l, r)
	if err != nil {
		return tNull, err
	}
	if v.IsNull() {
		return tNull, nil
	}
	if v.AsBool() {
		return tTrue, nil
	}
	return tFalse, nil
}

// cmpOrdered applies a comparison to two operands of one ordered type
// (floats here are always finite and non-NaN — callers delegate those
// to the generic path).
func cmpOrdered[T cmp.Ordered](op expr.CmpOp, a, b T) (truth, error) {
	var ok bool
	switch op {
	case expr.CmpEq:
		ok = a == b
	case expr.CmpNe:
		ok = a != b
	case expr.CmpLt:
		ok = a < b
	case expr.CmpLe:
		ok = a <= b
	case expr.CmpGt:
		ok = a > b
	case expr.CmpGe:
		ok = a >= b
	default:
		return tNull, fmt.Errorf("exec: unknown comparison")
	}
	if ok {
		return tTrue, nil
	}
	return tFalse, nil
}
