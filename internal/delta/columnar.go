package delta

import (
	"github.com/mahif/mahif/internal/schema"
	"github.com/mahif/mahif/internal/storage"
	"github.com/mahif/mahif/internal/types"
)

// Work counts what one ComputeColumnar call did, in rows: Boxed over
// Compared is the share of a what-if's result that had to become
// tuples at all.
type Work struct {
	// Compared is the number of positions the two sides were compared at,
	// lane-wise and without boxing: the shorter side's row count.
	Compared int
	// Boxed is the number of rows gathered into tuples, both sides
	// together: the rows that did not cancel at their position — the
	// delta itself plus the rows that cancel only across positions.
	Boxed int
}

// ComputeColumnar is Compute over two results in columnar form, with
// the same Minus and Plus in the same order. Positions cancel in typed
// loops over the lanes, under exactly types.Value.Equal's rules (NULL
// equals NULL, 1 equals 1.0 across an int and a float lane, floats by
// ==, so NaN differs from itself and the two zeros are equal); only a
// column whose two sides sit on different non-numeric lanes, or on the
// boxed lane, compares boxed cells. Nothing assumes that column c is on
// the same lane on both sides. Only the rows that survive are gathered
// into tuples — one arena a side, sized by the residual — and go
// through the residual step Compute uses; a delta much smaller than its
// residual then moves to an arena of its own (ownArena), so a retained
// Result pins about its own rows, and neither view.
func ComputeColumnar(oldV, newV *storage.ColumnarView) (*Result, Work) {
	out := &Result{Relation: oldV.Schema.Relation, Schema: oldV.Schema}
	n := min(oldV.Rows, newV.Rows)
	neq := make([]bool, n)
	if len(oldV.Cols) != len(newV.Cols) {
		// Tuples of different arity are never Equal.
		for i := range neq {
			neq[i] = true
		}
	} else {
		for c := range oldV.Cols {
			markUnequal(neq, &oldV.Cols[c], &newV.Cols[c])
		}
	}
	oldIdx, newIdx := residualRows(neq, oldV.Rows, newV.Rows)
	out.residual(oldV.GatherTuples(oldIdx), newV.GatherTuples(newIdx))
	out.Minus = ownArena(out.Minus, len(oldIdx))
	out.Plus = ownArena(out.Plus, len(newIdx))
	return out, Work{Compared: n, Boxed: len(oldIdx) + len(newIdx)}
}

// ownArena moves ts, tuples of an arena of arenaRows rows, into an arena
// of exactly their own size when they are at most half of it. Rows that
// cancel only across positions are boxed into the residual arena too
// (on misaligned sides that is the whole relation); whoever keeps the
// delta should pin the delta, not them.
func ownArena(ts []schema.Tuple, arenaRows int) []schema.Tuple {
	if len(ts) == 0 || 2*len(ts) > arenaRows {
		return ts
	}
	arity := len(ts[0])
	flat := make([]types.Value, 0, len(ts)*arity)
	out := make([]schema.Tuple, len(ts))
	for i, t := range ts {
		flat = append(flat, t...)
		out[i] = schema.Tuple(flat[i*arity : (i+1)*arity : (i+1)*arity])
	}
	return out
}

// markUnequal sets neq[i] for every position i < len(neq) at which cell
// i of a and cell i of b are not Equal; it never clears a mark.
func markUnequal(neq []bool, a, b *storage.ColVec) {
	switch {
	case a.Kind == types.KindInt && b.Kind == types.KindInt:
		markLane(neq, a.Ints, b.Ints, a.Nulls, b.Nulls)
	case a.Kind == types.KindFloat && b.Kind == types.KindFloat:
		markLane(neq, a.Floats, b.Floats, a.Nulls, b.Nulls)
	case a.Kind == types.KindString && b.Kind == types.KindString:
		markLane(neq, a.Strs, b.Strs, a.Nulls, b.Nulls)
	case a.Kind == types.KindInt && b.Kind == types.KindFloat:
		markIntFloat(neq, a.Ints, b.Floats, a.Nulls, b.Nulls)
	case a.Kind == types.KindFloat && b.Kind == types.KindInt:
		markIntFloat(neq, b.Ints, a.Floats, b.Nulls, a.Nulls)
	default:
		for i := range neq {
			if !neq[i] && !a.Value(i).Equal(b.Value(i)) {
				neq[i] = true
			}
		}
	}
}

// markLane compares two typed lanes of one kind. != on T is Value.Equal
// for that kind: exact on ints and strings, IEEE on floats.
func markLane[T comparable](neq []bool, x, y []T, xNull, yNull []bool) {
	x, y = x[:len(neq)], y[:len(neq)]
	if xNull == nil && yNull == nil {
		for i := range neq {
			if x[i] != y[i] {
				neq[i] = true
			}
		}
		return
	}
	for i := range neq {
		nx, ny := xNull != nil && xNull[i], yNull != nil && yNull[i]
		if nx != ny || (!nx && x[i] != y[i]) {
			neq[i] = true
		}
	}
}

// markIntFloat compares an int lane with a float lane the way
// Value.Equal compares an int with a float: as float64s.
func markIntFloat(neq []bool, x []int64, y []float64, xNull, yNull []bool) {
	x, y = x[:len(neq)], y[:len(neq)]
	for i := range neq {
		nx, ny := xNull != nil && xNull[i], yNull != nil && yNull[i]
		if nx != ny || (!nx && float64(x[i]) != y[i]) {
			neq[i] = true
		}
	}
}
