package exec

import (
	"math"
	"slices"

	"github.com/mahif/mahif/internal/expr"
	"github.com/mahif/mahif/internal/schema"
	"github.com/mahif/mahif/internal/storage"
	"github.com/mahif/mahif/internal/types"
)

// fusedAnd is a conjunction whose legs are all column-vs-constant
// comparisons: the workload shape of selection bands like
// lo <= a AND a < hi. The generic And combinator materializes a rest
// selection per connective so the right operand only runs where the
// left was undecided — necessary in general, because an operand may
// error. When every leg is a typed-lane comparison the legs are total
// (a comparison on an int/float/string lane cannot error), so the
// conjunction can be evaluated eagerly leg-over-leg with three-valued
// combining in a single output pass, no rest selections and no
// intermediate truth vectors. Lane applicability is re-checked per
// batch; any off-domain lane (boxed, mismatched, NaN cell) falls back
// to the generic lazy combinator for oracle-exact error behavior.
type fusedAnd struct {
	legs    []fusedLeg
	generic vecCondFn
}

type fusedLeg struct {
	idx  int        // column index
	op   expr.CmpOp // column-on-the-left orientation
	lut  [3]truth   // truth by ordered-compare outcome
	slot int        // the $slot in the constant's place, or -1
	// The constant's part, filled by bindValue: at compile time for a
	// literal, per run for a $slot.
	numeric bool // constant is numeric (lane must be int/float); else string
	cf      float64
	cs      string
	ip      intCmpPlan // precomputed integer-threshold form for int lanes
}

// bindValue fills in the leg's constant part from cv, reporting false
// when the leg is no typed-lane comparison under cv (neither a non-NaN
// number nor a string): the conjunction then does not fuse.
func (lg *fusedLeg) bindValue(cv types.Value) bool {
	switch {
	case cv.IsNumeric():
		cf := cv.AsFloat()
		if math.IsNaN(cf) {
			return false
		}
		ip, ok := intCmpPlanFor(lg.op, cf)
		if !ok {
			return false
		}
		lg.numeric, lg.cf, lg.ip = true, cf, ip
	case cv.Kind() == types.KindString:
		lg.numeric, lg.cs = false, cv.AsString()
	default:
		return false
	}
	return true
}

// intCmpPlan is the integer-threshold form of a comparison against a
// numeric constant: float64(a) OP cf reduced to lo <= a <= hi (truth
// tIn inside the range, tOut outside). float64() over int64 is
// monotone non-decreasing, so every OP's satisfying set is an interval
// of int64 — including beyond 2^53, where several integers round to
// one float. The reduction replaces a convert, two float compares, and
// a table load per cell with two integer compares, and is exact for
// every int64 (the interval ends come from a binary search of the
// rounding function itself, not from a float round-trip).
type intCmpPlan struct {
	lo, hi    int64
	tIn, tOut truth
}

// intCmpPlanFor builds the plan; ok is false for ops outside the LUT
// domain. cf must not be NaN.
func intCmpPlanFor(op expr.CmpOp, cf float64) (intCmpPlan, bool) {
	const minI, maxI = int64(math.MinInt64), int64(math.MaxInt64)
	empty := func(tIn, tOut truth) intCmpPlan { return intCmpPlan{lo: 1, hi: 0, tIn: tIn, tOut: tOut} }
	switch op {
	case expr.CmpGe, expr.CmpLt:
		tIn, tOut := tTrue, tFalse
		if op == expr.CmpLt {
			tIn, tOut = tFalse, tTrue
		}
		if g, ok := minIntGe(cf); ok {
			return intCmpPlan{lo: g, hi: maxI, tIn: tIn, tOut: tOut}, true
		}
		return empty(tIn, tOut), true
	case expr.CmpLe, expr.CmpGt:
		tIn, tOut := tTrue, tFalse
		if op == expr.CmpGt {
			tIn, tOut = tFalse, tTrue
		}
		if g, ok := maxIntLe(cf); ok {
			return intCmpPlan{lo: minI, hi: g, tIn: tIn, tOut: tOut}, true
		}
		return empty(tIn, tOut), true
	case expr.CmpEq, expr.CmpNe:
		tIn, tOut := tTrue, tFalse
		if op == expr.CmpNe {
			tIn, tOut = tFalse, tTrue
		}
		lo, ok1 := minIntGe(cf)
		hi, ok2 := maxIntLe(cf)
		if !ok1 || !ok2 || lo > hi {
			return empty(tIn, tOut), true
		}
		return intCmpPlan{lo: lo, hi: hi, tIn: tIn, tOut: tOut}, true
	}
	return intCmpPlan{}, false
}

// minIntGe returns the smallest int64 a with float64(a) >= cf, ok
// false when no int64 satisfies it. Binary search over the full int64
// domain on the monotone predicate — immune to rounding plateaus.
func minIntGe(cf float64) (int64, bool) {
	if float64(int64(math.MaxInt64)) < cf {
		return 0, false
	}
	lo, hi := int64(math.MinInt64), int64(math.MaxInt64)
	for lo < hi {
		mid := int64(uint64(lo) + (uint64(hi)-uint64(lo))/2)
		if float64(mid) >= cf {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo, true
}

// maxIntLe is the mirror: the largest int64 a with float64(a) <= cf.
func maxIntLe(cf float64) (int64, bool) {
	if float64(int64(math.MinInt64)) > cf {
		return 0, false
	}
	lo, hi := int64(math.MinInt64), int64(math.MaxInt64)
	for lo < hi {
		// Upper midpoint via d/2 + d&1 — (d+1)/2 would overflow when
		// the window spans the whole int64 domain.
		d := uint64(hi) - uint64(lo)
		mid := int64(uint64(lo) + d/2 + d&1)
		if float64(mid) <= cf {
			lo = mid
		} else {
			hi = mid - 1
		}
	}
	return lo, true
}

// recognizeFusedAnd flattens an And tree into comparison legs and
// returns the fused kernel, or generic when a leaf is not a LUT-able
// column-vs-constant comparison. A leg with a $slot in the constant's
// place is a param site: each run binds the legs from its values and
// fuses iff the substituted conjunction would.
func (c *compiler) recognizeFusedAnd(x *expr.And, s *schema.Schema, generic vecCondFn) vecCondFn {
	var legs []fusedLeg
	var walk func(e expr.Expr) bool
	walk = func(e expr.Expr) bool {
		switch n := e.(type) {
		case *expr.And:
			return walk(n.L) && walk(n.R)
		case *expr.Cmp:
			col, k, constOnRight := splitColOperand(n.L, n.R)
			if col == nil {
				return false
			}
			op := n.Op
			if !constOnRight {
				op = op.Flip()
			}
			lut, ok := cmpTruthLUT(op)
			if !ok {
				return false
			}
			idx := s.ColIndex(col.Name)
			if idx < 0 {
				return false
			}
			lg := fusedLeg{idx: idx, op: op, lut: lut, slot: -1}
			switch k := k.(type) {
			case *expr.Const:
				if !lg.bindValue(k.V) {
					return false
				}
			case *expr.Param:
				lg.slot = c.slot(k.Name)
			}
			legs = append(legs, lg)
			return true
		}
		return false
	}
	if !walk(x.L) || !walk(x.R) {
		return generic
	}
	if !slices.ContainsFunc(legs, func(lg fusedLeg) bool { return lg.slot >= 0 }) {
		return (&fusedAnd{legs: legs, generic: generic}).eval
	}
	compiled := legs // captured by value: legs itself stays off the heap
	return c.boundCond(func(args []arg) vecCondFn {
		run := append([]fusedLeg(nil), compiled...)
		for i := range run {
			if run[i].slot < 0 {
				continue
			}
			if v, ok := argAt(args, run[i].slot); !ok || !run[i].bindValue(v) {
				return nil
			}
		}
		return (&fusedAnd{legs: run, generic: generic}).eval
	}, generic)
}

// eval runs the fused conjunction, or delegates the whole batch to the
// generic combinator when a leg's lane is outside the typed domain.
// Eager evaluation is observably identical to the interpreter's lazy
// order here because applicable legs cannot error and three-valued AND
// is commutative.
func (f *fusedAnd) eval(p *vecPool, b *batch, sel []int, out []truth) error {
	for i := range f.legs {
		k := b.cols[f.legs[i].idx].Kind
		if f.legs[i].numeric {
			if k != types.KindInt && k != types.KindFloat {
				return f.generic(p, b, sel, out)
			}
		} else if k != types.KindString {
			return f.generic(p, b, sel, out)
		}
	}
	for li := range f.legs {
		lg := &f.legs[li]
		c := &b.cols[lg.idx]
		first := li == 0
		ok := true
		switch c.Kind {
		case types.KindInt:
			lg.runInt(c, b.n, sel, out, first)
		case types.KindFloat:
			ok = lg.runFloat(c, b.n, sel, out, first)
		case types.KindString:
			lg.runStr(c, b.n, sel, out, first)
		}
		if !ok {
			// A NaN cell (outside the value domain, but constructible):
			// re-run the whole batch on the generic path, which
			// reproduces the oracle's delegation exactly.
			return f.generic(p, b, sel, out)
		}
	}
	return nil
}

// Combining rule inside the leg loops: rows already decided tFalse are
// skipped; on the surviving rows (tTrue or tNull so far) a tFalse or
// tNull leg result overwrites, a tTrue leg result preserves — exactly
// three-valued AND with FALSE dominating NULL.

func (lg *fusedLeg) runInt(c *storage.ColVec, n int, sel []int, out []truth, first bool) {
	ints, nulls := c.Ints, c.Nulls
	lo, hi, tIn, tOut := lg.ip.lo, lg.ip.hi, lg.ip.tIn, lg.ip.tOut
	// The null-free loops are written out per (first, sel) shape: this
	// is the hottest kernel of reenactment WHERE evaluation, and the
	// shared-closure form costs more than the two compares it wraps.
	if nulls == nil {
		switch {
		case first && sel == nil:
			for r := 0; r < n; r++ {
				t := tOut
				if a := ints[r]; a >= lo && a <= hi {
					t = tIn
				}
				out[r] = t
			}
		case first:
			for _, r := range sel {
				t := tOut
				if a := ints[r]; a >= lo && a <= hi {
					t = tIn
				}
				out[r] = t
			}
		case sel == nil:
			for r := 0; r < n; r++ {
				if out[r] == tFalse {
					continue
				}
				t := tOut
				if a := ints[r]; a >= lo && a <= hi {
					t = tIn
				}
				if t != tTrue {
					out[r] = t
				}
			}
		default:
			for _, r := range sel {
				if out[r] == tFalse {
					continue
				}
				t := tOut
				if a := ints[r]; a >= lo && a <= hi {
					t = tIn
				}
				if t != tTrue {
					out[r] = t
				}
			}
		}
		return
	}
	one := func(r int) {
		if !first && out[r] == tFalse {
			return
		}
		t := tNull
		if !nulls[r] {
			a := ints[r]
			t = tOut
			if a >= lo && a <= hi {
				t = tIn
			}
		}
		if first || t != tTrue {
			out[r] = t
		}
	}
	if sel == nil {
		for r := 0; r < n; r++ {
			one(r)
		}
	} else {
		for _, r := range sel {
			one(r)
		}
	}
}

func (lg *fusedLeg) runFloat(c *storage.ColVec, n int, sel []int, out []truth, first bool) bool {
	fs, nulls, lut, cf := c.Floats, c.Nulls, lg.lut, lg.cf
	one := func(r int) bool {
		if !first && out[r] == tFalse {
			return true
		}
		t := tNull
		if nulls == nil || !nulls[r] {
			f := fs[r]
			if math.IsNaN(f) {
				return false
			}
			t = lut[orderAgainst(f, cf)]
		}
		if first || t != tTrue {
			out[r] = t
		}
		return true
	}
	if sel == nil {
		for r := 0; r < n; r++ {
			if !one(r) {
				return false
			}
		}
	} else {
		for _, r := range sel {
			if !one(r) {
				return false
			}
		}
	}
	return true
}

func (lg *fusedLeg) runStr(c *storage.ColVec, n int, sel []int, out []truth, first bool) {
	strs, nulls, lut, cs := c.Strs, c.Nulls, lg.lut, lg.cs
	one := func(r int) {
		if !first && out[r] == tFalse {
			return
		}
		t := tNull
		if nulls == nil || !nulls[r] {
			t = lut[orderStrings(strs[r], cs)]
		}
		if first || t != tTrue {
			out[r] = t
		}
	}
	if sel == nil {
		for r := 0; r < n; r++ {
			one(r)
		}
	} else {
		for _, r := range sel {
			one(r)
		}
	}
}
