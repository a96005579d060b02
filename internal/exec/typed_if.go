package exec

import (
	"math"

	"github.com/mahif/mahif/internal/expr"
	"github.com/mahif/mahif/internal/schema"
	"github.com/mahif/mahif/internal/storage"
	"github.com/mahif/mahif/internal/types"
)

// typedIf is the typed-lane producer for the projection shape of every
// reenacted UPDATE column — IF θ THEN col∘const|const ELSE col — the
// kernel that keeps SET columns on typed lanes through U-deep
// statement chains. The boxed If kernel bulk-copies the ELSE column
// and overwrites the satisfied rows; this is the same plan with the
// copy a lane memmove and the overwrite a machine-typed loop, no
// boxing anywhere. Applicability is decided per batch from the runtime
// lanes (the ELSE and THEN columns must share a single kind the THEN
// result stays inside); an inapplicable batch falls back to the boxed
// kernel, so semantics — including error and NULL behavior — never
// depend on which lane ran.
type typedIf struct {
	cond    vecCondFn
	elseIdx int
	// THEN branch: column∘constant arithmetic on thenIdx, or a bare
	// constant when thenIdx < 0.
	thenIdx      int
	op           types.Op
	constOnRight bool
	// site is the param site of a $slot in the constant's place, or -1:
	// each run's producer is the one its site's builder specialized on
	// the run's value (resolve).
	site int
	// The constant's part, filled by setConst.
	constV    types.Value
	fastInt   func(int64) int64
	fastFloat func(float64) float64
}

// recognizeTypedIf matches x against the typed-lane IF shape,
// returning nil when the expression is outside it (the boxed kernel
// then handles the column alone). Division is excluded — it errors on
// zero and always widens to float — as is any THEN whose result kind
// could differ from the ELSE column's lane.
func (c *compiler) recognizeTypedIf(x *expr.If, s *schema.Schema) (*typedIf, error) {
	elseCol, ok := x.Else.(*expr.Col)
	if !ok {
		return nil, nil
	}
	elseIdx := s.ColIndex(elseCol.Name)
	if elseIdx < 0 {
		return nil, nil
	}
	t := &typedIf{elseIdx: elseIdx, thenIdx: -1, site: -1}
	k := x.Then
	switch then := x.Then.(type) {
	case *expr.Const, *expr.Param:
	case *expr.Arith:
		if then.Op == types.OpDiv {
			return nil, nil
		}
		col, v, constOnRight := splitColOperand(then.L, then.R)
		if col == nil {
			return nil, nil
		}
		idx := s.ColIndex(col.Name)
		if idx < 0 {
			return nil, nil
		}
		t.thenIdx, t.op, t.constOnRight, k = idx, then.Op, constOnRight, v
	default:
		return nil, nil
	}
	switch k := k.(type) {
	case *expr.Const:
		if !t.setConst(k.V) {
			return nil, nil
		}
	case *expr.Param:
		slot := c.slot(k.Name)
		t.site = c.site(func(args []arg) any {
			v, ok := argAt(args, slot)
			if !ok {
				return (*typedIf)(nil)
			}
			run := *t
			run.site = -1
			if !run.setConst(v) {
				return (*typedIf)(nil)
			}
			return &run
		})
	}
	cond, err := c.compileVecTruth(x.Cond, s, whereTruth)
	if err != nil {
		return nil, err
	}
	t.cond = cond
	return t, nil
}

// setConst specializes the producer on the constant cv, reporting false
// when a THEN arithmetic cannot take it (cv is not a non-NaN number).
func (t *typedIf) setConst(cv types.Value) bool {
	t.constV = cv
	if t.thenIdx < 0 {
		return true
	}
	if !cv.IsNumeric() || math.IsNaN(cv.AsFloat()) {
		return false
	}
	op, constOnRight := t.op, t.constOnRight
	t.fastInt = nil
	if cv.Kind() == types.KindInt {
		ci := cv.AsInt()
		t.fastInt = func(a int64) int64 {
			x, y := a, ci
			if !constOnRight {
				x, y = y, x
			}
			switch op {
			case types.OpAdd:
				return x + y
			case types.OpSub:
				return x - y
			default: // OpMul; OpDiv was excluded above
				return x * y
			}
		}
	}
	cf := cv.AsFloat()
	t.fastFloat = func(a float64) float64 {
		x, y := a, cf
		if !constOnRight {
			x, y = y, x
		}
		switch op {
		case types.OpAdd:
			return x + y
		case types.OpSub:
			return x - y
		default:
			return x * y
		}
	}
	return true
}

// resolve returns the producer a run uses: t itself for a literal, the
// run's specialization for a $slot, nil when the run's value leaves the
// shape (the boxed kernel then handles the column, as it would the
// substituted literal's).
func (t *typedIf) resolve(p *vecPool) *typedIf {
	if t == nil || t.site < 0 {
		return t
	}
	run, _ := p.sites[t.site].(*typedIf)
	return run
}

// arithBoxed evaluates the THEN arithmetic through types.Arith in the
// expression's original operand order — the delegate for cells whose
// typed result leaves the finite float domain, so errors match the
// oracle byte for byte.
func (t *typedIf) arithBoxed(v types.Value) (types.Value, error) {
	if t.constOnRight {
		return types.Arith(t.op, v, t.constV)
	}
	return types.Arith(t.op, t.constV, v)
}

// apply produces the column into out on a typed lane, or reports
// handled=false when the batch's runtime lanes fall outside the
// specialization (mixed kinds, boxed inputs, kind-changing THEN).
func (t *typedIf) apply(p *vecPool, b *batch, out *storage.ColVec) (bool, error) {
	els := &b.cols[t.elseIdx]
	var thn *storage.ColVec
	if t.thenIdx >= 0 {
		thn = &b.cols[t.thenIdx]
		switch {
		case els.Kind == types.KindInt && thn.Kind == types.KindInt && t.constV.Kind() == types.KindInt:
			// int∘int wraps like types.Arith: the fast loop is exact.
		case els.Kind == types.KindFloat && thn.Kind == types.KindFloat:
			// numeric const widens to float like types.Arith.
		default:
			return false, nil
		}
	} else {
		switch els.Kind {
		case types.KindInt, types.KindFloat, types.KindString:
		default:
			return false, nil
		}
		// The constant must keep the lane single-kind (an Int 5 in a
		// float lane would render differently on the wire than the boxed
		// path's mixed column); NULL works in any lane via the mask.
		if !t.constV.IsNull() && t.constV.Kind() != els.Kind {
			return false, nil
		}
	}
	tr := p.getTruths()
	defer p.putTruths(tr)
	if err := t.cond(p, b, b.sel, tr); err != nil {
		return true, err
	}
	selT := p.getSel()
	defer p.putSel(selT)
	if b.sel == nil {
		for r := 0; r < b.n; r++ {
			if tr[r] == tTrue {
				selT = append(selT, r)
			}
		}
	} else {
		for _, r := range b.sel {
			if tr[r] == tTrue {
				selT = append(selT, r)
			}
		}
	}
	// Bulk-copy the ELSE lane (a read that cannot error, so covering
	// then-rows too is invisible), then overwrite the satisfied rows.
	out.CopyFrom(els, b.n)
	if len(selT) == 0 {
		return true, nil
	}
	switch els.Kind {
	case types.KindInt:
		if thn != nil {
			ints, nulls := thn.Ints, thn.Nulls
			for _, r := range selT {
				if nulls != nil && nulls[r] {
					out.Ints[r] = 0
					out.SetCellNull(r, b.n)
					continue
				}
				out.Ints[r] = t.fastInt(ints[r])
				out.ClearCellNull(r)
			}
			return true, nil
		}
		if t.constV.IsNull() {
			for _, r := range selT {
				out.Ints[r] = 0
				out.SetCellNull(r, b.n)
			}
			return true, nil
		}
		ci := t.constV.AsInt()
		for _, r := range selT {
			out.Ints[r] = ci
			out.ClearCellNull(r)
		}
	case types.KindFloat:
		if thn != nil {
			fs, nulls := thn.Floats, thn.Nulls
			for _, r := range selT {
				if nulls != nil && nulls[r] {
					out.Floats[r] = 0
					out.SetCellNull(r, b.n)
					continue
				}
				res := t.fastFloat(fs[r])
				if math.IsInf(res, 0) || math.IsNaN(res) {
					// Outside the finite float domain: delegate so the
					// overflow error (or a NaN operand's verdict) matches
					// types.Arith exactly.
					v, err := t.arithBoxed(types.Float(fs[r]))
					if err != nil {
						return true, err
					}
					if v.IsNull() {
						out.Floats[r] = 0
						out.SetCellNull(r, b.n)
					} else {
						out.Floats[r] = v.AsFloat()
						out.ClearCellNull(r)
					}
					continue
				}
				out.Floats[r] = res
				out.ClearCellNull(r)
			}
			return true, nil
		}
		if t.constV.IsNull() {
			for _, r := range selT {
				out.Floats[r] = 0
				out.SetCellNull(r, b.n)
			}
			return true, nil
		}
		cf := t.constV.AsFloat()
		for _, r := range selT {
			out.Floats[r] = cf
			out.ClearCellNull(r)
		}
	case types.KindString:
		// thn is nil here: string arithmetic never specializes.
		if t.constV.IsNull() {
			for _, r := range selT {
				out.Strs[r] = ""
				out.SetCellNull(r, b.n)
			}
			return true, nil
		}
		cs := t.constV.AsString()
		for _, r := range selT {
			out.Strs[r] = cs
			out.ClearCellNull(r)
		}
	}
	return true, nil
}
