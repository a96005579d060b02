package exec

import (
	"fmt"
	"math"

	"github.com/mahif/mahif/internal/expr"
	"github.com/mahif/mahif/internal/schema"
	"github.com/mahif/mahif/internal/storage"
	"github.com/mahif/mahif/internal/types"
)

// DefaultBatchSize is the number of rows per batch in the vectorized
// executor. 1024 rows keep a batch's working set (a handful of value
// columns plus a selection vector) inside L2 while amortizing the
// per-batch dispatch to well under a nanosecond per row.
const DefaultBatchSize = 1024

// batch is a fixed-capacity, column-major block of rows flowing through
// the vectorized pipeline: cols[c] is the column vector of column c,
// typed wherever the source column is single-kind (storage.ColVec) and
// boxed otherwise. A non-nil sel lists the row indices (ascending,
// unique) that are still live after filtering; nil means all n rows
// are live. Cells at unselected positions of computed columns are
// garbage and must never be read.
//
// Ownership: a batch and its columns are valid only for the duration of
// the consumer's emit call — producers reuse the backing storage for
// the next batch. Consumers that retain data (the join's build side,
// the sinks) copy rows out. The one exception is a batch a parallel
// scan froze (frozen): its lanes are a copy of its own (copyLive),
// exactly sized, and nothing writes them once it is emitted, so a sink
// may keep them as they are while sel is still nil.
type batch struct {
	cols   []storage.ColVec
	n      int
	sel    []int
	frozen bool
}

// live returns the number of selected rows.
func (b *batch) live() int {
	if b.sel != nil {
		return len(b.sel)
	}
	return b.n
}

// newOwnedBatch allocates a batch with arity boxed columns of capacity
// bs backed by one flat allocation. The join's output uses it (its rows
// interleave cells from both sides, so they stay on the boxed lane), and
// so does the γ node's.
func newOwnedBatch(arity, bs int) *batch {
	flat := make([]types.Value, arity*bs)
	cols := make([]storage.ColVec, arity)
	for c := range cols {
		cols[c] = storage.ColVec{Kind: types.KindNull, Vals: flat[c*bs : (c+1)*bs : (c+1)*bs]}
	}
	return &batch{cols: cols}
}

// copyLive copies the live rows of b into a view of schema s of exactly
// their size (ColumnarView.AppendRows, each lane kept): a parallel scan
// worker's output batch, and a batch the columnar sink keeps.
func copyLive(b *batch, s *schema.Schema) *storage.ColumnarView {
	v := storage.NewColumnarView(s, b.live())
	v.AppendRows(b.cols[:s.Arity()], b.sel, b.n)
	return v
}

// vecPool recycles kernel-internal scratch buffers (comparison and
// arithmetic operand vectors, If partitions) within one pipeline run.
// Use is strictly LIFO inside a single kernel invocation, so a small
// free list suffices; buffers are full batch-capacity slices indexed by
// absolute row position.
//
// The pool is also where a kernel finds its run's binding: args is the
// run's parameter vector, and sites the param sites' kernels built for
// it (see buildSites). bind sets both whenever the pool starts a run.
type vecPool struct {
	bs    int
	vals  [][]types.Value
	trs   [][]truth
	sels  [][]int
	args  []arg
	sites []any
}

func newVecPool(bs int) *vecPool { return &vecPool{bs: bs} }

// bind starts a run under its parameter vector and site kernels.
func (p *vecPool) bind(args []arg, sites []any) {
	p.args, p.sites = args, sites
}

func (p *vecPool) getVals() []types.Value {
	if n := len(p.vals); n > 0 {
		v := p.vals[n-1]
		p.vals = p.vals[:n-1]
		return v
	}
	return make([]types.Value, p.bs)
}

func (p *vecPool) putVals(v []types.Value) { p.vals = append(p.vals, v) }

func (p *vecPool) getTruths() []truth {
	if n := len(p.trs); n > 0 {
		t := p.trs[n-1]
		p.trs = p.trs[:n-1]
		return t
	}
	return make([]truth, p.bs)
}

func (p *vecPool) putTruths(t []truth) { p.trs = append(p.trs, t) }

func (p *vecPool) getSel() []int {
	if n := len(p.sels); n > 0 {
		s := p.sels[n-1]
		p.sels = p.sels[:n-1]
		return s[:0]
	}
	return make([]int, 0, p.bs)
}

func (p *vecPool) putSel(s []int) { p.sels = append(p.sels, s) }

// vecScalarFn is a compiled scalar expression over batches: it fills
// out[r] for every live row r of b listed in sel (nil sel = all rows).
// Rows outside sel are left untouched. Lazy per-row evaluation is
// preserved structurally — If branches and And/Or right operands run
// only over the sub-selection the row-at-a-time semantics would reach —
// so an expression errors on a batch iff the interpreter errors on some
// row of it.
type vecScalarFn func(p *vecPool, b *batch, sel []int, out []types.Value) error

// vecCondFn is a compiled boolean expression over batches at the
// unboxed truth level.
type vecCondFn func(p *vecPool, b *batch, sel []int, out []truth) error

// compileVecScalar lowers e to a batch kernel over column ordinals of
// s, mirroring the interpreter's (expr.Eval) semantics exactly. It
// fails on symbolic variables and on column references that do not
// resolve — the caller falls back to the interpreter then, so a compile
// error can never change observable behavior. A $slot compiles as the
// constant the run binds to it (see compiler).
func (c *compiler) compileVecScalar(e expr.Expr, s *schema.Schema) (vecScalarFn, error) {
	switch x := e.(type) {
	case *expr.Const:
		v := x.V
		return func(_ *vecPool, b *batch, sel []int, out []types.Value) error {
			fillConst(v, b, sel, out)
			return nil
		}, nil
	case *expr.Param:
		slot, name := c.slot(x.Name), x.Name
		return func(p *vecPool, b *batch, sel []int, out []types.Value) error {
			v, ok := argAt(p.args, slot)
			if !ok {
				if len(sel) > 0 || (sel == nil && b.n > 0) {
					return errUnbound(name)
				}
				return nil
			}
			fillConst(v, b, sel, out)
			return nil
		}, nil
	case *expr.Col:
		idx := s.ColIndex(x.Name)
		if idx < 0 {
			return nil, fmt.Errorf("exec: attribute %q not in schema %s", x.Name, s)
		}
		return func(_ *vecPool, b *batch, sel []int, out []types.Value) error {
			b.cols[idx].BoxInto(out, sel, b.n)
			return nil
		}, nil
	case *expr.Var:
		return nil, fmt.Errorf("exec: symbolic variable %q in executable expression", x.Name)
	case *expr.Arith:
		fast, build := c.compileVecArithFast(x, s)
		if fast != nil {
			return fast, nil
		}
		l, err := c.compileVecScalar(x.L, s)
		if err != nil {
			return nil, err
		}
		r, err := c.compileVecScalar(x.R, s)
		if err != nil {
			return nil, err
		}
		op := x.Op
		generic := func(p *vecPool, b *batch, sel []int, out []types.Value) error {
			lv := p.getVals()
			rv := p.getVals()
			defer p.putVals(lv)
			defer p.putVals(rv)
			if err := l(p, b, sel, lv); err != nil {
				return err
			}
			if err := r(p, b, sel, rv); err != nil {
				return err
			}
			if sel == nil {
				for i := 0; i < b.n; i++ {
					v, err := types.Arith(op, lv[i], rv[i])
					if err != nil {
						return err
					}
					out[i] = v
				}
			} else {
				for _, i := range sel {
					v, err := types.Arith(op, lv[i], rv[i])
					if err != nil {
						return err
					}
					out[i] = v
				}
			}
			return nil
		}
		if build != nil {
			return c.boundScalar(build, generic), nil
		}
		return generic, nil
	case *expr.Cmp, *expr.And, *expr.Or, *expr.Not, *expr.IsNull:
		// Boolean node in scalar position: evaluate at the truth level,
		// box once at the boundary.
		cond, err := c.compileVecCond(e, s)
		if err != nil {
			return nil, err
		}
		return func(p *vecPool, b *batch, sel []int, out []types.Value) error {
			tr := p.getTruths()
			defer p.putTruths(tr)
			if err := cond(p, b, sel, tr); err != nil {
				return err
			}
			if sel == nil {
				for r := 0; r < b.n; r++ {
					out[r] = tr[r].value()
				}
			} else {
				for _, r := range sel {
					out[r] = tr[r].value()
				}
			}
			return nil
		}, nil
	case *expr.If:
		cond, err := c.compileVecTruth(x.Cond, s, whereTruth)
		if err != nil {
			return nil, err
		}
		then, err := c.compileVecScalar(x.Then, s)
		if err != nil {
			return nil, err
		}
		// IF θ THEN e ELSE col — the shape of every reenacted UPDATE
		// column — specializes: bulk-copy the column (a read that cannot
		// error, so running it on then-rows too is invisible), then
		// overwrite only the satisfied rows. No else partition, no
		// per-row else dispatch.
		if col, ok := x.Else.(*expr.Col); ok {
			if idx := s.ColIndex(col.Name); idx >= 0 {
				return func(p *vecPool, b *batch, sel []int, out []types.Value) error {
					tr := p.getTruths()
					defer p.putTruths(tr)
					if err := cond(p, b, sel, tr); err != nil {
						return err
					}
					selT := p.getSel()
					defer p.putSel(selT)
					b.cols[idx].BoxInto(out, sel, b.n)
					if sel == nil {
						for r := 0; r < b.n; r++ {
							if tr[r] == tTrue {
								selT = append(selT, r)
							}
						}
					} else {
						for _, r := range sel {
							if tr[r] == tTrue {
								selT = append(selT, r)
							}
						}
					}
					if len(selT) == 0 {
						return nil
					}
					return then(p, b, selT, out)
				}, nil
			}
		}
		els, err := c.compileVecScalar(x.Else, s)
		if err != nil {
			return nil, err
		}
		return func(p *vecPool, b *batch, sel []int, out []types.Value) error {
			tr := p.getTruths()
			defer p.putTruths(tr)
			if err := cond(p, b, sel, tr); err != nil {
				return err
			}
			selT := p.getSel()
			selF := p.getSel()
			defer p.putSel(selT)
			defer p.putSel(selF)
			if sel == nil {
				for r := 0; r < b.n; r++ {
					if tr[r] == tTrue {
						selT = append(selT, r)
					} else {
						selF = append(selF, r)
					}
				}
			} else {
				for _, r := range sel {
					if tr[r] == tTrue {
						selT = append(selT, r)
					} else {
						selF = append(selF, r)
					}
				}
			}
			// Each branch runs only over the rows that take it — exactly
			// the per-row lazy evaluation of the interpreter, so a branch
			// that errors on untaken rows stays silent in both executors.
			if len(selT) > 0 {
				if err := then(p, b, selT, out); err != nil {
					return err
				}
			}
			if len(selF) > 0 {
				if err := els(p, b, selF, out); err != nil {
					return err
				}
			}
			return nil
		}, nil
	}
	return nil, fmt.Errorf("exec: cannot compile expression %T", e)
}

// fillConst writes v into out at every live row of b.
func fillConst(v types.Value, b *batch, sel []int, out []types.Value) {
	if sel == nil {
		for r := 0; r < b.n; r++ {
			out[r] = v
		}
	} else {
		for _, r := range sel {
			out[r] = v
		}
	}
}

// compileVecArithFast specializes the reenactment hot shape of
// arithmetic, column-op-constant (v = v + 3, x = x + 2.5): it returns
// the kernel for a constant, or for a $slot in the constant's place the
// builder each run makes the kernel with from its bound value (nil
// kernel: the generic one runs); both nil when no specialization
// applies. Division is excluded (it errors on zero and always yields
// floats).
func (c *compiler) compileVecArithFast(x *expr.Arith, s *schema.Schema) (vecScalarFn, func(args []arg) vecScalarFn) {
	if x.Op == types.OpDiv {
		return nil, nil
	}
	col, k, constOnRight := splitColOperand(x.L, x.R)
	if col == nil {
		return nil, nil
	}
	idx := s.ColIndex(col.Name)
	if idx < 0 {
		return nil, nil
	}
	op := x.Op
	if prm, ok := k.(*expr.Param); ok {
		slot := c.slot(prm.Name)
		return nil, func(args []arg) vecScalarFn {
			if v, ok := argAt(args, slot); ok {
				return arithConstKernel(op, idx, v, constOnRight)
			}
			return nil
		}
	}
	return arithConstKernel(op, idx, k.(*expr.Const).V, constOnRight), nil
}

// arithConstKernel is the column-op-constant kernel over column idx for
// the constant cv, or nil when cv is not numeric. Each cell goes
// through types.ArithConst's evaluator — types.Arith with the int and
// float Add/Sub cases kind-specialized — and an int constant over an
// int lane without NULLs runs as a bare integer loop (wrapping matches
// types.Arith).
func arithConstKernel(op types.Op, idx int, cv types.Value, constOnRight bool) vecScalarFn {
	if !cv.IsNumeric() {
		return nil
	}
	cell := types.ArithConst(op, cv)
	if !constOnRight {
		cell = func(v types.Value) (types.Value, error) { return types.Arith(op, cv, v) }
	}
	var fast func(int64) int64 // nil unless the constant is an int
	if cv.Kind() == types.KindInt {
		ci := cv.AsInt()
		fast = func(a int64) int64 {
			b := ci
			if !constOnRight {
				a, b = b, a
			}
			switch op {
			case types.OpAdd:
				return a + b
			case types.OpSub:
				return a - b
			default: // OpMul; OpDiv was excluded above
				return a * b
			}
		}
	}
	return func(_ *vecPool, b *batch, sel []int, out []types.Value) error {
		src := &b.cols[idx]
		if fast != nil && src.Kind == types.KindInt && src.Nulls == nil {
			// Typed lane, no NULLs: the whole loop is an integer op and a
			// box per cell, no kind branches.
			ints := src.Ints
			if sel == nil {
				for r := 0; r < b.n; r++ {
					out[r] = types.Int(fast(ints[r]))
				}
			} else {
				for _, r := range sel {
					out[r] = types.Int(fast(ints[r]))
				}
			}
			return nil
		}
		one := func(r int) error {
			v, err := cell(src.Value(r))
			if err != nil {
				return err
			}
			out[r] = v
			return nil
		}
		if sel == nil {
			for r := 0; r < b.n; r++ {
				if err := one(r); err != nil {
					return err
				}
			}
		} else {
			for _, r := range sel {
				if err := one(r); err != nil {
					return err
				}
			}
		}
		return nil
	}
}

// splitColOperand matches a (column, constant or $slot) operand pair in
// either order; constOnRight reports the original orientation, and k is
// an *expr.Const or an *expr.Param.
func splitColOperand(l, r expr.Expr) (col *expr.Col, k expr.Expr, constOnRight bool) {
	if cl, ok := l.(*expr.Col); ok && isValueLeaf(r) {
		return cl, r, true
	}
	if cl, ok := r.(*expr.Col); ok && isValueLeaf(l) {
		return cl, l, false
	}
	return nil, nil, false
}

// isValueLeaf reports whether e is a constant or a $slot: a value fixed
// for the whole run.
func isValueLeaf(e expr.Expr) bool {
	switch e.(type) {
	case *expr.Const, *expr.Param:
		return true
	}
	return false
}

// compileVecCond lowers a boolean expression to the truth level over
// batches: connective operands are strict (a non-NULL, non-boolean
// operand is an evaluation error) and short-circuit per row via
// sub-selections.
func (c *compiler) compileVecCond(e expr.Expr, s *schema.Schema) (vecCondFn, error) {
	switch x := e.(type) {
	case *expr.Cmp:
		return c.compileVecCmp(x, s)
	case *expr.And:
		return c.compileVecConnective(x.L, x.R, tFalse, s)
	case *expr.Or:
		return c.compileVecConnective(x.L, x.R, tTrue, s)
	case *expr.Not:
		in, err := c.compileVecTruth(x.E, s, truthOf)
		if err != nil {
			return nil, err
		}
		return func(p *vecPool, b *batch, sel []int, out []truth) error {
			if err := in(p, b, sel, out); err != nil {
				return err
			}
			flip := func(t truth) truth {
				switch t {
				case tTrue:
					return tFalse
				case tFalse:
					return tTrue
				}
				return tNull
			}
			if sel == nil {
				for r := 0; r < b.n; r++ {
					out[r] = flip(out[r])
				}
			} else {
				for _, r := range sel {
					out[r] = flip(out[r])
				}
			}
			return nil
		}, nil
	case *expr.IsNull:
		if col, ok := x.E.(*expr.Col); ok {
			if idx := s.ColIndex(col.Name); idx >= 0 {
				return func(_ *vecPool, b *batch, sel []int, out []truth) error {
					src := &b.cols[idx]
					if src.Kind != types.KindNull && src.Nulls == nil {
						// Typed lane without a mask: no cell is NULL.
						if sel == nil {
							for r := 0; r < b.n; r++ {
								out[r] = tFalse
							}
						} else {
							for _, r := range sel {
								out[r] = tFalse
							}
						}
						return nil
					}
					if sel == nil {
						for r := 0; r < b.n; r++ {
							out[r] = boolTruth(src.IsNull(r))
						}
					} else {
						for _, r := range sel {
							out[r] = boolTruth(src.IsNull(r))
						}
					}
					return nil
				}, nil
			}
		}
		in, err := c.compileVecScalar(x.E, s)
		if err != nil {
			return nil, err
		}
		return func(p *vecPool, b *batch, sel []int, out []truth) error {
			sv := p.getVals()
			defer p.putVals(sv)
			if err := in(p, b, sel, sv); err != nil {
				return err
			}
			if sel == nil {
				for r := 0; r < b.n; r++ {
					out[r] = boolTruth(sv[r].IsNull())
				}
			} else {
				for _, r := range sel {
					out[r] = boolTruth(sv[r].IsNull())
				}
			}
			return nil
		}, nil
	}
	return nil, fmt.Errorf("exec: not a boolean expression %T", e)
}

func boolTruth(ok bool) truth {
	if ok {
		return tTrue
	}
	return tFalse
}

// compileVecTruth compiles a condition to the truth level: boolean
// nodes directly, anything else as a scalar whose results conv turns
// into truth values — truthOf for a connective operand (a non-NULL
// non-boolean is an evaluation error, the interpreter's evalAndOr and
// NOT semantics), whereTruth for a WHERE or IF condition (a
// non-boolean is not satisfied, mirroring expr.Satisfied).
func (c *compiler) compileVecTruth(e expr.Expr, s *schema.Schema, conv func(types.Value) (truth, error)) (vecCondFn, error) {
	if isBoolNode(e) {
		return c.compileVecCond(e, s)
	}
	fn, err := c.compileVecScalar(e, s)
	if err != nil {
		return nil, err
	}
	return func(p *vecPool, b *batch, sel []int, out []truth) error {
		sv := p.getVals()
		defer p.putVals(sv)
		if err := fn(p, b, sel, sv); err != nil {
			return err
		}
		if sel == nil {
			for r := 0; r < b.n; r++ {
				t, err := conv(sv[r])
				if err != nil {
					return err
				}
				out[r] = t
			}
		} else {
			for _, r := range sel {
				t, err := conv(sv[r])
				if err != nil {
					return err
				}
				out[r] = t
			}
		}
		return nil
	}, nil
}

// compileVecConnective lowers AND (dom tFalse) and OR (dom tTrue): the
// connective's dominant truth value decides a row whichever the other
// operand is. The right operand runs only over the rows the left did
// not decide — exactly when the interpreter evaluates it.
func (c *compiler) compileVecConnective(le, re expr.Expr, dom truth, s *schema.Schema) (vecCondFn, error) {
	l, err := c.compileVecTruth(le, s, truthOf)
	if err != nil {
		return nil, err
	}
	r, err := c.compileVecTruth(re, s, truthOf)
	if err != nil {
		return nil, err
	}
	unit := tTrue // the operand value that leaves the other one as it is
	if dom == tTrue {
		unit = tFalse
	}
	return func(p *vecPool, b *batch, sel []int, out []truth) error {
		if err := l(p, b, sel, out); err != nil {
			return err
		}
		rest := p.getSel()
		defer p.putSel(rest)
		if sel == nil {
			for i := 0; i < b.n; i++ {
				if out[i] != dom {
					rest = append(rest, i)
				}
			}
		} else {
			for _, i := range sel {
				if out[i] != dom {
					rest = append(rest, i)
				}
			}
		}
		if len(rest) == 0 {
			return nil
		}
		rv := p.getTruths()
		defer p.putTruths(rv)
		if err := r(p, b, rest, rv); err != nil {
			return err
		}
		for _, i := range rest {
			if out[i] == unit {
				out[i] = rv[i]
				continue
			}
			// Left is NULL: the dominant value wins, anything else is NULL.
			if rv[i] == dom {
				out[i] = dom
			} else {
				out[i] = tNull
			}
		}
		return nil
	}, nil
}

// compileVecCmp lowers a comparison: column-vs-constant gets the typed
// tight-loop fast path, everything else evaluates both operand vectors
// and compares row-wise through the oracle-exact evalCmpTruth.
func (c *compiler) compileVecCmp(x *expr.Cmp, s *schema.Schema) (vecCondFn, error) {
	fast, build := c.compileVecColConstCmp(x, s)
	if fast != nil {
		return fast, nil
	}
	l, err := c.compileVecScalar(x.L, s)
	if err != nil {
		return nil, err
	}
	r, err := c.compileVecScalar(x.R, s)
	if err != nil {
		return nil, err
	}
	op := x.Op
	generic := func(p *vecPool, b *batch, sel []int, out []truth) error {
		lv := p.getVals()
		rv := p.getVals()
		defer p.putVals(lv)
		defer p.putVals(rv)
		if err := l(p, b, sel, lv); err != nil {
			return err
		}
		if err := r(p, b, sel, rv); err != nil {
			return err
		}
		if sel == nil {
			for i := 0; i < b.n; i++ {
				t, err := evalCmpTruth(op, lv[i], rv[i])
				if err != nil {
					return err
				}
				out[i] = t
			}
		} else {
			for _, i := range sel {
				t, err := evalCmpTruth(op, lv[i], rv[i])
				if err != nil {
					return err
				}
				out[i] = t
			}
		}
		return nil
	}
	if build != nil {
		return c.boundCond(build, generic), nil
	}
	return generic, nil
}

// cmpTruthLUT maps an ordered-comparison outcome (-1, 0, +1, shifted
// by one) to the truth the operator yields — the per-op switch of
// cmpOrdered hoisted out of the cell loop, so the typed comparison
// kernels are a subtract, a table load, and a store per cell.
func cmpTruthLUT(op expr.CmpOp) ([3]truth, bool) {
	switch op {
	case expr.CmpEq:
		return [3]truth{tFalse, tTrue, tFalse}, true
	case expr.CmpNe:
		return [3]truth{tTrue, tFalse, tTrue}, true
	case expr.CmpLt:
		return [3]truth{tTrue, tFalse, tFalse}, true
	case expr.CmpLe:
		return [3]truth{tTrue, tTrue, tFalse}, true
	case expr.CmpGt:
		return [3]truth{tFalse, tFalse, tTrue}, true
	case expr.CmpGe:
		return [3]truth{tFalse, tTrue, tTrue}, true
	}
	return [3]truth{}, false
}

// compileVecColConstCmp specializes the column-vs-constant comparison
// like compileVecArithFast does arithmetic: the kernel for a constant,
// the per-run builder for a $slot, both nil when no specialization
// applies.
func (c *compiler) compileVecColConstCmp(x *expr.Cmp, s *schema.Schema) (vecCondFn, func(args []arg) vecCondFn) {
	col, k, constOnRight := splitColOperand(x.L, x.R)
	if col == nil {
		return nil, nil
	}
	op := x.Op
	if !constOnRight {
		op = op.Flip()
	}
	idx := s.ColIndex(col.Name)
	lut, lok := cmpTruthLUT(op)
	if idx < 0 || !lok {
		return nil, nil
	}
	if prm, ok := k.(*expr.Param); ok {
		slot := c.slot(prm.Name)
		return nil, func(args []arg) vecCondFn {
			if v, ok := argAt(args, slot); ok {
				return colConstCmpKernel(op, idx, lut, v, !constOnRight)
			}
			return nil
		}
	}
	return colConstCmpKernel(op, idx, lut, k.(*expr.Const).V, !constOnRight), nil
}

// colConstCmpKernel is the vectorized comparison of column idx against
// cv under op (whose truth table is lut), or nil when cv is neither a
// non-NaN number nor a string. Typed int/float/string lanes compare in
// tight loops with the operator's truth table hoisted out; boxed lanes
// and runtime kinds outside the specialized domain take the per-cell
// loop that delegates to evalCmpTruth, keeping the semantics of the
// generic path exactly. constFirst: the condition spells the constant
// first (op is flipped), which the escapes undo (spelled).
func colConstCmpKernel(op expr.CmpOp, idx int, lut [3]truth, cv types.Value, constFirst bool) vecCondFn {
	switch {
	case cv.IsNumeric():
		cf := cv.AsFloat()
		if math.IsNaN(cf) {
			return nil
		}
		ip, ipOK := intCmpPlanFor(op, cf)
		if !ipOK {
			return nil
		}
		return func(_ *vecPool, b *batch, sel []int, out []truth) error {
			src := &b.cols[idx]
			switch src.Kind {
			case types.KindInt:
				// Integer-threshold form: two integer compares per cell
				// instead of convert + float compare + LUT (see
				// intCmpPlan).
				ints := src.Ints
				lo, hi, tIn, tOut := ip.lo, ip.hi, ip.tIn, ip.tOut
				if src.Nulls == nil {
					if sel == nil {
						for r := 0; r < b.n; r++ {
							t := tOut
							if a := ints[r]; a >= lo && a <= hi {
								t = tIn
							}
							out[r] = t
						}
					} else {
						for _, r := range sel {
							t := tOut
							if a := ints[r]; a >= lo && a <= hi {
								t = tIn
							}
							out[r] = t
						}
					}
					return nil
				}
				nulls := src.Nulls
				if sel == nil {
					for r := 0; r < b.n; r++ {
						if nulls[r] {
							out[r] = tNull
							continue
						}
						t := tOut
						if a := ints[r]; a >= lo && a <= hi {
							t = tIn
						}
						out[r] = t
					}
				} else {
					for _, r := range sel {
						if nulls[r] {
							out[r] = tNull
							continue
						}
						t := tOut
						if a := ints[r]; a >= lo && a <= hi {
							t = tIn
						}
						out[r] = t
					}
				}
				return nil
			case types.KindFloat:
				// A NaN cell (constructible, though outside the value
				// domain) delegates so the oracle's semantics apply.
				fs, nulls := src.Floats, src.Nulls
				one := func(r int) error {
					if nulls != nil && nulls[r] {
						out[r] = tNull
						return nil
					}
					f := fs[r]
					if math.IsNaN(f) {
						t, err := spelled(op, types.Float(f), cv, constFirst)
						if err != nil {
							return err
						}
						out[r] = t
						return nil
					}
					out[r] = lut[orderAgainst(f, cf)]
					return nil
				}
				if sel == nil {
					for r := 0; r < b.n; r++ {
						if err := one(r); err != nil {
							return err
						}
					}
				} else {
					for _, r := range sel {
						if err := one(r); err != nil {
							return err
						}
					}
				}
				return nil
			}
			return cmpCellsGeneric(op, src, cv, constFirst, sel, b.n, out)
		}
	case cv.Kind() == types.KindString:
		cs := cv.AsString()
		return func(_ *vecPool, b *batch, sel []int, out []truth) error {
			src := &b.cols[idx]
			if src.Kind == types.KindString {
				strs, nulls := src.Strs, src.Nulls
				if sel == nil {
					for r := 0; r < b.n; r++ {
						if nulls != nil && nulls[r] {
							out[r] = tNull
							continue
						}
						out[r] = lut[orderStrings(strs[r], cs)]
					}
				} else {
					for _, r := range sel {
						if nulls != nil && nulls[r] {
							out[r] = tNull
							continue
						}
						out[r] = lut[orderStrings(strs[r], cs)]
					}
				}
				return nil
			}
			return cmpCellsGeneric(op, src, cv, constFirst, sel, b.n, out)
		}
	}
	return nil
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

// orderAgainst three-way-compares two non-NaN floats, shifted into LUT
// index space {0, 1, 2}.
func orderAgainst(a, b float64) int {
	o := 1
	if a < b {
		o = 0
	} else if a > b {
		o = 2
	}
	return o
}

// orderStrings is orderAgainst for strings.
func orderStrings(a, b string) int {
	o := 1
	if a < b {
		o = 0
	} else if a > b {
		o = 2
	}
	return o
}

// spelled compares cell v with constant cv under op through
// evalCmpTruth, with the operands in the order the condition spells
// them — cv first, under op flipped back, when constFirst — so that an
// error names them as the interpreter's does.
func spelled(op expr.CmpOp, v, cv types.Value, constFirst bool) (truth, error) {
	if constFirst {
		return evalCmpTruth(op.Flip(), cv, v)
	}
	return evalCmpTruth(op, v, cv)
}

// cmpCellsGeneric is the boxed/off-domain cell loop of the
// column-vs-constant comparison: NULL cells yield tNull, numeric cells
// against numeric constants take the inline ordered compare, and
// everything else delegates to evalCmpTruth in spelled order — the
// exact behavior of the pre-columnar kernel.
func cmpCellsGeneric(op expr.CmpOp, src *storage.ColVec, cv types.Value, constFirst bool, sel []int, n int, out []truth) error {
	cellCmp := func(r int) error {
		v := src.Value(r)
		if v.IsNull() {
			out[r] = tNull
			return nil
		}
		if v.IsNumeric() && cv.IsNumeric() {
			if f := v.AsFloat(); !math.IsNaN(f) {
				t, err := cmpOrdered(op, f, cv.AsFloat())
				if err != nil {
					return err
				}
				out[r] = t
				return nil
			}
		}
		if v.Kind() == types.KindString && cv.Kind() == types.KindString {
			t, err := cmpOrdered(op, v.AsString(), cv.AsString())
			if err != nil {
				return err
			}
			out[r] = t
			return nil
		}
		t, err := spelled(op, v, cv, constFirst)
		if err != nil {
			return err
		}
		out[r] = t
		return nil
	}
	if sel == nil {
		for r := 0; r < n; r++ {
			if err := cellCmp(r); err != nil {
				return err
			}
		}
		return nil
	}
	for _, r := range sel {
		if err := cellCmp(r); err != nil {
			return err
		}
	}
	return nil
}
