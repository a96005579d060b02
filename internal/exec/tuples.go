package exec

import (
	"fmt"
	"sync"

	"github.com/mahif/mahif/internal/expr"
	"github.com/mahif/mahif/internal/schema"
	"github.com/mahif/mahif/internal/storage"
	"github.com/mahif/mahif/internal/types"
)

// TupleKernel evaluates a condition and a vector of scalar expressions
// over rows the caller gathers, through the batch kernels a Program
// runs. Package history's statement application evaluates an UPDATE's
// residual θ and SET vector, or a DELETE's ¬θ, over the candidate rows
// an index probe or a scan selected. Rows are transposed a batch
// at a time, and only the columns the expressions read. Column
// references resolve against the schema the kernel was compiled for,
// so it evaluates the rows of any layout-equal relation. A TupleKernel
// is safe for concurrent use — replays of one logged statement share
// its kernels — because every Eval draws its own scratch from a pool.
type TupleKernel struct {
	cond  vecCondFn // nil keeps every row
	fns   []vecScalarFn
	cols  []int        // the columns cond and fns read
	kinds []types.Kind // their declared kinds: the transpose's lane hints
	arity int
	sites []any // param site kernels: a kernel binds no $slot, so all generic
}

// tupleRun is one Eval's scratch for batches of up to bs rows. It fits
// any kernel once getRun has grown its columns and output vectors, so
// the statements of a history, applied one after another, share one
// run rather than each keeping its own.
type tupleRun struct {
	bs   int
	pool *vecPool
	cols []storage.ColVec
	b    batch
	tr   []truth
	sel  []int
	outs [][]types.Value
}

// tupleRuns recycles tupleRuns across every TupleKernel.
var tupleRuns sync.Pool

// CompileTupleKernel compiles cond under WHERE semantics (nil keeps
// every row) and exprs against s. An error means an expression is
// outside the compilable subset; the caller falls back to the
// reference loops.
func CompileTupleKernel(cond expr.Expr, exprs []expr.Expr, s *schema.Schema) (*TupleKernel, error) {
	k := &TupleKernel{arity: s.Arity()}
	c := &compiler{}
	read := map[int]bool{}
	note := func(e expr.Expr) {
		for name := range expr.Cols(e) {
			if i := s.ColIndex(name); i >= 0 {
				read[i] = true
			}
		}
	}
	if cond != nil {
		fn, err := c.compileVecTruth(cond, s, whereTruth)
		if err != nil {
			return nil, err
		}
		k.cond = fn
		note(cond)
	}
	for _, e := range exprs {
		fn, err := c.compileVecScalar(e, s)
		if err != nil {
			return nil, err
		}
		k.fns = append(k.fns, fn)
		note(e)
	}
	k.sites = buildSites(c.sites, nil)
	for i, col := range s.Columns {
		if read[i] {
			k.cols = append(k.cols, i)
			k.kinds = append(k.kinds, col.Type)
		}
	}
	return k, nil
}

// Eval evaluates the kernel over rows. With a condition, keep[i] is set
// to whether rows[i] satisfies it, and keep must hold len(rows) flags;
// without one every row is kept and keep may be nil. The expression
// values of each kept row are appended to out, row by row, len(exprs)
// per row. Eval errors iff the condition errors on some row or an
// expression errors on some kept row — iff the per-row reference loop
// errors — though the row it names may differ from the one that loop
// stops at.
func (k *TupleKernel) Eval(rows []schema.Tuple, keep []bool, out []types.Value) ([]types.Value, error) {
	if len(rows) == 0 {
		return out, nil
	}
	run := k.getRun(min(len(rows), DefaultBatchSize))
	defer tupleRuns.Put(run)
	b, outs := &run.b, run.outs[:len(k.fns)]
	for lo := 0; lo < len(rows); lo += run.bs {
		chunk := rows[lo:min(lo+run.bs, len(rows))]
		if err := storage.CheckRowArity(chunk, k.arity); err != nil {
			return out, fmt.Errorf("exec: %w", err)
		}
		for i, c := range k.cols {
			b.cols[c].FillFromTuples(chunk, c, k.kinds[i])
		}
		b.n = len(chunk)
		var sel []int // nil selects the whole chunk
		if k.cond != nil {
			if err := k.cond(run.pool, b, nil, run.tr); err != nil {
				return out, err
			}
			sel = run.sel[:0]
			for r := range chunk {
				keep[lo+r] = run.tr[r] == tTrue
				if keep[lo+r] {
					sel = append(sel, r)
				}
			}
			if len(sel) == 0 {
				continue
			}
		}
		for j, fn := range k.fns {
			if err := fn(run.pool, b, sel, outs[j]); err != nil {
				return out, err
			}
		}
		if sel == nil {
			for r := range chunk {
				for _, o := range outs {
					out = append(out, o[r])
				}
			}
		} else {
			for _, r := range sel {
				for _, o := range outs {
					out = append(out, o[r])
				}
			}
		}
	}
	return out, nil
}

// getRun draws scratch for batches of bs rows from the pool, replacing
// a pooled run too small for them, and fits it to k: a column per
// schema position (columns k does not read are never touched) and an
// output vector per expression.
func (k *TupleKernel) getRun(bs int) *tupleRun {
	r, _ := tupleRuns.Get().(*tupleRun)
	if r == nil || r.bs < bs {
		r = &tupleRun{bs: bs, pool: newVecPool(bs), tr: make([]truth, bs), sel: make([]int, 0, bs)}
	}
	r.pool.bind(nil, k.sites)
	if len(r.cols) < k.arity {
		r.cols = make([]storage.ColVec, k.arity)
	}
	r.b.cols = r.cols[:k.arity]
	for len(r.outs) < len(k.fns) {
		r.outs = append(r.outs, make([]types.Value, r.bs))
	}
	return r
}
