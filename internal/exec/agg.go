package exec

import (
	"context"
	"fmt"

	"github.com/mahif/mahif/internal/algebra"
	"github.com/mahif/mahif/internal/expr"
	"github.com/mahif/mahif/internal/schema"
	"github.com/mahif/mahif/internal/storage"
	"github.com/mahif/mahif/internal/types"
)

// Grouped aggregation. Group identity (Tuple.Hash + Tuple.Equal through
// algebra.GroupState's GroupIndex) and accumulator semantics
// (algebra.AggAcc) are shared with the interpreter, so the two
// executors cannot drift on NULL grouping, cross-kind numeric keys,
// integer wraparound, or SUM's exact rounding. Output rows are emitted
// in first-appearance order of their group, which is deterministic
// because the executor produces interpreter-exact input order.

// aggSchema computes the output schema (groups then aggregates) against
// the input schema.
func aggSchema(x *algebra.Aggregate, in *schema.Schema) *schema.Schema {
	cols := make([]schema.Column, 0, len(x.GroupBy)+len(x.Aggs))
	for _, ne := range x.GroupBy {
		cols = append(cols, schema.Col(ne.Name, algebra.ExprKind(ne.E, in)))
	}
	for _, a := range x.Aggs {
		cols = append(cols, schema.Col(a.Name, a.ResultKind(in)))
	}
	return schema.New(in.Relation, cols...)
}

// vaggregateNode is the vectorized γ operator: typed-lane hash aggregation.
// Group keys hash column-wise without boxing (ColVec.FoldHash, the same
// tuple hash the GroupIndex uses), bare-column group keys stay on their
// input lanes, and aggregate arguments on int and float lanes — bare
// columns, masked or not — accumulate through AggAcc's unboxed
// AddInt/AddFloat entry points, grouped or global. Computed keys and
// arguments evaluate through the usual batch kernels into boxed
// scratch; like vProjectOp, every kernel runs over all live rows, so a
// batch errors iff the row-at-a-time semantics would error on some row
// of it.
type vaggregateNode struct {
	in       vecNode
	groupFns []vecScalarFn // nil entry: bare column, use groupSrc
	groupSrc []int
	argFns   []vecScalarFn // nil entry: bare column or COUNT(*)
	argSrc   []int         // input ordinal, or -1 computed, -2 COUNT(*)
	fns      []algebra.AggFunc
	arity    int
	cfg      vecConfig
}

// RunGroupStateCtx runs a program whose root is a γ and returns the γ's
// state before finalization (algebra.GroupState) instead of its rows:
// the form an aggregate report merges. Errors are those of RunCtx up to
// finalization; finalizing is the caller's (GroupState.Rows).
func (p *Program) RunGroupStateCtx(ctx context.Context, db *storage.Database) (*algebra.GroupState, error) {
	n, ok := p.root.(*vaggregateNode)
	if !ok {
		return nil, fmt.Errorf("exec: the program does not aggregate at the top")
	}
	return n.fold(p.newRun(ctx, db, nil))
}

// RunGroupStateViewCtx is RunGroupStateCtx with every scan of relation
// rel reading rows [lo, hi) of v, in order, instead of db's relation:
// the state RunGroupStateCtx folds over db with rel holding exactly
// those rows, without boxing them. v must have rel's columns, in order.
func (p *Program) RunGroupStateViewCtx(ctx context.Context, db *storage.Database, rel string, v *storage.ColumnarView, lo, hi int) (*algebra.GroupState, error) {
	n, ok := p.root.(*vaggregateNode)
	if !ok {
		return nil, fmt.Errorf("exec: the program does not aggregate at the top")
	}
	rc := p.newRun(ctx, db, nil)
	rc.scan = &viewScan{rel: rel, v: v, lo: lo, hi: hi}
	return n.fold(rc)
}

func (n *vaggregateNode) run(rc *runCtx, emit vecEmit) error {
	st, err := n.fold(rc)
	if err != nil {
		return err
	}
	// The output batch holds min(groups, bs) rows: a global or few-group
	// aggregate does not pay for a full batch of boxed cells.
	capacity := min(st.Len(), n.cfg.bs)
	out := newOwnedBatch(n.arity, capacity)
	row := make(schema.Tuple, n.arity)
	flush := func() error {
		if out.n == 0 {
			return nil
		}
		// Result emission is not driven by a source batch loop, so
		// observe cancellation once per emitted batch; consumers may also have
		// narrowed the previous emit's selection in place.
		if err := rc.ctx.Err(); err != nil {
			return err
		}
		out.sel = nil
		err := emit(out)
		out.n = 0
		return err
	}
	for g := 0; g < st.Len(); g++ {
		if ok, err := st.Finalize(g, row); !ok || err != nil {
			if err != nil {
				return err
			}
			continue
		}
		for c, v := range row {
			out.cols[c].Vals[out.n] = v
		}
		out.n++
		if out.n == capacity {
			if err := flush(); err != nil {
				return err
			}
		}
	}
	return flush()
}

// fold runs the γ's input and folds it into the γ's state.
func (n *vaggregateNode) fold(rc *runCtx) (*algebra.GroupState, error) {
	nG := len(n.groupFns)
	st := algebra.NewGroupState(n.fns, nG > 0)
	pool := newVecPool(n.cfg.bs)
	pool.bind(rc.args, rc.sites)
	var hs []uint64
	var gis []int // group ordinal of each live row; nil for a global γ
	keyCols := make([]storage.ColVec, nG)
	keyBuf := make(schema.Tuple, nG)
	argCols := make([]*storage.ColVec, len(n.argFns))
	err := n.in.run(rc, func(b *batch) error {
		// Evaluate computed group keys and arguments over the whole
		// batch first (kernels fill only live rows).
		for i, fn := range n.groupFns {
			if fn == nil {
				keyCols[i] = b.cols[n.groupSrc[i]]
				continue
			}
			vals := pool.getVals()
			defer pool.putVals(vals)
			if err := fn(pool, b, b.sel, vals); err != nil {
				return err
			}
			keyCols[i] = storage.ColVec{Kind: types.KindNull, Vals: vals}
		}
		for j, fn := range n.argFns {
			argCols[j] = nil
			if n.argSrc[j] >= 0 {
				argCols[j] = &b.cols[n.argSrc[j]]
				continue
			}
			if fn == nil {
				continue // COUNT(*)
			}
			vals := pool.getVals()
			defer pool.putVals(vals)
			if err := fn(pool, b, b.sel, vals); err != nil {
				return err
			}
			argCols[j] = &storage.ColVec{Kind: types.KindNull, Vals: vals}
		}

		// Resolve each live row to its dense group ordinal.
		live := b.live()
		if nG == 0 {
			st.AddRows(0, int64(live))
		} else {
			if len(hs) < b.n {
				// Sized by the batches that arrive: a γ over a few rows
				// does not pay for a whole batch of scratch.
				hs, gis = make([]uint64, b.n), make([]int, b.n)
			}
			for r := range hs[:b.n] {
				hs[r] = schema.HashSeed
			}
			for i := range keyCols {
				keyCols[i].FoldHash(hs, b.sel, b.n)
			}
			for i := 0; i < live; i++ {
				r := liveRow(b.sel, i)
				for c := range keyCols {
					keyBuf[c] = keyCols[c].Value(r)
				}
				gis[i] = st.Group(hs[r], keyBuf)
				st.AddRows(gis[i], 1)
			}
		}

		// Accumulate each aggregate column-wise.
		for j := range n.fns {
			if err := foldArg(st, j, argCols[j], b.sel, live, gis); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return st, nil
}

// liveRow returns the batch row of the i-th live row.
func liveRow(sel []int, i int) int {
	if sel == nil {
		return i
	}
	return sel[i]
}

// liveGroup returns the group of the i-th live row (gis nil: global).
func liveGroup(gis []int, i int) int {
	if gis == nil {
		return 0
	}
	return gis[i]
}

// foldArg accumulates aggregate j over the live rows of a batch; col is
// its argument column, nil for COUNT(*). Int and float lanes fold
// unboxed, their NULL cells skipped as Add skips a NULL.
func foldArg(st *algebra.GroupState, j int, col *storage.ColVec, sel []int, live int, gis []int) error {
	switch {
	case col == nil:
		for i := 0; i < live; i++ {
			st.Acc(liveGroup(gis, i), j).AddRow()
		}
	case col.Kind == types.KindInt:
		for i := 0; i < live; i++ {
			r := liveRow(sel, i)
			if col.Nulls != nil && col.Nulls[r] {
				continue
			}
			if err := st.Acc(liveGroup(gis, i), j).AddInt(col.Ints[r]); err != nil {
				return err
			}
		}
	case col.Kind == types.KindFloat:
		for i := 0; i < live; i++ {
			r := liveRow(sel, i)
			if col.Nulls != nil && col.Nulls[r] {
				continue
			}
			if err := st.Acc(liveGroup(gis, i), j).AddFloat(col.Floats[r]); err != nil {
				return err
			}
		}
	default:
		for i := 0; i < live; i++ {
			if err := st.Acc(liveGroup(gis, i), j).Add(col.Value(liveRow(sel, i))); err != nil {
				return err
			}
		}
	}
	return nil
}

// compileVecAggregate lowers γ for the vectorized path.
func (c *compiler) compileVecAggregate(x *algebra.Aggregate, db *storage.Database) (vecNode, *schema.Schema, error) {
	cfg := c.cfg
	in, s, err := c.compileVecNode(x.In, db)
	if err != nil {
		return nil, nil, err
	}
	n := &vaggregateNode{in: in, arity: len(x.GroupBy) + len(x.Aggs), fns: x.Funcs(), cfg: cfg}
	for _, ne := range x.GroupBy {
		src := -1
		var fn vecScalarFn
		if col, ok := ne.E.(*expr.Col); ok {
			if j := s.ColIndex(col.Name); j >= 0 {
				src = j
			}
		}
		if src < 0 {
			if fn, err = c.compileVecScalar(ne.E, s); err != nil {
				return nil, nil, err
			}
		}
		n.groupFns = append(n.groupFns, fn)
		n.groupSrc = append(n.groupSrc, src)
	}
	for _, a := range x.Aggs {
		src := -2
		var fn vecScalarFn
		if a.Arg != nil {
			src = -1
			if col, ok := a.Arg.(*expr.Col); ok {
				if j := s.ColIndex(col.Name); j >= 0 {
					src = j
				}
			}
			if src == -1 {
				if fn, err = c.compileVecScalar(a.Arg, s); err != nil {
					return nil, nil, err
				}
			}
		}
		n.argFns = append(n.argFns, fn)
		n.argSrc = append(n.argSrc, src)
	}
	return n, aggSchema(x, s), nil
}
