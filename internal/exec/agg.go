package exec

import (
	"github.com/mahif/mahif/internal/algebra"
	"github.com/mahif/mahif/internal/expr"
	"github.com/mahif/mahif/internal/schema"
	"github.com/mahif/mahif/internal/storage"
	"github.com/mahif/mahif/internal/types"
)

// Grouped aggregation. Group identity (Tuple.Hash + Tuple.Equal through
// algebra.GroupIndex) and accumulator semantics (algebra.AggAcc) are
// shared with the interpreter, so the two executors cannot drift on
// NULL grouping, cross-kind numeric keys, integer wraparound, or float
// finiteness errors. Output rows are emitted in first-appearance order
// of their group, which is deterministic because the executor produces
// interpreter-exact input order.

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

func newAggAccs(fns []algebra.AggFunc) []algebra.AggAcc {
	row := make([]algebra.AggAcc, len(fns))
	for j, fn := range fns {
		row[j] = algebra.NewAggAcc(fn)
	}
	return row
}

// vaggregateNode is the vectorized γ operator: typed-lane hash aggregation.
// Group keys hash column-wise without boxing (ColVec.FoldHash, the same
// tuple hash the GroupIndex uses), bare-column group keys stay on their
// input lanes, and bare-column aggregate arguments on clean typed lanes
// accumulate through AggAcc's unboxed AddInt/AddFloat entry points.
// Computed keys and arguments evaluate through the usual batch kernels
// into boxed scratch; like vProjectOp, every kernel runs over all live
// rows, so a batch errors iff the row-at-a-time semantics would error
// on some row of it.
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

func (n *vaggregateNode) run(rc *runCtx, emit vecEmit) error {
	groups := algebra.NewGroupIndex()
	var accs [][]algebra.AggAcc
	nG := len(n.groupFns)
	global := nG == 0
	if global {
		accs = append(accs, newAggAccs(n.fns))
	}
	pool := newVecPool(n.cfg.bs)
	hs := make([]uint64, n.cfg.bs)
	keyCols := make([]storage.ColVec, nG)
	keyBuf := make(schema.Tuple, nG)
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
		argCols := make([]*storage.ColVec, len(n.argFns))
		for j, fn := range n.argFns {
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
		var gis []int
		if !global {
			for r := range hs[:b.n] {
				hs[r] = schema.HashSeed
			}
			for i := range keyCols {
				keyCols[i].FoldHash(hs, b.sel, b.n)
			}
			rowGroup := func(r int) int {
				for i := range keyCols {
					keyBuf[i] = keyCols[i].Value(r)
				}
				gi := groups.Lookup(hs[r], keyBuf)
				if gi < 0 {
					gi = groups.Add(hs[r], keyBuf.Clone())
					accs = append(accs, newAggAccs(n.fns))
				}
				return gi
			}
			gis = make([]int, 0, b.live())
			if b.sel == nil {
				for r := 0; r < b.n; r++ {
					gis = append(gis, rowGroup(r))
				}
			} else {
				for _, r := range b.sel {
					gis = append(gis, rowGroup(r))
				}
			}
		}

		// Accumulate each aggregate column-wise.
		for j := range n.fns {
			acc := func(r, i int) error {
				a := &accs[0][j]
				if !global {
					a = &accs[gis[i]][j]
				}
				if argCols[j] == nil {
					a.AddRow()
					return nil
				}
				return a.Add(argCols[j].Value(r))
			}
			col := argCols[j]
			if global && col != nil && col.Nulls == nil && (col.Kind == types.KindInt || col.Kind == types.KindFloat) {
				// Typed fast lane: a clean int/float column feeding one
				// global accumulator folds without boxing.
				a := &accs[0][j]
				fold := func(r int) error {
					if col.Kind == types.KindInt {
						return a.AddInt(col.Ints[r])
					}
					return a.AddFloat(col.Floats[r])
				}
				if b.sel == nil {
					for r := 0; r < b.n; r++ {
						if err := fold(r); err != nil {
							return err
						}
					}
				} else {
					for _, r := range b.sel {
						if err := fold(r); err != nil {
							return err
						}
					}
				}
				continue
			}
			if b.sel == nil {
				for r := 0; r < b.n; r++ {
					if err := acc(r, r); err != nil {
						return err
					}
				}
			} else {
				for i, r := range b.sel {
					if err := acc(r, i); err != nil {
						return err
					}
				}
			}
		}
		return nil
	})
	if err != nil {
		return err
	}

	// The output batch holds min(groups, bs) rows: a global or few-group
	// aggregate does not pay for a full batch of boxed cells.
	capacity := min(max(len(accs), 1), n.cfg.bs)
	out := newOwnedBatch(n.arity, capacity)
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
	for gi := range accs {
		if !global {
			for c, v := range groups.Key(gi) {
				out.cols[c].Vals[out.n] = v
			}
		}
		for j := range accs[gi] {
			v, err := accs[gi][j].Result()
			if err != nil {
				return err
			}
			out.cols[nG+j].Vals[out.n] = v
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

// compileVecAggregate lowers γ for the vectorized path.
func compileVecAggregate(x *algebra.Aggregate, db *storage.Database, cfg vecConfig) (vecNode, *schema.Schema, error) {
	in, s, err := compileVecNode(x.In, db, cfg)
	if err != nil {
		return nil, nil, err
	}
	n := &vaggregateNode{in: in, arity: len(x.GroupBy) + len(x.Aggs), cfg: cfg}
	for _, ne := range x.GroupBy {
		src := -1
		var fn vecScalarFn
		if col, ok := ne.E.(*expr.Col); ok {
			if j := s.ColIndex(col.Name); j >= 0 {
				src = j
			}
		}
		if src < 0 {
			if fn, err = compileVecScalar(ne.E, s); err != nil {
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
				if fn, err = compileVecScalar(a.Arg, s); err != nil {
					return nil, nil, err
				}
			}
		}
		n.argFns = append(n.argFns, fn)
		n.argSrc = append(n.argSrc, src)
		n.fns = append(n.fns, a.Fn)
	}
	return n, aggSchema(x, s), nil
}
