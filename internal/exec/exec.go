// Package exec is the compiled query executor for reenactment programs
// — the fast path that replaces the tree-walking interpreter
// (algebra.Eval) on every what-if answer.
//
// # Architecture
//
// A one-time compilation pass (CompileVec) lowers an algebra.Query into
// an immutable vectorized Program (internal/exec/batch.go, vector.go):
//
//   - Expressions compile into batch kernels over column ordinals: every
//     attribute reference is resolved against the input schema once, at
//     compile time. They are the executor's one expression compiler:
//     package history's statement application runs the same
//     kernels over the candidate rows it gathers (TupleKernel). A
//     comparison of a column with a constant or a $slot runs one typed
//     kernel per lane; AND and OR compile through one lazy combinator
//     that differs only in its dominant truth value, so a conjunction
//     of comparisons runs leg by leg, each leg over the rows the legs
//     before it left undecided.
//
//   - Operators exchange 1024-row column-major batches with selection
//     vectors. Consecutive σ/Π nodes — the shape reenactment produces,
//     one generalized projection per UPDATE plus a selection per DELETE
//     — fuse into one chain applied batch-wise, so a 100-statement
//     history makes ONE pass over the base relation. Filters narrow the
//     selection in typed tight loops; projections alias identity columns
//     through by reference and evaluate only computed columns (the
//     reenacted-UPDATE shape IF θ THEN e ELSE col stays on a typed lane
//     and overwrites satisfied rows).
//
//   - Every scan reads windows of a columnar view (runVecView): a
//     frozen relation's (one a SnapshotCache published) shared view,
//     built once per snapshot; a private relation's rows, transposed
//     whole by the run that scans them (storage.Transpose); a constant
//     relation's, transposed at compile time; or rows a run substitutes
//     for a relation (RunGroupStateViewCtx). Scans over large relations
//     split the view by row range across workers, each copying its
//     output batches out into lanes of their own; the merge emits them
//     in partition order — preserving the interpreter's exact output
//     order, not just bag semantics — and a columnar sink keeps such a
//     copy as its part instead of copying it again. Rows leave a batch
//     one way: lane-wise through storage.ColumnarView.AppendRows (the
//     sink, the workers' copies, the pair's residual), or boxed through
//     storage.GatherRows (the row sink, the join's build side).
//
//   - Reenactment builds σ, Π, ∪ and constant rows; reports add γ over
//     σ and ⋈ of scans. Those are the operators compiled here, and ∪
//     streams its left branch, then its right. The one join is a hash
//     join that builds on the right and probes with typed lane hashes,
//     for a condition made only of cross-side column equalities
//     (L.a = R.b): the interpreter's left-major output order, at
//     O(|L|+|R|) where the interpreter loops over every pair. Any other
//     join condition, an equi-join with a residual conjunct among them,
//     is outside the compilable subset.
//
// Per-row lazy evaluation is kept structurally: If branches and And/Or
// right operands run only over the sub-selection the tuple-at-a-time
// semantics would reach, so error behavior matches the oracle.
// Cancellation is observed between batches.
//
// A Program is immutable after compilation, and its runs — RunCtx,
// RunColumnarCtx, RunColumnarParamsCtx, the γ-state runs of agg.go and
// RunPairCtx, which runs two programs at once — may be concurrent:
// scratch state is allocated per run and recycled through sync.Pools.
// A what-if compiles its two sides and runs them once. When each is one
// scan of the same relation through its fused chain, RunPairCtx
// (pair.go) drives both chains over the same windows of its view, runs
// a σ both chains begin with (the data-slicing filter) once, compares
// their live rows position by position and writes only the rows that
// differ, once, into pooled residual lanes, so neither result is ever
// written out; other pairs run each side alone. A template compiles
// its programs once and answers concurrent bindings with them, each
// binding a parameter vector ($slots are run-time parameters) that one
// run carries (params.go).
//
// The interpreter remains the reference oracle: core.Options.Executor
// selects between the two, the differential fuzz tests require
// identical deltas, and any query CompileVec cannot handle (symbolic
// variables, a join that is not a pure equi-join, unknown nodes) makes
// the engine fall back to the interpreter as a whole, counted
// (Engine.InterpreterFallbacks), so compilation never changes a result.
// A failing σ or Π names its condition or column expression as the
// interpreter's does, and a comparison its operands in the order the
// condition spells them, so a query with one failing operator fails
// with the same text under both. Which error a chain of several
// operators reports first can differ: the chain runs batch by batch,
// every operator over one batch before the next batch enters, where the
// interpreter runs each operator over every row before the next. Both
// fail, or neither does.
package exec

import (
	"context"

	"github.com/mahif/mahif/internal/schema"
	"github.com/mahif/mahif/internal/storage"
	"github.com/mahif/mahif/internal/types"
)

// runCtx carries per-run state through the pipeline: the database, the
// context, the run's parameter vector and its param sites' kernels, and
// the rows a scan of one relation reads instead of the database's, if
// any (RunGroupStateViewCtx).
type runCtx struct {
	db    *storage.Database
	ctx   context.Context
	args  []arg
	sites []any
	scan  *viewScan
}

// viewScan is rows [lo, hi) of a columnar view that a scan of relation
// rel reads: the relation's own view in the database (vpipeNode.source),
// or rows a run substitutes for it.
type viewScan struct {
	rel    string
	v      *storage.ColumnarView
	lo, hi int
}

// Program is a compiled query plan. Compile once, Run many times —
// including concurrently, against different database versions with
// the same schemas, and under different parameter bindings.
type Program struct {
	root   vecNode
	out    *schema.Schema
	params []string          // parameter slot names, by slot
	sites  []func([]arg) any // param site builders, by site
}

// newRun builds the run state of one call under binding.
func (p *Program) newRun(ctx context.Context, db *storage.Database, binding map[string]types.Value) *runCtx {
	a := args(p.params, binding)
	return &runCtx{db: db, ctx: ctx, args: a, sites: buildSites(p.sites, a)}
}

// RunCtx executes the program against db and materializes the result
// as rows. The pipeline observes cancellation between row batches, so
// a cancelled run returns ctx.Err() promptly instead of streaming the
// full relation. Every emitted batch's live rows box into row-major
// tuples backed by one arena allocation per batch (storage.GatherRows),
// and the relation's tuple slice is allocated once, at its final size.
func (p *Program) RunCtx(ctx context.Context, db *storage.Database) (*storage.Relation, error) {
	out := storage.NewRelation(p.out)
	arity := p.out.Arity()
	var chunks [][]schema.Tuple
	total := 0
	err := p.root.run(p.newRun(ctx, db, nil), func(b *batch) error {
		rows := storage.GatherRows(b.cols[:arity], b.sel, b.n)
		chunks = append(chunks, rows)
		total += len(rows)
		return nil
	})
	if err != nil {
		return nil, err
	}
	if total > 0 {
		out.Tuples = make([]schema.Tuple, 0, total)
		for _, rows := range chunks {
			out.Tuples = append(out.Tuples, rows...)
		}
	}
	return out, nil
}

// RunColumnarCtx is RunCtx with the result left in columnar form: the
// same rows in the same order, so view.Relation() equals what RunCtx
// returns, and the same errors. Each emitted batch's live rows are
// copied lane-wise into the view and nothing is boxed — the form for a
// result that is mostly going to be compared with another
// (delta.ComputeColumnar) rather than read.
func (p *Program) RunColumnarCtx(ctx context.Context, db *storage.Database) (*storage.ColumnarView, error) {
	return p.RunColumnarParamsCtx(ctx, db, nil)
}

// RunColumnarParamsCtx is RunColumnarCtx with the program's $slots
// bound to binding's values: the rows, order, lanes and errors of
// CompileVec of the query with binding substituted. A slot binding
// lacks evaluates like the interpreter's unsubstituted parameter, an
// error once a row reaches it (as every slot does under the other Run
// methods); names no slot has are ignored.
func (p *Program) RunColumnarParamsCtx(ctx context.Context, db *storage.Database, binding map[string]types.Value) (*storage.ColumnarView, error) {
	// Each batch's live rows become a part of exactly their size
	// (copyLive), and the parts are joined once the total is known: what
	// is returned (and may be pinned by a template artifact) has no
	// slack, and no lane was regrown on the way. A batch a parallel scan
	// froze is such a part already and is kept as it is.
	arity := p.out.Arity()
	var parts []*storage.ColumnarView
	err := p.root.run(p.newRun(ctx, db, binding), func(b *batch) error {
		if b.frozen && b.sel == nil {
			parts = append(parts, &storage.ColumnarView{Schema: p.out, Rows: b.n, Cols: b.cols[:arity]})
			return nil
		}
		parts = append(parts, copyLive(b, p.out))
		return nil
	})
	if err != nil {
		return nil, err
	}
	return joinParts(parts, func(rows int) *storage.ColumnarView { return storage.NewColumnarView(p.out, rows) }), nil
}

// joinParts joins parts into one view of exactly their total size, in
// order, which newView makes with room for that many rows; a single
// part is returned as it is. The columnar sink joins a result's parts,
// a pair run its partitions' residual rows.
func joinParts(parts []*storage.ColumnarView, newView func(rows int) *storage.ColumnarView) *storage.ColumnarView {
	if len(parts) == 1 {
		return parts[0]
	}
	total := 0
	for _, part := range parts {
		total += part.Rows
	}
	out := newView(total)
	for _, part := range parts {
		out.AppendRows(part.Cols, nil, part.Rows)
	}
	return out
}
