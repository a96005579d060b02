// Package exec is the compiled, pipelined query executor for
// reenactment programs — the fast path that replaces the tree-walking
// interpreter (algebra.Eval) on every what-if answer.
//
// # Architecture
//
// A one-time compilation pass (Compile) lowers an algebra.Query into an
// immutable operator Program:
//
//   - Expressions compile into closures over column ordinals
//     (internal/exec/expr.go): every attribute reference is resolved
//     against the input schema once, at compile time, so per-tuple
//     evaluation does no case-insensitive name lookups and allocates no
//     expr.Env.
//
//   - Operators form a push-based pipeline: each node streams tuples
//     into its consumer's emit callback. Consecutive σ/Π nodes — the
//     shape reenactment produces, one generalized projection per UPDATE
//     plus a selection per DELETE — therefore fuse into a single
//     per-tuple function chain: a 100-statement history makes ONE pass
//     over the base relation instead of materializing 100 intermediate
//     relations. Projections evaluate into a per-run scratch row and
//     only tuples that survive the whole chain are copied out at a
//     materialization point (the Run sink, a hash-join build side, or a
//     difference build side).
//
//   - Pure equi-joins (every conjunct of the condition is a cross-side
//     column equality L.a = R.b) run as hash joins over typed FNV
//     value hashes; every other condition falls back to a nested-loop
//     join with the full compiled predicate, which is interpreter-
//     exact even for conditions that error.
//
//   - Bag difference uses the hash-based multiset index
//     (storage.TupleIndex) instead of fmt-built string keys.
//
// # Vectorized execution
//
// CompileVec lowers the same algebra into a vectorized program
// (internal/exec/batch.go, vector.go): operators exchange 1024-row
// column-major batches with selection vectors instead of single
// tuples. Filters narrow the selection in typed tight loops,
// projections alias identity columns through by reference and evaluate
// only computed columns (the reenacted-UPDATE shape IF θ THEN e ELSE
// col bulk-copies the column and overwrites satisfied rows), and scans
// over large relations partition across workers whose buffered output
// merges back in partition order — preserving the interpreter's exact
// output order, not just bag semantics. Per-row lazy evaluation is
// kept structurally: If branches and And/Or right operands run only
// over the sub-selection the tuple-at-a-time semantics would reach, so
// error behavior matches the oracle. Cancellation is observed between
// batches. This is the engine's default executor.
//
// A Program is immutable after Compile and safe for concurrent Run
// calls (scratch state is allocated per run and recycled through
// sync.Pools), which is what lets the batch engine compile a
// reenactment program once per fingerprint and run it against many
// snapshots from concurrent workers.
//
// The interpreter remains the reference oracle: core.Options.Executor
// selects between the two, the differential fuzz tests require
// identical deltas, and any query Compile cannot handle (symbolic
// variables, unknown nodes) makes the engine fall back to the
// interpreter, so compilation can never change observable behavior.
package exec

import (
	"context"
	"fmt"

	"github.com/mahif/mahif/internal/algebra"
	"github.com/mahif/mahif/internal/schema"
	"github.com/mahif/mahif/internal/storage"
)

// emitFn receives one tuple of a node's output stream. owned reports
// transferable ownership: if false the tuple is a scratch buffer the
// producer will overwrite, and a consumer that retains it past the call
// must Clone it first. If true the tuple is immutable and may be
// retained (it is either a base-relation tuple — never mutated, per the
// scan aliasing invariant documented at algebra.Eval — or a fresh row).
type emitFn func(t schema.Tuple, owned bool) error

// node is one compiled operator. run streams the node's full output
// into emit; implementations must be reentrant (no state mutated across
// concurrent runs).
type node interface {
	run(ctx *runCtx, emit emitFn) error
}

// runCtx carries per-run state through the pipeline.
type runCtx struct {
	db  *storage.Database
	ctx context.Context
	// n counts tuples emitted by source nodes since the last
	// cancellation check (see tick).
	n int
}

// cancelCheckEvery bounds how many source tuples flow between two
// cancellation checks. Every pipeline is driven by scan/singleton
// loops, so a check there covers the fused σ/Π chains, join builds and
// probes, and difference builds downstream: a cancelled run stops
// within a few thousand tuples of work, not at the next operator
// boundary.
const cancelCheckEvery = 4096

// tick is called once per source tuple and surfaces ctx cancellation
// every cancelCheckEvery tuples.
func (c *runCtx) tick() error {
	c.n++
	if c.n%cancelCheckEvery == 0 {
		return c.ctx.Err()
	}
	return nil
}

// Program is a compiled query plan. Compile once, Run many times —
// including concurrently and against different database versions with
// the same schemas. Exactly one of root (tuple-at-a-time pipeline,
// Compile) and vroot (vectorized batch pipeline, CompileVec) is set.
type Program struct {
	root  node
	vroot vecNode
	out   *schema.Schema
}

// OutputSchema returns the schema of the program's result.
func (p *Program) OutputSchema() *schema.Schema { return p.out }

// Run executes the program against db and materializes the result.
// Tuples that pass through the pipeline unchanged are shared with the
// source relation (same aliasing contract as the interpreter); tuples
// produced by projections or joins are freshly allocated.
func (p *Program) Run(db *storage.Database) (*storage.Relation, error) {
	return p.RunCtx(context.Background(), db)
}

// RunCtx is Run under a context: the pipeline's source loops observe
// cancellation every few thousand tuples (tuple-at-a-time) or between
// row batches (vectorized), so a cancelled run returns ctx.Err()
// promptly instead of streaming the full relation.
func (p *Program) RunCtx(ctx context.Context, db *storage.Database) (*storage.Relation, error) {
	if p.vroot != nil {
		return p.runVec(ctx, db)
	}
	out := storage.NewRelation(p.out)
	err := p.root.run(&runCtx{db: db, ctx: ctx}, func(t schema.Tuple, owned bool) error {
		if !owned {
			t = t.Clone()
		}
		out.Tuples = append(out.Tuples, t)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// runVec drives the vectorized pipeline: every emitted batch's live
// rows materialize into row-major tuples backed by one arena allocation
// per batch (not one per row), and the relation's tuple slice is
// allocated once, at its final size.
func (p *Program) runVec(ctx context.Context, db *storage.Database) (*storage.Relation, error) {
	out := storage.NewRelation(p.out)
	arity := p.out.Arity()
	var chunks [][]schema.Tuple
	total := 0
	err := p.vroot.run(&runCtx{db: db, ctx: ctx}, func(b *batch) error {
		rows := materializeRows(b, arity)
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
// returns, and the same errors. A vectorized program copies each
// emitted batch's live rows lane-wise into the view and boxes nothing —
// the form for a result that is mostly going to be compared with
// another (delta.ComputeColumnar) rather than read. A tuple-at-a-time
// program has rows to begin with and transposes them once; a row
// narrower than the output schema, which that executor passes through
// when no operator reads the missing cell, has no columnar form and is
// the vectorized executor's row-arity error here.
func (p *Program) RunColumnarCtx(ctx context.Context, db *storage.Database) (*storage.ColumnarView, error) {
	if p.vroot == nil {
		rel, err := p.RunCtx(ctx, db)
		if err != nil {
			return nil, err
		}
		view, err := storage.Transpose(rel)
		if err != nil {
			return nil, fmt.Errorf("exec: %w", err)
		}
		return view, nil
	}
	// Each batch's live rows are frozen into a part of exactly their
	// size, and the parts are joined once the total is known: what is
	// returned (and may sit in a result cache) has no slack, and no lane
	// was regrown on the way.
	arity := p.out.Arity()
	var parts []*storage.ColumnarView
	total := 0
	err := p.vroot.run(&runCtx{db: db, ctx: ctx}, func(b *batch) error {
		part := storage.NewColumnarView(p.out, b.live())
		part.AppendRows(b.cols[:arity], b.sel, b.n)
		parts = append(parts, part)
		total += part.Rows
		return nil
	})
	if err != nil {
		return nil, err
	}
	if len(parts) == 1 {
		return parts[0], nil
	}
	out := storage.NewColumnarView(p.out, total)
	for _, part := range parts {
		out.AppendRows(part.Cols, nil, part.Rows)
	}
	return out, nil
}

// Compile lowers q into a pipelined program. db supplies the base
// relation schemas; the returned program may run against any database
// holding relations with the same schemas (e.g. other time-travel
// versions of the same store). Queries outside the compilable subset
// return an error and the caller falls back to the interpreter.
func Compile(q algebra.Query, db *storage.Database) (*Program, error) {
	n, sch, err := compileNode(q, db)
	if err != nil {
		return nil, err
	}
	return &Program{root: n, out: sch}, nil
}

// Eval compiles and runs q in one step — a drop-in replacement for
// algebra.Eval when no program reuse is intended.
func Eval(q algebra.Query, db *storage.Database) (*storage.Relation, error) {
	p, err := Compile(q, db)
	if err != nil {
		return nil, err
	}
	return p.Run(db)
}

// scanNode streams a base relation. Emitted tuples are owned=true:
// they alias store tuples, which are stable for the duration of the
// query by the documented scan invariant (snapshots are deep clones;
// states applied to in place are privately owned while mutating, per
// storage.ApplyMutator's ownership contract).
type scanNode struct {
	rel   string
	arity int
}

func (n *scanNode) run(ctx *runCtx, emit emitFn) error {
	r, err := ctx.db.Relation(n.rel)
	if err != nil {
		return err
	}
	if r.Schema.Arity() != n.arity {
		return fmt.Errorf("exec: relation %s arity changed since compilation (%d vs %d)", n.rel, r.Schema.Arity(), n.arity)
	}
	for _, t := range r.Tuples {
		if err := ctx.tick(); err != nil {
			return err
		}
		if err := emit(t, true); err != nil {
			return err
		}
	}
	return nil
}

// singletonNode streams a constant relation.
type singletonNode struct {
	tuples []schema.Tuple
}

func (n *singletonNode) run(ctx *runCtx, emit emitFn) error {
	for _, t := range n.tuples {
		if err := ctx.tick(); err != nil {
			return err
		}
		if err := emit(t, true); err != nil {
			return err
		}
	}
	return nil
}

// filterNode drops tuples failing a compiled predicate. Fuses: it
// wraps the consumer's emit, so no materialization happens.
type filterNode struct {
	in   node
	pred predFn
}

func (n *filterNode) run(ctx *runCtx, emit emitFn) error {
	return n.in.run(ctx, func(t schema.Tuple, owned bool) error {
		ok, err := n.pred(t)
		if err != nil {
			return err
		}
		if !ok {
			return nil
		}
		return emit(t, owned)
	})
}

// projectNode evaluates one compiled expression per output column into
// a scratch row reused across tuples (allocated per run, keeping the
// program reentrant). Downstream consumers only copy the row at true
// materialization points, so a fused σ/Π chain costs one allocation
// per surviving output tuple, not one per operator per tuple.
//
// Identity columns — the common case in reenactment projections, where
// an UPDATE rewrites one column and passes the rest through — skip the
// closure machinery: src[i] >= 0 means "copy input ordinal src[i]" and
// fns[i] is nil.
type projectNode struct {
	in  node
	fns []scalarFn
	src []int
}

func (n *projectNode) run(ctx *runCtx, emit emitFn) error {
	buf := make(schema.Tuple, len(n.fns))
	return n.in.run(ctx, func(t schema.Tuple, _ bool) error {
		for i, fn := range n.fns {
			if fn == nil {
				j := n.src[i]
				if j >= len(t) {
					return fmt.Errorf("exec: row arity %d below attribute index %d", len(t), j)
				}
				buf[i] = t[j]
				continue
			}
			v, err := fn(t)
			if err != nil {
				return err
			}
			buf[i] = v
		}
		return emit(buf, false)
	})
}

// unionNode streams the left branch then the right (bag union,
// preserving the interpreter's output order).
type unionNode struct {
	l, r node
}

func (n *unionNode) run(ctx *runCtx, emit emitFn) error {
	if err := n.l.run(ctx, emit); err != nil {
		return err
	}
	return n.r.run(ctx, emit)
}

// diffNode is bag difference: the right branch materializes into a
// hash multiset index, then the left streams through it, dropping each
// tuple that still finds a positive count (multiset semantics, same
// order as the interpreter).
type diffNode struct {
	l, r node
}

func (n *diffNode) run(ctx *runCtx, emit emitFn) error {
	remove := storage.NewTupleIndex(0)
	err := n.r.run(ctx, func(t schema.Tuple, owned bool) error {
		if !owned {
			t = t.Clone()
		}
		remove.Add(t)
		return nil
	})
	if err != nil {
		return err
	}
	return n.l.run(ctx, func(t schema.Tuple, owned bool) error {
		if remove.Len() > 0 && remove.Remove(t) {
			return nil
		}
		return emit(t, owned)
	})
}
