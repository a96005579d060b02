package core

import (
	"context"
	"fmt"
	"strings"
	"sync/atomic"
	"time"

	"github.com/mahif/mahif/internal/algebra"
	"github.com/mahif/mahif/internal/compile"
	"github.com/mahif/mahif/internal/delta"
	"github.com/mahif/mahif/internal/exec"
	"github.com/mahif/mahif/internal/expr"
	"github.com/mahif/mahif/internal/history"
	"github.com/mahif/mahif/internal/lru"
	"github.com/mahif/mahif/internal/schema"
	"github.com/mahif/mahif/internal/storage"
	"github.com/mahif/mahif/internal/types"
)

// Template is a compiled parameterized what-if scenario: a modification
// sequence whose statements carry named $param slots (expr.Param),
// compiled once against a pinned history version into a reusable
// artifact, then answered per parameter binding in a fraction of a full
// WhatIf. The million-user pattern — everyone asks the same what-if
// with different constants — pays compile+solve once instead of per
// user.
//
// What the artifact precomputes (and Eval therefore skips):
//
//   - history alignment and time travel: the padded pair and the
//     snapshot at the first modified position are pinned;
//   - program slicing: the slicing MILPs are solved once with the
//     $slots as free solver variables, which is sound for every later
//     binding (UNSAT with a free slot ⇒ UNSAT for each constant), so
//     no binding ever runs the solver;
//   - the original-side reenactment: original histories never contain
//     parameters, so each relation's original-side result is
//     materialized once — except where a slicing filter of that side
//     carries a $slot (below);
//   - relations whose modified side carries no parameter: their whole
//     delta is static and served as-is;
//   - the executor programs: every query a binding runs — each
//     modified side, both sides of a sliced pair, the slice counts —
//     is compiled once, with its $slots as run-time parameters
//     (exec.CompileVec).
//
// Per binding, Eval runs the modified side's program with the binding
// as its parameter vector over the pinned snapshot, and diffs against
// the materialized original side; nothing is substituted or compiled.
// Under the interpreter, the oracle, and for a query outside the
// compilable subset, the binding is substituted into the retained
// skeleton and interpreted instead. Data slicing (§6) is exact for
// every constant, so the filters keep their $slots: a slot in value
// position (an UPDATE's SET) can leak into a filter only through
// push-down, a slot in a condition (UPDATE/DELETE WHERE, INSERT …
// SELECT) lands in it directly. A relation whose original side reads
// such a filter has two plans: the sliced pair, both sides filtered
// per binding, and the unsliced pair, the original side materialized
// over the whole relation. Each binding counts its filters on the
// snapshot (|S_H| and |S_M| rows) and runs the sliced pair iff
// |S_H| + |S_M| plus one batch for its second pass over the relation is
// at most |R| (slicedPair.pays), whichever reenacts fewer base rows — a
// narrow binding touches its slice, a wide one does not pay for
// reenacting both sides. Both plans are exact, so the choice changes
// speed, never results; Stats counts it. The unsliced pair of such a
// relation is built on first use, by the first binding the sliced pair
// does not pay for: a template whose bindings all slice never
// reenacts the whole relation, and a recompile after an append costs
// it nothing. Its original side is then, like the sliced pair's,
// evaluated at eval time, so an error there surfaces on that binding
// rather than at compile.
//
// Templates are safe for concurrent use. When the engine's history
// advances, the next Eval transparently recompiles the artifact against
// the new version (the append-invalidation contract); Stats counts
// those recompiles. Concurrent evals that find the artifact stale share
// one recompile, and each waits for it only as long as its own context
// allows.
type Template struct {
	e      *Engine
	opts   Options
	mods   []history.Modification
	shared *batchShared // session caches, also for recompiles (an engine-level template's own session's)

	// art is the current artifact; everything an eval reads hangs off
	// it. builds compiles the next one once however many askers find art
	// stale: it is keyed by the version of the artifact being replaced
	// (-1 for the first) and keeps the latest compile.
	art        atomic.Pointer[templateArtifact]
	builds     *lru.Cache[int, *templateArtifact]
	evals      atomic.Int64
	recompiles atomic.Int64
	sliced     atomic.Int64
	unsliced   atomic.Int64
	built      atomic.Int64 // unsliced pairs built on first use
	reports    routeCounters
}

// paramClass is the inferred value class of one parameter slot.
type paramClass uint8

const (
	classAny     paramClass = iota // never constrained: any value binds
	classNumeric                   // int or float
	classString
	classBool
)

func (c paramClass) String() string {
	switch c {
	case classNumeric:
		return "numeric"
	case classString:
		return "string"
	case classBool:
		return "bool"
	}
	return "any"
}

// kind maps the class onto the solver kind of the free slot variable.
func (c paramClass) kind() types.Kind {
	switch c {
	case classString:
		return types.KindString
	case classBool:
		return types.KindBool
	}
	// Numeric and unconstrained slots relax to the float box, which
	// contains every dictionary code and every workload numeric.
	return types.KindFloat
}

func classOf(k types.Kind) paramClass {
	switch k {
	case types.KindInt, types.KindFloat:
		return classNumeric
	case types.KindString:
		return classString
	case types.KindBool:
		return classBool
	}
	return classAny
}

// templateArtifact is one compiled instance of the template, valid for
// exactly one history version.
type templateArtifact struct {
	version int                   // history length the artifact answers against
	db      *storage.Database     // pinned snapshot at the first modified position
	dbVer   int                   // db's own history version
	params  map[string]paramClass // $slots and their inferred classes
	static  delta.Set             // param-free relations: their delta, precomputed
	rels    []templateRel         // param-dependent relations
	stats   TemplateStats
}

// templateRel is one relation whose modified side depends on the
// binding.
type templateRel struct {
	rel string
	// whole is the relation's unsliced pair, built at compile time when
	// the relation has one plan; nil when it has two.
	whole *unslicedPair
	// slice is the relation's sliced pair when a slicing filter of its
	// original side carries a $slot. Each binding then runs whichever
	// pair reenacts fewer base rows, and the unsliced one is built on
	// first use (Template.whole).
	slice *slicedPair
}

// unslicedPair is a relation's reenactment pair without slicing filters
// on $slots. orig is the original-side result, materialized once and
// diffed against every binding's modified side. Like every reenactment
// result in core it is a columnar view: the artifact pins lanes, not
// tuples, and a binding boxes only the rows its delta touches.
type unslicedPair struct {
	orig *storage.ColumnarView
	mod  boundQuery // the modified side, $slots open
}

// buildUnsliced materializes r's original side over db and compiles its
// modified side for binding-time runs.
func buildUnsliced(ev evaluator, r *relPlan, db *storage.Database) (*unslicedPair, error) {
	orig, err := ev.eval(r.orig, db)
	if err != nil {
		return nil, err
	}
	return &unslicedPair{orig: orig, mod: bindQuery(ev, r.mod, db)}, nil
}

// boundQuery is a query skeleton with its $slots open, and its program,
// compiled once with the slots as run-time parameters: each binding
// runs the program under its values. prog is nil when the executor is
// the interpreter, the oracle, or the skeleton is outside the
// compilable subset; each binding then substitutes its constants into q
// and interprets that (evaluator.interpret counts the fallback).
type boundQuery struct {
	q    algebra.Query
	prog *exec.Program
}

// bindQuery compiles q over db for binding-time runs.
func bindQuery(ev evaluator, q algebra.Query, db *storage.Database) boundQuery {
	return boundQuery{q: q, prog: ev.program(q, db, "")}
}

// view answers the query for binding as a columnar view.
func (bq boundQuery) view(ev evaluator, db *storage.Database, binding map[string]types.Value) (*storage.ColumnarView, error) {
	if bq.prog != nil {
		return bq.prog.RunColumnarParamsCtx(ev.evalCtx(), db, binding)
	}
	return ev.interpretView(algebra.SubstParams(bq.q, binding), db)
}

// eval answers the relation tr for one binding over its sliced pair
// (sliced requires tr.slice) or its unsliced one.
func (t *Template) eval(ev evaluator, db *storage.Database, tr *templateRel, binding map[string]types.Value, sliced bool) (*delta.Result, delta.Work, error) {
	var orig *storage.ColumnarView
	var modSide boundQuery
	if sliced {
		var err error
		if orig, err = tr.slice.orig.view(ev, db, binding); err != nil {
			return nil, delta.Work{}, err
		}
		modSide = tr.slice.mod
	} else {
		whole, err := t.whole(ev, db, tr)
		if err != nil {
			return nil, delta.Work{}, err
		}
		orig, modSide = whole.orig, whole.mod
	}
	mod, err := modSide.view(ev, db, binding)
	if err != nil {
		return nil, delta.Work{}, err
	}
	d, work := delta.ComputeColumnar(orig, mod)
	return d, work, nil
}

// whole returns tr's unsliced pair. A relation with a sliced pair
// builds it on first use, under the asking binding's context, through
// one single flight (lru.Cache.Do): concurrent bindings build it once,
// a build cut short by its builder's cancellation caches nothing and is
// redone by a live waiter, and a failed build is not kept — its error
// is the binding's, and the next binding builds again.
func (t *Template) whole(ev evaluator, db *storage.Database, tr *templateRel) (*unslicedPair, error) {
	if tr.slice == nil {
		return tr.whole, nil
	}
	return tr.slice.wholes.Do(ev.evalCtx(), 0, func() (*unslicedPair, error) {
		whole, err := buildUnsliced(ev, tr.slice.plain, db)
		if err == nil {
			t.built.Add(1)
			t.shared.work.built.Add(1)
		}
		return whole, err
	})
}

// slicedPair is a relation's data-sliced query pair with both sides'
// $slots open, and the counts of the filtered scans it reads. plain is
// the relation's plan without the filters; wholes builds its unsliced
// pair once, when a binding first needs it, and keeps it for the
// artifact's life.
type slicedPair struct {
	orig, mod boundQuery
	counts    []sliceCount
	plain     *relPlan
	wholes    *lru.Cache[int, *unslicedPair]
}

// sliceCount counts one filtered scan's two slices: h and m are
// COUNT(*) over σ_f(R) for the original and the modified side's filter
// f, $slots open, nil for a side that scans R unfiltered; m is h when
// the two filters are equal. rows is |R| in the pinned snapshot.
type sliceCount struct {
	h, m *boundQuery
	rows int
}

// compileSlicedPair compiles r's sliced pair and its slice counts over
// db; its unsliced pair is left to the first binding that needs it.
func compileSlicedPair(ev evaluator, r relPlan, db *storage.Database) *slicedPair {
	s := &slicedPair{orig: bindQuery(ev, r.orig, db), mod: bindQuery(ev, r.mod, db),
		plain: r.unsliced, wholes: lru.New[int, *unslicedPair](1)}
	count := func(rel string, filter expr.Expr) *boundQuery {
		if filter == nil {
			return nil
		}
		q := bindQuery(ev, &algebra.Aggregate{
			Aggs: []algebra.AggExpr{{Name: "n", Fn: algebra.AggCount}},
			In:   &algebra.Select{Cond: filter, In: &algebra.Scan{Rel: rel}},
		}, db)
		return &q
	}
	for _, f := range r.filters {
		c := sliceCount{h: count(f.rel, f.h), rows: f.rows}
		c.m = c.h
		if !expr.Equal(f.h, f.m) {
			c.m = count(f.rel, f.m)
		}
		s.counts = append(s.counts, c)
	}
	return s
}

// pays reports whether the sliced pair is the cheaper plan for binding:
// whether its two sides reenact fewer base rows than the unsliced
// pair's modified side, |S_H| + |S_M| + B ≤ |R| summed over the
// filtered scans. B, one executor batch, charges the sliced pair for
// its second pass over R: each side filters every row of R before it
// reenacts its slice, where the unsliced pair reads R once. Measured on
// the 8 000-row, 100-statement template of BenchmarkTemplateEval, the
// two plans cost the same at |S_H| + |S_M| ≈ |R| − 900. A relation
// smaller than a batch therefore never slices (and is not counted).
// Each filter is counted under the binding with its compiled COUNT(*)
// over σ_f(R) on the pinned snapshot — one fused, filtered pass over
// the relation's shared columnar view — equal filters on the two sides
// are counted once, and counting stops once the slices outgrow the
// relation. A filter that fails to evaluate cannot slice: the unsliced
// pair then runs and reports its own error, if it has one.
func (s *slicedPair) pays(ev evaluator, db *storage.Database, binding map[string]types.Value) (bool, error) {
	budget := -exec.DefaultBatchSize
	for _, c := range s.counts {
		budget += c.rows
	}
	for _, c := range s.counts {
		if budget < 0 {
			return false, nil
		}
		h, err := c.count(ev, db, c.h, binding)
		m := h
		if err == nil && c.m != c.h {
			m, err = c.count(ev, db, c.m, binding)
		}
		if err != nil {
			return false, ev.evalCtx().Err()
		}
		budget -= h + m
	}
	return budget >= 0, nil
}

// count counts the rows of the scanned relation that side, one of c's
// counts, keeps under binding (all of them, without a filter).
func (c sliceCount) count(ev evaluator, db *storage.Database, side *boundQuery, binding map[string]types.Value) (int, error) {
	if side == nil {
		return c.rows, nil
	}
	res, err := side.view(ev, db, binding)
	if err != nil {
		return 0, err
	}
	return int(res.Cols[0].Value(0).AsInt()), nil
}

// TemplateStats describes one compiled artifact plus the template's
// lifetime counters.
type TemplateStats struct {
	// Version is the history version the current artifact is compiled
	// against; CompileTime is that compilation's wall-clock cost (the
	// cost each Eval amortizes away).
	Version     int
	CompileTime time.Duration
	// TotalStatements and KeptStatements mirror Stats: suffix length
	// and post-slicing retained positions (summed over relations).
	TotalStatements int
	KeptStatements  int
	// The solver outcome partitions over the kept statements:
	// BindingIndependent statements were retained by tests free of any
	// $slot (they would be kept under every binding for structural
	// reasons); BindingDependent statements' tests involved an open
	// slot, so they are retained conservatively for all bindings.
	BindingIndependent int
	BindingDependent   int
	// SolverTests/SolverNodes report the one-time slicing effort.
	SolverTests int
	SolverNodes int
	// DataSlicing reports whether the artifact was compiled with data
	// slicing filters in its reenactment plans (Options.DataSlicing),
	// wherever its $slots sit: a filter that carries a slot is
	// evaluated under each binding.
	DataSlicing bool
	// StaticRelations' deltas are fully precomputed;
	// DynamicRelations are re-evaluated per binding;
	// SkippedRelations were pruned by taint analysis.
	StaticRelations  []string
	DynamicRelations []string
	SkippedRelations []string
	// Evals counts bindings answered; Recompiles counts artifact
	// rebuilds triggered by history advances.
	Evals      int64
	Recompiles int64
	// SlicedEvals/UnslicedEvals count, per binding and per relation with
	// two plans (a slicing filter of its original side carries a $slot),
	// which plan ran: the sliced pair, whose slices together were no
	// larger than the relation, or the unsliced one. UnslicedBuilds
	// counts the unsliced pairs such relations built on first use: at
	// most one per relation and artifact, none while every binding
	// slices.
	SlicedEvals, UnslicedEvals int64
	UnslicedBuilds             int64
	// Reports counts the aggregate reports the template's evals attached,
	// by route (merged or patched, by reason).
	Reports ReportRoutes
}

// CompileTemplate compiles a parameterized modification sequence into a
// reusable template (see Template). The modifications carry $name
// parameter slots in their statement expressions; statements without
// slots are allowed (a slot-free template degenerates to a cached
// WhatIf). Compilation fails if a parameter is used with conflicting
// value classes (e.g. compared against a string here and added to a
// number there).
func (e *Engine) CompileTemplate(mods []history.Modification, opts Options) (*Template, error) {
	return e.CompileTemplateCtx(context.Background(), mods, opts)
}

// CompileTemplateCtx is CompileTemplate under a context (the initial
// artifact compilation observes ctx inside the solver and executors).
// The template is compiled through a session opened for the call and
// keeps that session's caches for its recompiles.
func (e *Engine) CompileTemplateCtx(ctx context.Context, mods []history.Modification, opts Options) (*Template, error) {
	return e.NewSession().CompileTemplateCtx(ctx, mods, opts)
}

// compileTemplate returns the compiled template for mods, through
// shared's template cache. The cache builds once per key
// (lru.Cache.Do), so N concurrent identical submissions (every client
// re-posting its template after an append) run the slicing solve once,
// a submitter whose builder was cancelled compiles under its own ctx,
// and a failed compile leaves nothing behind.
func (e *Engine) compileTemplate(ctx context.Context, mods []history.Modification, opts Options, shared *batchShared) (*Template, error) {
	if len(mods) == 0 {
		return nil, fmt.Errorf("core: empty template modification sequence")
	}
	compile := func() (*Template, error) {
		t := &Template{e: e, opts: opts, mods: mods, shared: shared, builds: lru.New[int, *templateArtifact](1)}
		if _, err := t.artifact(ctx); err != nil {
			return nil, err
		}
		return t, nil
	}
	return shared.templates.Do(ctx, templateKey(e.Version(), mods, opts), compile)
}

// Params returns the template's parameter slots and their inferred
// value classes ("numeric", "string", "bool", or "any").
func (t *Template) Params() map[string]string {
	params := t.art.Load().params
	out := make(map[string]string, len(params))
	for name, c := range params {
		out[name] = c.String()
	}
	return out
}

// Stats snapshots the current artifact's compilation profile and the
// template's lifetime counters.
func (t *Template) Stats() TemplateStats {
	st := t.art.Load().stats
	st.Evals = t.evals.Load()
	st.Recompiles = t.recompiles.Load()
	st.SlicedEvals, st.UnslicedEvals = t.sliced.Load(), t.unsliced.Load()
	st.UnslicedBuilds = t.built.Load()
	st.Reports = t.reports.load()
	return st
}

// Version returns the history version the current artifact answers
// against.
func (t *Template) Version() int { return t.art.Load().version }

// artifact returns the current artifact, transparently recompiling when
// the engine's history has advanced past the artifact's version.
func (t *Template) artifact(ctx context.Context) (*templateArtifact, error) {
	old, stale := t.art.Load(), -1
	if old != nil {
		if old.version == t.e.Version() {
			return old, nil
		}
		stale = old.version
	}
	return t.builds.Do(ctx, stale, func() (*templateArtifact, error) {
		art, err := t.compile(ctx)
		if err != nil {
			return nil, err
		}
		if old != nil {
			t.recompiles.Add(1)
			t.shared.work.recompiles.Add(1)
		}
		t.art.Store(art)
		return art, nil
	})
}

// compile builds one artifact against the engine's current history: the
// same plan a what-if runs, with the original sides executed once and
// the modified sides either executed too (closed ⇒ the relation's delta
// is static) or compiled with their $slots open for Eval to run under
// each binding. A relation with two plans gets its sliced pair here and
// its unsliced pair from the first binding that runs it.
func (t *Template) compile(ctx context.Context) (*templateArtifact, error) {
	start := time.Now()
	pair, tip, err := t.e.align(t.mods)
	if err != nil {
		return nil, err
	}
	p, err := t.e.plan(ctx, pair, tip, t.opts, t.shared)
	if err != nil {
		return nil, err
	}
	art := &templateArtifact{version: tip, db: p.db, dbVer: p.ver, params: p.params, static: delta.Set{}}
	art.stats = TemplateStats{
		Version:            tip,
		TotalStatements:    p.stats.TotalStatements,
		KeptStatements:     p.stats.KeptStatements,
		BindingIndependent: p.stats.KeptStatements - p.bindingDependent,
		BindingDependent:   p.bindingDependent,
		SolverTests:        p.stats.SolverTests,
		SolverNodes:        p.stats.SolverNodes,
		DataSlicing:        t.opts.DataSlicing,
		SkippedRelations:   p.stats.SkippedRelations,
	}
	// No result cache: the materialized sides live as long as the
	// artifact pins them, not as long as a session's LRU says.
	ev := t.e.newEvaluator(ctx, t.opts, p.ver, nil)
	for _, r := range p.rels {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if r.unsliced != nil {
			// Both sliced sides depend on the binding: keep both pairs,
			// the unsliced one to be built on first use.
			art.rels = append(art.rels, templateRel{rel: r.rel, slice: compileSlicedPair(ev, r, p.db)})
			art.stats.DynamicRelations = append(art.stats.DynamicRelations, r.rel)
			continue
		}
		if len(algebra.Params(r.mod)) > 0 {
			whole, err := buildUnsliced(ev, &r, p.db)
			if err != nil {
				return nil, err
			}
			art.rels = append(art.rels, templateRel{rel: r.rel, whole: whole})
			art.stats.DynamicRelations = append(art.stats.DynamicRelations, r.rel)
			continue
		}
		orig, err := ev.eval(r.orig, p.db)
		if err != nil {
			return nil, err
		}
		mod, err := ev.eval(r.mod, p.db)
		if err != nil {
			return nil, err
		}
		art.static[r.rel], _ = delta.ComputeColumnar(orig, mod)
		art.stats.StaticRelations = append(art.stats.StaticRelations, r.rel)
	}
	art.stats.CompileTime = time.Since(start)
	return art, nil
}

// Eval answers the template for one parameter binding (see EvalCtx).
func (t *Template) Eval(binding map[string]types.Value) (delta.Set, error) {
	return t.EvalCtx(context.Background(), binding)
}

// EvalCtx answers the template for one parameter binding: every $name
// slot is replaced by binding[name] and the resulting delta is exactly
// what a fresh WhatIf over the substituted modifications would return
// (byte-identical, pinned by the differential tests). The binding must
// cover the template's parameters exactly, with values matching the
// inferred classes (NULL always binds); mismatches return an error
// without evaluating. If the history advanced since the artifact was
// compiled, the artifact is recompiled first, transparently.
func (t *Template) EvalCtx(ctx context.Context, binding map[string]types.Value) (delta.Set, error) {
	d, _, err := t.EvalAggregatesCtx(ctx, binding, nil)
	return d, err
}

// evalArtifact answers one binding, and the aggregate queries attached
// to it, against a specific artifact: delta and reports share the
// artifact's frame even if an append lands in between.
func (t *Template) evalArtifact(ctx context.Context, art *templateArtifact, binding map[string]types.Value, queries []AggregateQuery) (delta.Set, []AggregateReport, error) {
	if err := art.validate(binding); err != nil {
		return nil, nil, err
	}
	t.evals.Add(1)

	out := make(delta.Set, len(art.static)+len(art.rels))
	for rel, d := range art.static {
		out[rel] = d // shared read-only, like every cached engine artifact
	}
	// No result cache: a binding's modified side is its own query, and
	// caching each would retain one relation per binding ever asked.
	ev := t.e.newEvaluator(ctx, t.opts, art.dbVer, nil)
	for i := range art.rels {
		tr := &art.rels[i]
		if err := ctx.Err(); err != nil {
			return nil, nil, err
		}
		sliced := false
		if tr.slice != nil {
			var err error
			if sliced, err = tr.slice.pays(ev, art.db, binding); err != nil {
				return nil, nil, err
			}
			if sliced {
				t.sliced.Add(1)
			} else {
				t.unsliced.Add(1)
			}
			t.shared.countPlan(sliced)
		}
		d, work, err := t.eval(ev, art.db, tr, binding, sliced)
		if err != nil {
			return nil, nil, err
		}
		out[tr.rel] = d
		t.shared.countDelta(work)
	}
	reps, routes, err := t.e.tipReports(ctx, queries, out, art.version, t.opts, t.shared)
	t.reports.add(&routes)
	if err != nil {
		return nil, nil, err
	}
	return out, reps, nil
}

// TemplateEvalResult is the outcome of one binding in a batch eval.
type TemplateEvalResult struct {
	// Binding is the index into the submitted slice.
	Binding int
	// Delta is the substituted scenario's delta (nil when Err != nil).
	Delta delta.Set
	// Err is the binding's evaluation error, if any.
	Err error
}

// EvalBatch evaluates many bindings concurrently (see EvalBatchCtx).
func (t *Template) EvalBatch(bindings []map[string]types.Value, workers int) ([]TemplateEvalResult, error) {
	return t.EvalBatchCtx(context.Background(), bindings, workers)
}

// EvalBatchCtx evaluates many bindings over a worker pool (workers <= 0
// uses GOMAXPROCS). Results keep submission order; a failing binding
// never aborts its siblings. The returned error reports batch-level
// misuse (no bindings) or context cancellation.
func (t *Template) EvalBatchCtx(ctx context.Context, bindings []map[string]types.Value, workers int) ([]TemplateEvalResult, error) {
	res, err := t.EvalAggregatesBatchCtx(ctx, bindings, nil, workers)
	if res == nil {
		return nil, err
	}
	out := make([]TemplateEvalResult, len(res))
	for i, r := range res {
		out[i] = TemplateEvalResult{Binding: r.Binding, Delta: r.Delta, Err: r.Err}
	}
	return out, err
}

// ValidateBinding checks a binding against the template's parameters
// without evaluating: the names must match exactly (no missing, no
// extra) and each value must fit its slot's inferred class. NULL binds
// any slot.
func (t *Template) ValidateBinding(binding map[string]types.Value) error {
	return t.art.Load().validate(binding)
}

func (art *templateArtifact) validate(binding map[string]types.Value) error {
	for name, class := range art.params {
		v, ok := binding[name]
		if !ok {
			return fmt.Errorf("core: binding is missing parameter $%s", name)
		}
		if v.IsNull() {
			continue
		}
		mismatch := false
		switch class {
		case classNumeric:
			mismatch = !v.IsNumeric()
		case classString:
			mismatch = v.Kind() != types.KindString
		case classBool:
			mismatch = v.Kind() != types.KindBool
		}
		if mismatch {
			return fmt.Errorf("core: parameter $%s wants a %s value, got %s (%s)", name, class, v.Kind(), v)
		}
	}
	for name := range binding {
		if _, ok := art.params[name]; !ok {
			return fmt.Errorf("core: binding names unknown parameter $%s", name)
		}
	}
	return nil
}

// SubstitutedMods returns the template's modification sequence with the
// binding's constants substituted — the exact input an equivalent fresh
// WhatIf would take (the differential anchor, also used by benchmarks).
func (t *Template) SubstitutedMods(binding map[string]types.Value) []history.Modification {
	out := make([]history.Modification, len(t.mods))
	for i, m := range t.mods {
		out[i] = history.SubstModParams(m, binding)
	}
	return out
}

// Parameter inference ---------------------------------------------------------

// inferParams collects every $slot in the pair and infers its value
// class from context: comparison against a column or constant adopts
// that operand's class, arithmetic forces numeric, SET col = $p adopts
// the column's class, a bare $p in condition position is boolean.
// Conflicting uses (numeric here, string there) fail compilation;
// unconstrained slots stay classAny and accept any binding. Parameters
// in the original history are rejected (applied statements are always
// closed).
func inferParams(pair *history.PaddedPair, db *storage.Database) (map[string]paramClass, error) {
	for _, st := range pair.Orig {
		if ps := history.Params(st); len(ps) > 0 {
			return nil, fmt.Errorf("core: original history statement %q carries template parameters", st)
		}
	}
	in := &inferrer{params: map[string]paramClass{}}
	for _, st := range pair.Mod {
		if err := in.statement(st, db); err != nil {
			return nil, err
		}
	}
	return in.params, nil
}

type inferrer struct {
	params map[string]paramClass
}

// note records one observed use of a parameter, unifying with earlier
// observations (classAny unifies with anything).
func (in *inferrer) note(name string, c paramClass) error {
	old, seen := in.params[name]
	if !seen || old == classAny {
		in.params[name] = c
		return nil
	}
	if c != classAny && c != old {
		return fmt.Errorf("core: parameter $%s used as both %s and %s", name, old, c)
	}
	return nil
}

// colKind resolves a column's kind from a schema (classAny when the
// column is unknown — validation elsewhere reports that properly).
func colKind(s *schema.Schema) func(string) paramClass {
	return func(name string) paramClass {
		if idx := s.ColIndex(name); idx >= 0 {
			return classOf(s.Columns[idx].Type)
		}
		return classAny
	}
}

func (in *inferrer) statement(st history.Statement, db *storage.Database) error {
	switch x := st.(type) {
	case *history.Update:
		rel, err := db.Relation(x.Rel)
		if err != nil {
			return err
		}
		kindOf := colKind(rel.Schema)
		for _, sc := range x.Set {
			want := kindOf(sc.Col)
			if err := in.val(sc.E, want, kindOf); err != nil {
				return err
			}
		}
		return in.cond(x.Where, kindOf)
	case *history.Delete:
		rel, err := db.Relation(x.Rel)
		if err != nil {
			return err
		}
		return in.cond(x.Where, colKind(rel.Schema))
	case *history.InsertQuery:
		return in.query(x.Query, db)
	}
	return nil
}

// query infers across an INSERT…SELECT source query. Column kinds
// resolve against the query's base relations (first match; reenactment
// schemas use distinct column names per relation).
func (in *inferrer) query(q algebra.Query, db *storage.Database) error {
	var schemas []*schema.Schema
	for rel := range algebra.BaseRelations(q) {
		if r, err := db.Relation(rel); err == nil {
			schemas = append(schemas, r.Schema)
		}
	}
	kindOf := func(name string) paramClass {
		for _, s := range schemas {
			if idx := s.ColIndex(name); idx >= 0 {
				return classOf(s.Columns[idx].Type)
			}
		}
		return classAny
	}
	var walk func(q algebra.Query) error
	walk = func(q algebra.Query) error {
		switch x := q.(type) {
		case *algebra.Select:
			if err := in.cond(x.Cond, kindOf); err != nil {
				return err
			}
			return walk(x.In)
		case *algebra.Project:
			for _, ne := range x.Exprs {
				if err := in.val(ne.E, classAny, kindOf); err != nil {
					return err
				}
			}
			return walk(x.In)
		case *algebra.Union:
			if err := walk(x.L); err != nil {
				return err
			}
			return walk(x.R)
		case *algebra.Difference:
			if err := walk(x.L); err != nil {
				return err
			}
			return walk(x.R)
		case *algebra.Join:
			if err := in.cond(x.Cond, kindOf); err != nil {
				return err
			}
			if err := walk(x.L); err != nil {
				return err
			}
			return walk(x.R)
		case *algebra.Aggregate:
			for _, ne := range x.GroupBy {
				if err := in.val(ne.E, classAny, kindOf); err != nil {
					return err
				}
			}
			for _, a := range x.Aggs {
				if a.Arg == nil {
					continue
				}
				want := classAny
				if a.Fn == algebra.AggSum || a.Fn == algebra.AggAvg {
					want = classNumeric
				}
				if err := in.val(a.Arg, want, kindOf); err != nil {
					return err
				}
			}
			return walk(x.In)
		}
		return nil
	}
	return walk(q)
}

// cond infers through an expression in condition (boolean) position.
func (in *inferrer) cond(e expr.Expr, kindOf func(string) paramClass) error {
	switch x := e.(type) {
	case *expr.Param:
		return in.note(x.Name, classBool)
	case *expr.And:
		if err := in.cond(x.L, kindOf); err != nil {
			return err
		}
		return in.cond(x.R, kindOf)
	case *expr.Or:
		if err := in.cond(x.L, kindOf); err != nil {
			return err
		}
		return in.cond(x.R, kindOf)
	case *expr.Not:
		return in.cond(x.E, kindOf)
	case *expr.Cmp:
		lc := in.operandClass(x.L, kindOf)
		rc := in.operandClass(x.R, kindOf)
		if err := in.val(x.L, rc, kindOf); err != nil {
			return err
		}
		return in.val(x.R, lc, kindOf)
	case *expr.IsNull:
		return in.val(x.E, classAny, kindOf)
	case *expr.If:
		if err := in.cond(x.Cond, kindOf); err != nil {
			return err
		}
		if err := in.cond(x.Then, kindOf); err != nil {
			return err
		}
		return in.cond(x.Else, kindOf)
	}
	return nil
}

// val infers through an expression in value position, with the class
// the surrounding context wants for a bare parameter.
func (in *inferrer) val(e expr.Expr, want paramClass, kindOf func(string) paramClass) error {
	switch x := e.(type) {
	case *expr.Param:
		return in.note(x.Name, want)
	case *expr.Arith:
		if err := in.val(x.L, classNumeric, kindOf); err != nil {
			return err
		}
		return in.val(x.R, classNumeric, kindOf)
	case *expr.If:
		if err := in.cond(x.Cond, kindOf); err != nil {
			return err
		}
		if err := in.val(x.Then, want, kindOf); err != nil {
			return err
		}
		return in.val(x.Else, want, kindOf)
	case *expr.Cmp, *expr.And, *expr.Or, *expr.Not, *expr.IsNull:
		return in.cond(e, kindOf)
	}
	return nil
}

// operandClass is the value class an expression contributes as a
// comparison operand (used to type the opposite side's parameter).
func (in *inferrer) operandClass(e expr.Expr, kindOf func(string) paramClass) paramClass {
	switch x := e.(type) {
	case *expr.Const:
		return classOf(x.V.Kind())
	case *expr.Col:
		return kindOf(x.Name)
	case *expr.Arith:
		return classNumeric
	case *expr.If:
		if c := in.operandClass(x.Then, kindOf); c != classAny {
			return c
		}
		return in.operandClass(x.Else, kindOf)
	case *expr.Cmp, *expr.And, *expr.Or, *expr.Not, *expr.IsNull:
		return classBool
	}
	return classAny
}

// Session integration ---------------------------------------------------------

// CompileTemplate compiles (or returns a cached) template through the
// session (see CompileTemplateCtx).
func (s *Session) CompileTemplate(mods []history.Modification, opts Options) (*Template, error) {
	return s.CompileTemplateCtx(context.Background(), mods, opts)
}

// CompileTemplateCtx is Session.CompileTemplate under a context. The
// session owns an LRU template cache keyed by the constant-abstracted
// canonical fingerprint of the modification sequence ($slots stay
// symbolic; baked-in constants distinguish) prefixed with the history
// version, so re-submitting the same template after an append compiles
// a fresh artifact while in-version resubmissions are free. Compiled
// templates draw their snapshot and solver memo from the session's
// caches, including on transparent recompiles.
func (s *Session) CompileTemplateCtx(ctx context.Context, mods []history.Modification, opts Options) (*Template, error) {
	return s.e.compileTemplate(ctx, mods, opts, s.shared())
}

// templateKey fingerprints a template for the session cache: the
// history version, the option knobs that change the compiled artifact,
// and the canonical constant-abstracted fingerprint of every
// modification (tagged statement structure via compile.FingerprintExpr,
// so a column and a variable of one name cannot conflate — the same
// property the solver memo key relies on).
func templateKey(version int, mods []history.Modification, opts Options) string {
	var b strings.Builder
	fmt.Fprintf(&b, "v%d|%s|ps=%t,ds=%t,vec=%+v|",
		version, normalizeExecutor(opts.Executor),
		opts.ProgramSlicing, opts.DataSlicing, opts.Vec)
	for _, m := range mods {
		switch x := m.(type) {
		case history.Replace:
			fmt.Fprintf(&b, "r%d:", x.Pos)
			stmtFingerprint(&b, x.Stmt)
		case history.InsertStmt:
			fmt.Fprintf(&b, "i%d:", x.Pos)
			stmtFingerprint(&b, x.Stmt)
		case history.DeleteStmt:
			fmt.Fprintf(&b, "d%d", x.Pos)
		default:
			fmt.Fprintf(&b, "?%T(%s)", m, m)
		}
		b.WriteByte(';')
	}
	return b.String()
}

func stmtFingerprint(b *strings.Builder, st history.Statement) {
	switch x := st.(type) {
	case *history.Update:
		fmt.Fprintf(b, "U(%s|", x.Rel)
		for _, sc := range x.Set {
			fmt.Fprintf(b, "%s=%s,", sc.Col, compile.FingerprintExpr(sc.E))
		}
		fmt.Fprintf(b, "|%s)", compile.FingerprintExpr(x.Where))
	case *history.Delete:
		fmt.Fprintf(b, "D(%s|%s)", x.Rel, compile.FingerprintExpr(x.Where))
	case *history.InsertValues:
		fmt.Fprintf(b, "IV(%s|", x.Rel)
		for _, row := range x.Rows {
			b.WriteString(row.Key())
			b.WriteByte(',')
		}
		b.WriteByte(')')
	case *history.InsertQuery:
		fmt.Fprintf(b, "IQ(%s|%s)", x.Rel, algebra.Fingerprint(x.Query))
	default:
		fmt.Fprintf(b, "?%T(%s)", st, st)
	}
}
