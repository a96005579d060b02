package core

import (
	"context"
	"fmt"
	"slices"
	"strings"
	"sync/atomic"
	"time"

	"github.com/mahif/mahif/internal/algebra"
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
//     no binding ever runs the solver. A slot free in a condition is
//     the weak spot: for some value of it every statement looks
//     dependent. A range template — one replaced UPDATE or DELETE
//     whose one slot is the bound of a top-level WHERE conjunct
//     col ⋈ $p, with the original's constant p0 in its place — is
//     therefore sliced at the two ends of its slot's range instead
//     (rangeSlot): each side of p0 keeps what the binding's own what-if
//     would keep and the statements the end of its side adds, and its
//     executed plan keeps the union of the two;
//   - a range template's rows (provisioning): when its suffix holds no
//     INSERT … SELECT, every row a binding changes has one of two
//     final versions, the original one and the one at its side's end,
//     so each side is reenacted once through its keep set, as a
//     constant what-if at its end, into a band table — the rows whose
//     two versions differ, sorted by the slot column (see provision.go)
//     — built by the side's first binding;
//   - the original-side reenactment: original histories never contain
//     parameters, so each relation's original-side result is
//     materialized once;
//   - relations whose modified side carries no parameter: their whole
//     delta is static and served as-is;
//   - the executor programs: every modified side a binding runs is
//     compiled once, with its $slots as run-time parameters
//     (exec.CompileVec).
//
// Per binding, a provisioned template binary-searches the band of rows
// between the original bound and the binding in its side's table and
// takes the band's bag difference, and its reports merge the table's
// prefix γ states with the historical ones, folding only the band's
// ends: no program runs. Every other binding — one off the order (NaN,
// 2^53 or more in magnitude), and every binding of a template outside
// that class (Stats().Provision says why) — runs the modified side's
// program with the binding as its parameter vector over the pinned
// snapshot, and diffs against the materialized original side, hashed
// once; nothing is substituted or compiled. Its reports merge the
// original side's state, framed against the tip and folded once, and
// the modified side's (see the provisioned route in report.go). That executed
// path is the band tables' oracle. Under the interpreter, the oracle,
// and for a query outside the compilable subset, the binding is
// substituted into the retained skeleton and interpreted instead.
// Data slicing (§6) is exact for every constant, so the filters keep
// their $slots: a slot in value position (an UPDATE's SET) can leak
// into a filter only through push-down, a slot in a condition
// (UPDATE/DELETE WHERE, INSERT … SELECT) lands in it directly. A slot
// may sit in a modified-side filter, which each binding's run reads; a
// relation whose original-side filter carries one is planned without
// filters, so that its original side, like every other, is
// binding-free and materialized once.
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
	// it, and the artifact that replaces it once the history moves on is
	// built once in its next cell, however many askers find it stale.
	art         atomic.Pointer[templateArtifact]
	evals       atomic.Int64
	sideEvals   [2]atomic.Int64 // a range template's bindings, by side
	fallbacks   atomic.Int64    // bindings on no side
	provisioned atomic.Int64    // side bindings a band table answered
	recompiles  atomic.Int64
	reports     routeCounters
	// reportFallbacks counts the reports of bindings whose artifact
	// states could not answer them, by reason.
	reportFallbacks fallbackCounters
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
	params  map[string]paramClass // $slots and their inferred classes
	// slot, set for a range template, picks each binding's side; when
	// band is set (a provisioned template), tables[s] answers the
	// bindings on side s, built by the side's first binding.
	slot   *rangeSlot
	band   *bandPlan
	tables [2]lru.Cell[*bandTable]
	// fallback, the executed plan, answers every binding no band table
	// answers. It is built from fallbackRels at compile, or, for a
	// provisioned template, by its first binding off the order.
	fallback     lru.Cell[*templateBody]
	fallbackRels []relPlan
	// next is the artifact compiled once the history moved past version.
	next  lru.Cell[*templateArtifact]
	stats TemplateStats
}

// templateBody is what one plan of an artifact answers a binding with.
type templateBody struct {
	static delta.Set     // param-free relations: their delta, precomputed
	rels   []templateRel // param-dependent relations
}

// buildBody runs rels' original sides over db, diffing each against
// its modified side when that has no $slot (evaluator.diff), and
// compiles the other modified sides for binding-time runs.
func buildBody(ev evaluator, rels []relPlan, db *storage.Database) (*templateBody, error) {
	b := &templateBody{static: delta.Set{}}
	for _, r := range rels {
		if err := ev.evalCtx().Err(); err != nil {
			return nil, err
		}
		if len(algebra.Params(r.mod)) == 0 {
			d, _, err := ev.diff(r, db, nil)
			if err != nil {
				return nil, err
			}
			b.static[r.rel] = d
			continue
		}
		orig, err := ev.runView(r.orig, db)
		if err != nil {
			return nil, err
		}
		b.rels = append(b.rels, templateRel{rel: r.rel, orig: orig, mod: bindQuery(ev, r.mod, db)})
	}
	return b, nil
}

// side is the side of art's range slot binding is on, -1 when it is not
// a range template's side.
func (art *templateArtifact) side(binding map[string]types.Value) int {
	if art.slot != nil {
		if side, ok := art.slot.side(binding); ok {
			return side
		}
	}
	return -1
}

// body is art's executed plan (fallback), built by its first caller. It
// is sound for every binding, and the band tables' oracle.
func (art *templateArtifact) body(ev evaluator) (*templateBody, error) {
	return art.fallback.Do(ev.evalCtx(), func() (*templateBody, error) {
		return buildBody(ev, art.fallbackRels, art.db)
	})
}

// templateRel is one relation whose modified side depends on the
// binding. orig is its original-side result, materialized once and
// diffed against every binding's modified side. Like every reenactment
// result in core it is a columnar view: the artifact pins lanes, not
// tuples, and a binding boxes only the rows its delta touches. The
// first binding hashes orig's rows (hashed), which every later one
// diffs against without hashing them again, and the first binding that
// reports frames them against the tip (framed).
type templateRel struct {
	rel    string
	orig   *storage.ColumnarView
	mod    boundQuery // the modified side, $slots open
	hashed lru.Cell[*delta.HashedView]
	framed lru.Cell[*origFrame]
}

// origFrame is a templateRel's original side as its bindings' reports
// read it: tip[r] is the tip's tuple that orig row r is, cell for cell
// and bit for bit, when every sub-bag of orig's rows fits the tip with
// its own rows as the ones it removes (frame; nil when they do not), so
// a binding's Minus shares those tuples and is its own frame; and the
// states of orig's rows, one per report query by fingerprint, folded by
// the first report that asks (nil in the cache when the fold failed).
type origFrame struct {
	tip    []schema.Tuple
	states *lru.Cache[string, *algebra.GroupState]
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
	return boundQuery{q: q, prog: ev.program(q, db)}
}

// view answers the query for binding as a columnar view.
func (bq boundQuery) view(ev evaluator, db *storage.Database, binding map[string]types.Value) (*storage.ColumnarView, error) {
	if bq.prog != nil {
		return bq.prog.RunColumnarParamsCtx(ev.evalCtx(), db, binding)
	}
	return ev.interpretView(algebra.SubstParams(bq.q, binding), db)
}

// eval answers the relation tr for one binding: its delta, with its
// modified side and the original side's frame, if one is built — report
// asks for it to be built first.
func (tr *templateRel) eval(ev evaluator, art *templateArtifact, snaps *storage.SnapshotCache, binding map[string]types.Value, report bool) (planRel, delta.Work, error) {
	ctx := ev.evalCtx()
	p := planRel{tr: tr}
	hv, err := tr.hashed.Do(ctx, func() (*delta.HashedView, error) { return delta.NewHashedView(tr.orig), nil })
	if err != nil {
		return p, delta.Work{}, err
	}
	p.fr, _ = tr.framed.Load()
	if report && p.fr == nil {
		p.fr, err = tr.framed.Do(ctx, func() (*origFrame, error) {
			tip, err := snaps.TipSnapshotCtx(ctx, art.version)
			if err != nil {
				return nil, err
			}
			rel, err := tip.Relation(tr.rel)
			if err != nil {
				return nil, err
			}
			fr := &origFrame{states: lru.New[string, *algebra.GroupState](reportStates)}
			fr.tip, err = frame(rel, tr.orig)
			return fr, err
		})
		if err != nil {
			return p, delta.Work{}, err
		}
	}
	if p.mod, err = tr.mod.view(ev, art.db, binding); err != nil {
		return p, delta.Work{}, err
	}
	var tip []schema.Tuple
	if p.fr != nil {
		tip = p.fr.tip
	}
	var work delta.Work
	p.d, work = delta.ComputeHashed(hv, p.mod, tip)
	return p, work, nil
}

// planRel is one relation of an executed-plan binding: its original
// side and that side's frame (nil until a report asked for it), and the
// binding's modified side and delta.
type planRel struct {
	tr  *templateRel
	fr  *origFrame
	mod *storage.ColumnarView
	d   *delta.Result
}

// planReport provisions the reports of one executed-plan binding: its
// changed relations, by lower-cased name, every one framed.
type planReport map[string]planRel

// hypothetical merges the historical state with γ(original side),
// folded once, and γ(modified side) (modFold) where the modified side
// has fewer rows than the delta's Minus ∪ Plus; where it has not,
// mergedReport folds those, framed by the artifact, as the merged route
// does.
func (pr planReport) hypothetical(agg *algebra.Aggregate, h *historical, hist *storage.Database, rel string, ev evaluator) (*algebra.GroupState, reportFallback, error) {
	p := pr[rel]
	if p.mod.Rows >= p.d.Size() {
		return nil, whySmallerDelta, nil
	}
	return p.modFold(agg, h, hist, rel, ev)
}

// modFold is h − the original side's state + the modified side's, or
// nil and why that is not the merged route's state (the sides' lanes
// differ, a group is new) or a fold failed; its error is the context's.
func (p planRel) modFold(agg *algebra.Aggregate, h *historical, hist *storage.Database, rel string, ev evaluator) (*algebra.GroupState, reportFallback, error) {
	if !sameLanes(p.tr.orig, p.mod) {
		return nil, whyLanes, nil
	}
	orig, err := p.fr.states.Do(ev.evalCtx(), algebra.Fingerprint(agg), func() (*algebra.GroupState, error) {
		st, err := ev.foldRows(agg, h.prog, hist, rel, p.tr.orig, 0, p.tr.orig.Rows)
		if err != nil {
			return nil, ev.evalCtx().Err()
		}
		return st, nil
	})
	if orig == nil || err != nil {
		return nil, whyFold, err
	}
	mod, err := ev.foldRows(agg, h.prog, hist, rel, p.mod, 0, p.mod.Rows)
	if err != nil {
		return nil, whyFold, ev.evalCtx().Err()
	}
	hyp, err := mergeStates(h.state, signedState{orig, -1}, signedState{mod, 1})
	switch {
	case err != nil:
		return nil, whyFold, nil
	case newGroup(hyp, h.state):
		return nil, whyNewGroup, nil
	}
	return hyp, whyNone, nil
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
	// and post-slicing retained positions (summed over relations). A
	// provisioned template reports its larger side's count, any other
	// range template its executed plan's, over the union of its sides.
	TotalStatements int
	KeptStatements  int
	// The kept statements partition by whether they carry a $slot:
	// BindingIndependent ones are retained for structural reasons under
	// every binding; BindingDependent ones carry an open slot (of the
	// statements KeptStatements counts).
	BindingIndependent int
	BindingDependent   int
	// Sides describes a range template's two sides (see Template), the
	// FALSE end's first; nil for any other template, whose Fallback says
	// why it is not one.
	Sides    []TemplateSide
	Fallback string
	// Provision is "" for a provisioned template, whose side bindings a
	// band table per side answers, and otherwise says why it is not one
	// ("not a range template", "insert query in suffix", …).
	Provision string
	// SolverTests/SolverNodes report the one-time slicing effort (both
	// ends' runs for a range template).
	SolverTests int
	SolverNodes int
	// DataSlicing reports whether the artifact was compiled with data
	// slicing filters in its reenactment plans (Options.DataSlicing),
	// wherever its $slots sit: a modified-side filter that carries a
	// slot is evaluated under each binding, and a relation whose
	// original-side filter carries one is planned without filters.
	DataSlicing bool
	// StaticRelations' deltas are fully precomputed;
	// DynamicRelations are re-evaluated per binding;
	// SkippedRelations were pruned by taint analysis.
	StaticRelations  []string
	DynamicRelations []string
	SkippedRelations []string
	// Evals counts bindings answered; Recompiles counts artifact
	// rebuilds triggered by history advances. FallbackEvals counts the
	// bindings on no side: all of a template outside the range class,
	// and a range template's bindings off the order (NaN, 2^53 or more
	// in magnitude), which run the executed plan, over the union of both
	// sides' keep sets.
	Evals         int64
	Recompiles    int64
	FallbackEvals int64
	// ProvisionedEvals counts the side bindings a provisioned template
	// answered from its band tables: every binding of either side, NULL
	// included. They run no program and hash nothing.
	ProvisionedEvals int64
	// Reports counts the aggregate reports the template's evals attached,
	// by route (merged or patched, by reason); Reports.Provisioned those
	// merged from what the artifact fixed.
	Reports ReportRoutes
	// ReportFallbacks counts the other reports, by why the artifact's
	// states did not answer them: "min or max", "new group", "unframed",
	// "query shape", "mixed lanes" (the two versions on different
	// lanes), "fold error", or "smaller delta" (an executed-plan
	// binding whose Minus ∪ Plus, folded instead, has no more rows than
	// its modified side). nil when there are none.
	ReportFallbacks map[string]int64
}

// TemplateSide is one side of a range template's bound: the bindings
// Direction of Bound ("above" or "below"; the bound itself is on the
// FALSE end's side), the statements it keeps (Kept, of them
// BindingDependent carry the slot), which its band table reenacts, and
// the bindings on it (Evals): its band table answers them when the
// template is provisioned, the executed plan otherwise.
type TemplateSide struct {
	Bound            types.Value
	Direction        string
	Kept             int
	BindingDependent int
	Evals            int64
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

// compileTemplate compiles mods under ctx into a new template that
// plans through shared's snapshots and solver memo. A failed compile
// leaves nothing behind.
func (e *Engine) compileTemplate(ctx context.Context, mods []history.Modification, opts Options, shared *batchShared) (*Template, error) {
	if len(mods) == 0 {
		return nil, fmt.Errorf("core: empty template modification sequence")
	}
	t := &Template{e: e, opts: opts, mods: mods, shared: shared}
	art, err := t.compile(ctx)
	if err != nil {
		return nil, err
	}
	t.art.Store(art)
	return t, nil
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
	st.FallbackEvals = t.fallbacks.Load()
	st.ProvisionedEvals = t.provisioned.Load()
	st.Sides = slices.Clone(st.Sides)
	for i := range st.Sides {
		st.Sides[i].Evals = t.sideEvals[i].Load()
	}
	st.Reports = t.reports.load()
	st.ReportFallbacks = t.reportFallbacks.load()
	return st
}

// Version returns the history version the current artifact answers
// against.
func (t *Template) Version() int { return t.art.Load().version }

// artifact returns the current artifact, transparently recompiling when
// the engine's history has advanced past the artifact's version.
func (t *Template) artifact(ctx context.Context) (*templateArtifact, error) {
	old := t.art.Load()
	if old.version == t.e.Version() {
		return old, nil
	}
	return old.next.Do(ctx, func() (*templateArtifact, error) {
		art, err := t.compile(ctx)
		if err != nil {
			return nil, err
		}
		t.recompiles.Add(1)
		t.shared.work.recompiles.Add(1)
		t.art.Store(art)
		return art, nil
	})
}

// compile builds one artifact against the engine's current history: the
// same plan a what-if runs, with the original sides executed once and
// the modified sides either executed too (closed ⇒ the relation's delta
// is static) or compiled with their $slots open for Eval to run under
// each binding. A provisioned template builds neither here: its band
// tables are built by each side's first binding, and its executed plan,
// over the union of its two sides' keep sets, by the first binding off
// the order.
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
	art := &templateArtifact{version: tip, db: p.db, params: p.params, slot: p.slot, fallbackRels: p.rels}
	if p.provision == "" {
		art.band = &bandPlan{rel: p.rels[0].rel, slot: p.slot, ends: p.ends}
	}
	art.stats = TemplateStats{
		Version:          tip,
		TotalStatements:  p.stats.TotalStatements,
		Fallback:         p.fallback,
		Provision:        p.provision,
		SolverTests:      p.stats.SolverTests,
		SolverNodes:      p.stats.SolverNodes,
		DataSlicing:      t.opts.DataSlicing,
		SkippedRelations: p.stats.SkippedRelations,
	}
	// What runs keeps the union of a range template's two keep sets, or
	// a provisioned template's larger side.
	counted := p.keptCount
	if art.band != nil {
		counted = keptCount{}
	}
	if p.slot != nil {
		for side, c := range p.sides {
			art.stats.Sides = append(art.stats.Sides, TemplateSide{
				Bound: p.slot.bound, Direction: p.slot.direction(side),
				Kept: c.kept, BindingDependent: c.bindingDependent,
			})
			if art.band != nil && c.kept > counted.kept {
				counted = c
			}
		}
	}
	art.stats.KeptStatements = counted.kept
	art.stats.BindingDependent = counted.bindingDependent
	art.stats.BindingIndependent = counted.kept - counted.bindingDependent
	// The programs and materialized sides live as long as the artifact
	// pins them. A relation is dynamic if the executed plan re-evaluates
	// it per binding, or band tables answer it.
	var body *templateBody
	if art.band == nil {
		if body, err = art.body(t.evaluator(ctx)); err != nil {
			return nil, err
		}
	}
	for _, r := range p.rels {
		static := false
		if body != nil {
			_, static = body.static[r.rel]
		}
		if !static {
			art.stats.DynamicRelations = append(art.stats.DynamicRelations, r.rel)
		} else {
			art.stats.StaticRelations = append(art.stats.StaticRelations, r.rel)
		}
	}
	art.stats.CompileTime = time.Since(start)
	return art, nil
}

// evaluator is the evaluator of the template's runs. It counts the
// pairs it runs into the session's work, and no program: those an
// artifact holds count in neither QueryHits nor QueryMisses.
func (t *Template) evaluator(ctx context.Context) evaluator {
	ev := t.e.newEvaluator(ctx, t.opts)
	ev.pairs = &t.shared.work.pairs
	return ev
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

	// The artifact holds every program a binding runs, and a binding's
	// modified side is its own result: nothing to share through the
	// session.
	ev := t.evaluator(ctx)
	side := art.side(binding)
	if side >= 0 {
		t.sideEvals[side].Add(1)
		t.shared.work.sideEvals.Add(1)
		if art.band != nil {
			return t.evalBand(ctx, ev, art, side, binding, queries)
		}
	} else {
		t.fallbacks.Add(1)
		t.shared.work.fallbacks.Add(1)
	}
	body, err := art.body(ev)
	if err != nil {
		return nil, nil, err
	}
	out := make(delta.Set, len(body.static)+len(body.rels))
	// The binding's reports are provisioned (planReport) when every
	// changed relation is a dynamic one whose original side is framed.
	pr := planReport{}
	rf := &reportFrame{prov: pr, fallbacks: &t.reportFallbacks, bags: map[string]bags{}}
	for rel, d := range body.static {
		out[rel] = d // shared read-only, like every cached engine artifact
		if !d.Empty() {
			rf.bags = nil
		}
	}
	for i := range body.rels {
		tr := &body.rels[i]
		if err := ctx.Err(); err != nil {
			return nil, nil, err
		}
		p, work, err := tr.eval(ev, art, t.shared.snaps, binding, len(queries) > 0)
		if err != nil {
			return nil, nil, err
		}
		out[tr.rel] = p.d
		t.shared.countDelta(work)
		switch {
		case len(queries) == 0 || p.d.Empty() || rf.bags == nil:
		case p.fr == nil || p.fr.tip == nil:
			rf.bags = nil
		default:
			key := strings.ToLower(tr.rel)
			rf.bags[key] = bags{minus: p.d.Minus, plus: p.d.Plus}
			pr[key] = p
		}
	}
	if len(queries) == 0 {
		return out, nil, nil
	}
	reps, routes, err := t.e.tipReports(ctx, queries, out, art.version, t.opts, t.shared, rf)
	t.reports.add(&routes, rf.provisioned)
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

// CompileTemplate compiles a template through the session (see
// CompileTemplateCtx).
func (s *Session) CompileTemplate(mods []history.Modification, opts Options) (*Template, error) {
	return s.CompileTemplateCtx(context.Background(), mods, opts)
}

// CompileTemplateCtx is Session.CompileTemplate under a context. Every
// call compiles a new template, owned by its caller: the session keeps
// none, so two submissions of one modification sequence get two
// templates. A template draws its snapshots and solver outcomes from
// the session's caches, including on its recompiles after an append.
func (s *Session) CompileTemplateCtx(ctx context.Context, mods []history.Modification, opts Options) (*Template, error) {
	return s.e.compileTemplate(ctx, mods, opts, s.shared())
}
