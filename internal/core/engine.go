// Package core is the Mahif engine: it answers historical what-if
// queries H = (H, D, M) over a versioned database, either naively
// (Alg. 1: copy the past state, execute the modified history, diff) or
// by reenactment (Alg. 2) with the program slicing and data slicing
// optimizations, reporting per-phase timing statistics that mirror the
// breakdowns of the paper's evaluation (Figs. 15 and 16).
package core

import (
	"context"
	"fmt"
	"sync/atomic"
	"time"

	"github.com/mahif/mahif/internal/algebra"
	"github.com/mahif/mahif/internal/compile"
	"github.com/mahif/mahif/internal/dataslice"
	"github.com/mahif/mahif/internal/delta"
	"github.com/mahif/mahif/internal/exec"
	"github.com/mahif/mahif/internal/history"
	"github.com/mahif/mahif/internal/progslice"
	"github.com/mahif/mahif/internal/storage"
	"github.com/mahif/mahif/internal/symbolic"
)

// ExecutorKind selects the backend that evaluates reenactment queries.
type ExecutorKind string

// The available executors.
const (
	// ExecVectorized runs queries through the vectorized pipelined
	// executor (exec.CompileVec): operators exchange 1024-row
	// column-major batches with selection vectors, identity projection
	// columns pass through by reference, and large scans partition
	// across GOMAXPROCS workers behind an order-preserving merge. This
	// is the default (the zero value selects it too).
	ExecVectorized ExecutorKind = "vectorized"
	// ExecInterpreter runs queries through the tree-walking interpreter
	// (algebra.Eval). It is kept as the reference oracle: the
	// differential tests require it to agree with ExecVectorized on
	// every history.
	ExecInterpreter ExecutorKind = "interpreter"
)

// Options selects the algorithm variant and tuning knobs.
type Options struct {
	// ProgramSlicing enables §7–§9 (implies the insert split of §10).
	ProgramSlicing bool
	// DataSlicing enables §6.
	DataSlicing bool
	// UseDependency selects the §9 single-modification dependency test
	// instead of greedy slicing when exactly one statement is modified.
	UseDependency bool
	// InsertSplit applies the §10 split even without program slicing.
	InsertSplit bool
	// Compress configures database compression for program slicing.
	Compress symbolic.CompressOptions
	// Compile configures the MILP backend.
	Compile compile.Options
	// DataSlice configures the push-down analysis.
	DataSlice dataslice.Options
	// Executor picks the query evaluation backend: ExecVectorized (also
	// the zero value) or the ExecInterpreter oracle. Queries the
	// vectorized compiler cannot handle (e.g. symbolic variables)
	// transparently fall back to the interpreter, so the choice never
	// changes observable results — only speed.
	Executor ExecutorKind
	// Vec tunes the vectorized executor: batch size and scan
	// parallelism. Ignored by the interpreter.
	Vec exec.VecOptions
}

// DefaultOptions enables every optimization (the paper's R+PS+DS).
func DefaultOptions() Options {
	return Options{
		ProgramSlicing: true,
		DataSlicing:    true,
		UseDependency:  true,
		InsertSplit:    true,
		Executor:       ExecVectorized,
	}
}

// Variant names an algorithm configuration from the evaluation (§13.3).
type Variant string

// The compared methods.
const (
	VariantNaive Variant = "N"       // naive copy+execute+diff
	VariantR     Variant = "R"       // reenactment only
	VariantRPS   Variant = "R+PS"    // reenactment + program slicing
	VariantRDS   Variant = "R+DS"    // reenactment + data slicing
	VariantRFull Variant = "R+PS+DS" // both optimizations
)

// OptionsFor maps an evaluation variant to engine options. The §10
// insert split exists to enable program slicing, so the variants
// without PS (R, R+DS) run the plain whole-history reenactment the
// paper describes.
func OptionsFor(v Variant) Options {
	o := DefaultOptions()
	switch v {
	case VariantR:
		o.ProgramSlicing, o.DataSlicing, o.InsertSplit = false, false, false
	case VariantRPS:
		o.DataSlicing = false
	case VariantRDS:
		o.ProgramSlicing, o.InsertSplit = false, false
	case VariantRFull, VariantNaive:
	}
	return o
}

// Stats reports where time went while answering a query with Alg. 2.
type Stats struct {
	Total          time.Duration
	TimeTravel     time.Duration // reconstructing D before the first modified statement
	ProgramSlicing time.Duration
	DataSlicing    time.Duration
	Execute        time.Duration // evaluating the reenactment queries
	Delta          time.Duration

	// Slice quality.
	TotalStatements int
	KeptStatements  int
	SolverTests     int
	SolverNodes     int
	// SolverLowered counts the expression nodes program slicing lowered
	// into solver models (progslice.Stats.Lowered, summed): about
	// |Φ_D ∧ affected| plus what each test adds, not tests × formula.
	SolverLowered int

	// Delta work, in rows, summed over the answered relations: the two
	// reenactment results were compared lane-wise at RowsCompared
	// positions, and RowsBoxed rows (both sides together) did not cancel
	// there and were gathered into tuples — the delta itself plus rows
	// that cancel only across positions. RowsBoxed well below
	// RowsCompared is the normal case; close to it, the two sides are
	// misaligned and the delta costs a whole-relation multiset diff.
	RowsCompared int
	RowsBoxed    int

	// Per-relation slicing details.
	Slices map[string]progslice.Stats
	// SkippedRelations lists relations pruned by taint analysis.
	SkippedRelations []string
}

// NaiveStats is the Alg. 1 breakdown of Fig. 15.
type NaiveStats struct {
	Total    time.Duration
	Creation time.Duration // copying the past database state
	Execute  time.Duration // running H[M] over the copy
	Delta    time.Duration
}

// Appender is the durability hook of an engine: it commits statements
// to stable storage *before* they become visible in the in-memory
// history. internal/persist.Store implements it with a write-ahead
// log; the zero engine appends in memory only.
type Appender interface {
	// Append commits stmts in order and returns the resulting history
	// version. On error the statements before the failing one stay
	// committed and the returned version reflects them.
	Append(ctx context.Context, stmts []history.Statement) (int, error)
}

// DurableStore is what NewDurable needs from a persistence layer: the
// recovered versioned database plus the WAL-first append path.
type DurableStore interface {
	Appender
	Database() *storage.VersionedDatabase
}

// Engine answers historical what-if queries against one versioned
// database whose redo log is the transactional history H.
type Engine struct {
	vdb      *storage.VersionedDatabase
	appender Appender

	// fallbacks counts query evaluations that asked for a compiling
	// executor and ran through the tree-walking interpreter instead.
	fallbacks atomic.Int64
}

// New builds an engine over a versioned database. Appends go straight
// to memory; use NewDurable for a WAL-backed engine.
func New(vdb *storage.VersionedDatabase) *Engine { return &Engine{vdb: vdb} }

// NewDurable builds an engine over a durable store: every Append
// commits to the store's write-ahead log before it advances the
// in-memory history, so a restarted process recovers exactly the
// acknowledged statements.
func NewDurable(store DurableStore) *Engine {
	return &Engine{vdb: store.Database(), appender: store}
}

// Durable reports whether appends commit to stable storage before
// becoming visible.
func (e *Engine) Durable() bool { return e.appender != nil }

// Version returns the current history length.
func (e *Engine) Version() int { return e.vdb.NumVersions() }

// InterpreterFallbacks counts, over the engine's lifetime and all its
// sessions, the query evaluations that requested the vectorized
// executor but ran through the tree-walking interpreter because the
// query would not compile. The answer is the same — the
// interpreter is the reference semantics — but far slower, so a value
// above zero on the default path is a performance bug worth a look.
func (e *Engine) InterpreterFallbacks() int64 { return e.fallbacks.Load() }

// Append extends the history (see AppendCtx).
func (e *Engine) Append(stmts ...history.Statement) (int, error) {
	return e.AppendCtx(context.Background(), stmts)
}

// AppendCtx extends the transactional history with new statements
// while the engine keeps serving queries: in-flight and future
// evaluations over versions at or below the previous tip are
// unaffected (the history is append-only), and sessions keep their
// warm caches across the advance. On a durable engine the statements
// are committed to the WAL first — AppendCtx returning nil is the
// durability point. On error, statements before the failing one stay
// appended and the returned version reflects them.
func (e *Engine) AppendCtx(ctx context.Context, stmts []history.Statement) (int, error) {
	if len(stmts) == 0 {
		return e.vdb.NumVersions(), fmt.Errorf("core: empty append")
	}
	if err := ctx.Err(); err != nil {
		return e.vdb.NumVersions(), err
	}
	if e.appender != nil {
		return e.appender.Append(ctx, stmts)
	}
	ms := make([]storage.Mutator, len(stmts))
	for i, st := range stmts {
		ms[i] = st
	}
	if err := e.vdb.ApplyAll(ms...); err != nil {
		return e.vdb.NumVersions(), err
	}
	return e.vdb.NumVersions(), nil
}

// WaitVersionCtx blocks until the history has reached at least target
// statements or ctx ends. It is the read-your-writes primitive: a
// version-bounded read on a follower waits here until replication
// catches up, instead of silently serving a stale answer.
func (e *Engine) WaitVersionCtx(ctx context.Context, target int) error {
	for {
		cur, ch := e.vdb.WaitChan()
		if cur >= target {
			return nil
		}
		select {
		case <-ch:
		case <-ctx.Done():
			return ctx.Err()
		}
	}
}

// History returns the logged history H as typed statements.
func (e *Engine) History() (history.History, error) {
	log := e.vdb.Log()
	h := make(history.History, len(log))
	for i, m := range log {
		st, ok := m.(history.Statement)
		if !ok {
			return nil, fmt.Errorf("core: log entry %d (%s) is not a statement", i+1, m)
		}
		h[i] = st
	}
	return h, nil
}

// HistoryRange returns the statements after the first `since` (up to
// limit of them; limit <= 0 means all) plus the total history length —
// the paged view behind GET /v1/history and replica catch-up.
func (e *Engine) HistoryRange(since, limit int) (history.History, int, error) {
	log, total := e.vdb.LogRange(since, limit)
	h := make(history.History, len(log))
	for i, m := range log {
		st, ok := m.(history.Statement)
		if !ok {
			return nil, 0, fmt.Errorf("core: log entry %d (%s) is not a statement", since+i+1, m)
		}
		h[i] = st
	}
	return h, total, nil
}

// align applies M to the current history. tip is the history length
// the call is evaluated against — captured once, here, so a concurrent
// append cannot shift the query's frame of reference mid-call.
func (e *Engine) align(mods []history.Modification) (pair *history.PaddedPair, tip int, err error) {
	h, err := e.History()
	if err != nil {
		return nil, 0, err
	}
	pair, err = history.ApplyModifications(h, mods)
	return pair, len(h), err
}

// timeTravel cuts the shared prefix of a pair aligned at tip and
// reconstructs the state right before the first modified statement:
// that prefix is identical in both histories, so per §4 evaluation
// starts there. Padding only ever occurs at or after modified
// positions, so the prefix indexes the log directly. The returned
// version identifies the state for result caching.
func (e *Engine) timeTravel(ctx context.Context, pair *history.PaddedPair, tip int, shared *batchShared) (suffix *history.PaddedPair, db *storage.Database, ver int, err error) {
	first := pair.FirstModified()
	ver = min(first, tip)
	if db, err = shared.snapshot(ctx, e.vdb, ver); err != nil {
		return nil, nil, 0, err
	}
	return pair.SuffixFrom(first), db, ver, nil
}

// Naive answers the query with Alg. 1.
func (e *Engine) Naive(mods []history.Modification) (delta.Set, *NaiveStats, error) {
	return e.NaiveCtx(context.Background(), mods)
}

// NaiveCtx is Naive under a context: cancellation is observed during
// time travel, between the statements of the hypothetical history, and
// between per-relation delta computations.
func (e *Engine) NaiveCtx(ctx context.Context, mods []history.Modification) (delta.Set, *NaiveStats, error) {
	d, st, _, err := e.naiveFrom(ctx, mods, &batchShared{})
	return d, st, err
}

// naiveFrom is NaiveCtx over an optional shared snapshot cache
// (Session routes through here), also returning the history length the
// delta was diffed against. The explicit Clone of the algorithm's
// Copy(D) step doubles as the copy-on-write boundary that keeps a
// shared snapshot read-only.
func (e *Engine) naiveFrom(ctx context.Context, mods []history.Modification, shared *batchShared) (delta.Set, *NaiveStats, int, error) {
	start := time.Now()
	stats := &NaiveStats{}
	pair, tip, err := e.align(mods)
	if err != nil {
		return nil, nil, 0, err
	}
	suffix, db, _, err := e.timeTravel(ctx, pair, tip, shared)
	if err != nil {
		return nil, nil, 0, err
	}
	// Creation: the copy of D. Without a snapshot cache time travel
	// already materialized a private copy; the explicit Clone here is
	// the algorithm's Copy(D) step, kept so the naive method pays the
	// paper's cost.
	t0 := time.Now()
	work := db.Clone()
	stats.Creation = time.Since(t0)

	t0 = time.Now()
	if err := suffix.Mod.ApplyCtx(ctx, work); err != nil {
		return nil, nil, 0, err
	}
	stats.Execute = time.Since(t0)

	t0 = time.Now()
	// The delta compares against the actual state at the history length
	// the query was admitted against (tip). Through a session (live
	// serving) that must be a pinned snapshot — an append landing
	// mid-call must not bleed into the "actual" side of the diff —
	// while the bare engine reads the live state directly, preserving
	// the paper's cost model for benchmarks (quiescence documented).
	actual := e.vdb.Current()
	if shared.snaps != nil {
		if actual, err = shared.snaps.TipSnapshotCtx(ctx, tip); err != nil {
			return nil, nil, 0, err
		}
	}
	out := delta.Set{}
	for rel := range relationUnion(suffix) {
		if err := ctx.Err(); err != nil {
			return nil, nil, 0, err
		}
		cur, err := actual.Relation(rel)
		if err != nil {
			return nil, nil, 0, err
		}
		modRel, err := work.Relation(rel)
		if err != nil {
			return nil, nil, 0, err
		}
		out[rel] = delta.Compute(cur, modRel)
	}
	stats.Delta = time.Since(t0)
	stats.Total = time.Since(start)
	return out, stats, tip, nil
}

func relationUnion(pair *history.PaddedPair) map[string]bool {
	rels := pair.Orig.Relations()
	for r := range pair.Mod.Relations() {
		rels[r] = true
	}
	return rels
}

// WhatIf answers the query with Alg. 2 under the given options.
func (e *Engine) WhatIf(mods []history.Modification, opts Options) (delta.Set, *Stats, error) {
	return e.WhatIfCtx(context.Background(), mods, opts)
}

// WhatIfCtx is WhatIf under a context. Cancellation and deadlines are
// observed inside the long-running phases — every solver branch & bound
// node during program slicing, every row batch of compiled query
// execution, every statement of time-travel replay — so a
// cancelled query stops within milliseconds and returns ctx.Err().
func (e *Engine) WhatIfCtx(ctx context.Context, mods []history.Modification, opts Options) (delta.Set, *Stats, error) {
	d, _, st, err := e.whatIfAggregates(ctx, mods, nil, opts, &batchShared{})
	return d, st, err
}

// whatIfAggregates is the body behind every single what-if entry
// point, engine or session: align once, answer the pair, report at the
// same tip.
func (e *Engine) whatIfAggregates(ctx context.Context, mods []history.Modification, queries []AggregateQuery, opts Options, shared *batchShared) (delta.Set, []AggregateReport, *Stats, error) {
	pair, tip, err := e.align(mods)
	if err != nil {
		return nil, nil, nil, err
	}
	return e.whatIfPair(ctx, pair, tip, queries, opts, shared)
}

// whatIfPair answers an already-aligned query pair (WhatIfBatch aligns
// every scenario against one reading of the history): plan, run both
// sides of every planned relation, diff, then evaluate the attached
// aggregate queries at the tip the pair was aligned against.
func (e *Engine) whatIfPair(ctx context.Context, pair *history.PaddedPair, tip int, queries []AggregateQuery, opts Options, shared *batchShared) (delta.Set, []AggregateReport, *Stats, error) {
	start := time.Now()
	p, err := e.plan(ctx, pair, tip, opts, shared)
	if err != nil {
		return nil, nil, nil, err
	}
	ev := e.newEvaluator(ctx, opts, p.ver, shared.eval)
	out := make(delta.Set, len(p.rels))
	for _, r := range p.rels {
		if err := ctx.Err(); err != nil {
			return nil, nil, nil, err
		}
		t0 := time.Now()
		ro, err := ev.eval(r.orig, p.db)
		if err != nil {
			return nil, nil, nil, err
		}
		rm, err := ev.eval(r.mod, p.db)
		if err != nil {
			return nil, nil, nil, err
		}
		p.stats.Execute += time.Since(t0)

		t0 = time.Now()
		d, work := delta.ComputeColumnar(ro, rm)
		out[r.rel] = d
		p.stats.Delta += time.Since(t0)
		p.stats.RowsCompared += work.Compared
		p.stats.RowsBoxed += work.Boxed
		shared.countDelta(work)
	}
	p.stats.Total = time.Since(start)
	reps, _, err := e.tipReports(ctx, queries, out, tip, opts, shared)
	if err != nil {
		return nil, nil, nil, err
	}
	return out, reps, p.stats, nil
}

// normalizeExecutor resolves the zero value to the default backend.
func normalizeExecutor(k ExecutorKind) ExecutorKind {
	if k == "" {
		return ExecVectorized
	}
	return k
}

// evaluator answers algebra queries, optionally through a batch-shared
// compiled-program + result cache (see evalCache). The default backend
// is the vectorized executor; kind selects the tree-walking interpreter
// oracle instead.
type evaluator struct {
	e    *Engine // receives the fallback count; nil in zero-valued test evaluators
	ctx  context.Context
	ec   *evalCache
	ver  int
	kind ExecutorKind
	vec  exec.VecOptions

	routes *routeCounts // receives computeAggregates' report routes; nil: not counted
}

// newEvaluator builds the evaluator for queries over the history
// version ver under opts' executor choice. ec may be nil (no program or
// result sharing); with one, results are cached under ver, so ver must
// be the version of the database the queries run over.
func (e *Engine) newEvaluator(ctx context.Context, opts Options, ver int, ec *evalCache) evaluator {
	return evaluator{e: e, ctx: ctx, ec: ec, ver: ver, kind: normalizeExecutor(opts.Executor), vec: opts.Vec}
}

// evalCtx returns the evaluator's context (Background when the
// evaluator was built zero-valued, e.g. in tests).
func (ev evaluator) evalCtx() context.Context {
	if ev.ctx == nil {
		return context.Background()
	}
	return ev.ctx
}

// eval answers a reenactment query over db in the form core holds such a
// result in, a columnar view (see runView), through the result cache
// when the evaluator has one.
func (ev evaluator) eval(q algebra.Query, db *storage.Database) (*storage.ColumnarView, error) {
	if ev.ec != nil {
		e, err := ev.ec.eval(ev, q, db)
		if err != nil {
			return nil, err
		}
		return e.view, nil
	}
	return ev.runView(q, db, "")
}

// program returns the compiled program for q, or nil when q is to be
// interpreted: because the interpreter was asked for, or because q is
// outside the compilable subset (interpret counts that). With a cache
// the program comes from it — programs are keyed by query fingerprint
// (fp, computed here when empty) and depend on the schemas only, never
// on the data.
func (ev evaluator) program(q algebra.Query, db *storage.Database, fp string) *exec.Program {
	switch {
	case ev.kind == ExecInterpreter:
		return nil
	case ev.ec != nil:
		if fp == "" {
			fp = algebra.Fingerprint(q)
		}
		return ev.ec.program(q, db, fp, ev.vec)
	}
	prog, _ := exec.CompileVec(q, db, ev.vec)
	return prog
}

// runRows answers q over db as rows, without looking at or feeding the
// result cache: a patched hypothetical state, a template's slice count.
func (ev evaluator) runRows(q algebra.Query, db *storage.Database, fp string) (*storage.Relation, error) {
	if prog := ev.program(q, db, fp); prog != nil {
		return prog.RunCtx(ev.evalCtx(), db)
	}
	return ev.interpret(q, db)
}

// runView answers q over db as a columnar view. A vectorized program
// leaves its result in lanes and boxes nothing; the interpreter produces
// rows, which are transposed once — it is the oracle, so what that
// costs does not matter, and core has one result form and one delta
// call whatever the executor.
func (ev evaluator) runView(q algebra.Query, db *storage.Database, fp string) (*storage.ColumnarView, error) {
	if prog := ev.program(q, db, fp); prog != nil {
		return prog.RunColumnarCtx(ev.evalCtx(), db)
	}
	rel, err := ev.interpret(q, db)
	if err != nil {
		return nil, err
	}
	view, err := storage.Transpose(rel)
	if err != nil {
		return nil, fmt.Errorf("core: interpreted result: %w", err)
	}
	return view, nil
}

// interpret answers q with the tree-walking interpreter: because it was
// asked for, or because q is outside the compilable subset — a fallback
// that can only be slower, never wrong (the interpreter is the
// reference semantics), and is counted so that it cannot be silent
// (Engine.InterpreterFallbacks). The oracle is not ctx-aware; bound its
// damage by refusing to start when the request is already dead.
func (ev evaluator) interpret(q algebra.Query, db *storage.Database) (*storage.Relation, error) {
	if err := ev.interpreting(ev.evalCtx()); err != nil {
		return nil, err
	}
	return algebra.Eval(q, db)
}

// interpreting admits one interpreted evaluation under ctx, counting it
// when it is a fallback (see interpret).
func (ev evaluator) interpreting(ctx context.Context) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if ev.kind != ExecInterpreter && ev.e != nil {
		ev.e.fallbacks.Add(1)
	}
	return nil
}
