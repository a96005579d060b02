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
	"github.com/mahif/mahif/internal/delta"
	"github.com/mahif/mahif/internal/exec"
	"github.com/mahif/mahif/internal/history"
	"github.com/mahif/mahif/internal/progslice"
	"github.com/mahif/mahif/internal/storage"
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

// Options selects the algorithm variant — the §13.3 configurations R,
// R+PS, R+DS and R+PS+DS are the two slicing switches — and the
// executor that answers it.
type Options struct {
	// ProgramSlicing enables §7–§9: the §10 insert split, then the §9
	// dependency slice of the insert-free part of the history.
	ProgramSlicing bool
	// DataSlicing enables §6.
	DataSlicing bool
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
		o.ProgramSlicing, o.DataSlicing = false, false
	case VariantRPS:
		o.DataSlicing = false
	case VariantRDS:
		o.ProgramSlicing = false
	case VariantRFull, VariantNaive:
	}
	return o
}

// Stats reports where time went while answering a query with Alg. 2.
//
// Its JSON wire format (v1, pinned by a golden test beside the delta
// format) is its field tags, in declaration order: durations travel as
// integer nanoseconds under *_ns names, and the fields tagged "-" stay
// off the wire. Extend compatibly (add fields); never repurpose names.
// NaiveStats, BatchStats and progslice.Stats follow the same rules.
type Stats struct {
	Total          time.Duration `json:"total_ns"`
	TimeTravel     time.Duration `json:"time_travel_ns"` // reconstructing D before the first modified statement
	ProgramSlicing time.Duration `json:"program_slicing_ns"`
	DataSlicing    time.Duration `json:"data_slicing_ns"`
	// Execute is evaluating the reenactment queries. For a pair of sides
	// run as one pair scan (exec.RunPairCtx) it includes the delta's
	// position-by-position comparison, which that scan makes batch by
	// batch; Delta is then only the residual's match, gather and sort.
	Execute time.Duration `json:"execute_ns"`
	Delta   time.Duration `json:"delta_ns"`

	// Slice quality.
	TotalStatements int `json:"total_statements"`
	KeptStatements  int `json:"kept_statements"`
	SolverTests     int `json:"solver_tests"`
	SolverNodes     int `json:"solver_nodes"`
	// SolverLowered counts the expression nodes program slicing lowered
	// into solver models (progslice.Stats.Lowered, summed): about
	// |Φ_D ∧ affected| plus what each test adds, not tests × formula.
	SolverLowered int `json:"-"`

	// Delta work, in rows, summed over the answered relations: the two
	// reenactment results were compared lane-wise at RowsCompared
	// positions; RowsHashed rows (both sides together) did not cancel
	// there and were matched by row hash, lane-wise; RowsBoxed of them,
	// the delta itself, were gathered into tuples. RowsHashed − RowsBoxed
	// rows cancelled across positions. RowsHashed well below
	// RowsCompared is the normal case; close to it, the two sides are
	// misaligned and the delta costs a whole-relation multiset diff.
	RowsCompared int `json:"-"`
	RowsHashed   int `json:"-"`
	RowsBoxed    int `json:"-"`

	// Per-relation slicing details.
	Slices map[string]progslice.Stats `json:"slices,omitempty"`
	// SkippedRelations lists relations pruned by taint analysis.
	SkippedRelations []string `json:"skipped_relations,omitempty"`
}

// NaiveStats is the Alg. 1 breakdown of Fig. 15. Total also covers
// aligning the history and pinning the actual state at the tip.
type NaiveStats struct {
	Total    time.Duration `json:"total_ns"`
	Creation time.Duration `json:"creation_ns"` // time travel: a private copy of the past database state
	Execute  time.Duration `json:"execute_ns"`  // running H[M] over the copy
	Delta    time.Duration `json:"delta_ns"`
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
// positions, so the prefix indexes the log directly. The state is the
// shared read-only snapshot from shared's cache.
func (e *Engine) timeTravel(ctx context.Context, pair *history.PaddedPair, tip int, shared *batchShared) (suffix *history.PaddedPair, db *storage.Database, err error) {
	first := pair.FirstModified()
	if db, err = shared.snaps.SnapshotCtx(ctx, min(first, tip)); err != nil {
		return nil, nil, err
	}
	return pair.SuffixFrom(first), db, nil
}

// Naive answers the query with Alg. 1.
func (e *Engine) Naive(mods []history.Modification) (delta.Set, *NaiveStats, error) {
	return e.NaiveCtx(context.Background(), mods)
}

// NaiveCtx is Naive under a context: cancellation is observed during
// time travel, between the statements of the hypothetical history, and
// between per-relation delta computations. It is the oracle the Alg. 2
// paths are checked against, so it shares nothing with them: both
// states it reads are private copies of the versioned store, no session
// cache is involved, and an append landing mid-call cannot reach either.
func (e *Engine) NaiveCtx(ctx context.Context, mods []history.Modification) (delta.Set, *NaiveStats, error) {
	d, st, _, err := e.naiveFrom(ctx, mods)
	return d, st, err
}

// naiveFrom is NaiveCtx, also returning the history length the delta
// was diffed against.
func (e *Engine) naiveFrom(ctx context.Context, mods []history.Modification) (delta.Set, *NaiveStats, int, error) {
	start := time.Now()
	stats := &NaiveStats{}
	pair, tip, err := e.align(mods)
	if err != nil {
		return nil, nil, 0, err
	}
	first := pair.FirstModified()
	suffix := pair.SuffixFrom(first)
	// Creation: time travel and the algorithm's Copy(D) step are one
	// private copy of the state before the first modified statement.
	t0 := time.Now()
	work, err := e.vdb.VersionCtx(ctx, min(first, tip))
	if err != nil {
		return nil, nil, 0, err
	}
	stats.Creation = time.Since(t0)

	t0 = time.Now()
	if err := suffix.Mod.ApplyCtx(ctx, work); err != nil {
		return nil, nil, 0, err
	}
	stats.Execute = time.Since(t0)

	// The delta compares against the actual state at the history length
	// the query was admitted against (tip), pinned as a private copy:
	// an append landing mid-call must not bleed into the "actual" side.
	actual, err := e.vdb.VersionCtx(ctx, tip)
	if err != nil {
		return nil, nil, 0, err
	}
	t0 = time.Now()
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
// Like every engine-level Alg. 2 entry point it answers through a
// one-call session, so it runs exactly the path a long-lived session
// runs, with caches that die with the call.
func (e *Engine) WhatIfCtx(ctx context.Context, mods []history.Modification, opts Options) (delta.Set, *Stats, error) {
	return e.NewSession().WhatIfCtx(ctx, mods, opts)
}

// whatIfAggregates is the body behind every single what-if entry
// point: align once, answer the pair, report at the same tip.
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
	ev := e.newEvaluator(ctx, opts)
	ev.work, ev.pairs = shared.work, &shared.work.pairs
	out := make(delta.Set, len(p.rels))
	for _, r := range p.rels {
		if err := ctx.Err(); err != nil {
			return nil, nil, nil, err
		}
		d, work, err := ev.diff(r, p.db, p.stats)
		if err != nil {
			return nil, nil, nil, err
		}
		out[r.rel] = d
		p.stats.RowsCompared += work.Compared
		p.stats.RowsHashed += work.Hashed
		p.stats.RowsBoxed += work.Boxed
		shared.countDelta(work)
	}
	p.stats.Total = time.Since(start)
	reps, _, err := e.tipReports(ctx, queries, out, tip, opts, shared, nil)
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

// evaluator answers algebra queries. The default backend is the
// vectorized executor; kind selects the tree-walking interpreter oracle
// instead. Every program is compiled for the call that runs it, except
// a template's, which its artifact holds, and a report's γ program,
// which lives with the historical state it folded (evaluator.historical).
type evaluator struct {
	e    *Engine // receives the fallback count; nil in zero-valued test evaluators
	ctx  context.Context
	kind ExecutorKind
	vec  exec.VecOptions

	work   *sessionWork  // receives compile and γ-reuse counts; nil: not counted
	routes *routeCounts  // receives computeAggregates' report routes; nil: not counted
	pairs  *pairCounters // receives diff's pair routes; nil: not counted
}

// newEvaluator builds the evaluator for queries under opts' executor
// choice.
func (e *Engine) newEvaluator(ctx context.Context, opts Options) evaluator {
	return evaluator{e: e, ctx: ctx, kind: normalizeExecutor(opts.Executor), vec: opts.Vec}
}

// evalCtx returns the evaluator's context (Background when the
// evaluator was built zero-valued, e.g. in tests).
func (ev evaluator) evalCtx() context.Context {
	if ev.ctx == nil {
		return context.Background()
	}
	return ev.ctx
}

// program compiles q over db, or returns nil when q is to be
// interpreted: because the interpreter was asked for, or because q is
// outside the compilable subset (interpret counts that). Compilation
// never fails; ev.work, when set, counts it.
func (ev evaluator) program(q algebra.Query, db *storage.Database) *exec.Program {
	if ev.kind == ExecInterpreter {
		return nil
	}
	if ev.work != nil {
		ev.work.compiled.Add(1)
	}
	prog, _ := exec.CompileVec(q, db, ev.vec)
	return prog
}

// runView answers q over db as a columnar view.
func (ev evaluator) runView(q algebra.Query, db *storage.Database) (*storage.ColumnarView, error) {
	return ev.runProgram(ev.program(q, db), q, db)
}

// runProgram answers q over db as a columnar view by running prog, its
// compiled program, or by the interpreter when prog is nil. A
// vectorized program leaves its result in lanes and boxes nothing; the
// interpreter produces rows, which are transposed once — it is the
// oracle, so what that costs does not matter, and core has one result
// form and one delta call whatever the executor.
func (ev evaluator) runProgram(prog *exec.Program, q algebra.Query, db *storage.Database) (*storage.ColumnarView, error) {
	if prog != nil {
		return prog.RunColumnarCtx(ev.evalCtx(), db)
	}
	return ev.interpretView(q, db)
}

// diff answers relation r of a plan over db: it runs both reenactment
// sides and returns their delta, the one entry for a pair of sides
// without $slots. Each side is compiled once. When both compile, they
// run as one pair scan that keeps only the rows that differ at their
// position (exec.RunPairCtx), finished by delta.ComputeResidual. A pair
// outside that class runs each side alone and diffs the two results
// with delta.ComputeColumnar, its oracle; ev.pairs counts either route.
// st, when not nil, receives the time spent running the sides, the
// pair scan's comparisons included (Execute), and the time spent
// finishing the delta (Delta).
func (ev evaluator) diff(r relPlan, db *storage.Database, st *Stats) (*delta.Result, delta.Work, error) {
	t0 := time.Now()
	orig, mod := ev.program(r.orig, db), ev.program(r.mod, db)
	if orig != nil && mod != nil {
		res, route, err := exec.RunPairCtx(ev.evalCtx(), orig, mod, db)
		if err != nil {
			return nil, delta.Work{}, err
		}
		ev.pairs.add(route)
		if res != nil {
			t1 := time.Now()
			d, work := delta.ComputeResidual(res.Old, res.New, res.Compared)
			res.Release()
			st.addTimes(t1.Sub(t0), time.Since(t1))
			return d, work, nil
		}
	}
	ro, err := ev.runProgram(orig, r.orig, db)
	if err != nil {
		return nil, delta.Work{}, err
	}
	rm, err := ev.runProgram(mod, r.mod, db)
	if err != nil {
		return nil, delta.Work{}, err
	}
	t1 := time.Now()
	d, work := delta.ComputeColumnar(ro, rm)
	st.addTimes(t1.Sub(t0), time.Since(t1))
	return d, work, nil
}

// addTimes adds execute and delta time to st, when st is not nil.
func (st *Stats) addTimes(execute, dlt time.Duration) {
	if st != nil {
		st.Execute += execute
		st.Delta += dlt
	}
}

// interpretView is interpret with the result transposed into the
// columnar view core holds results in.
func (ev evaluator) interpretView(q algebra.Query, db *storage.Database) (*storage.ColumnarView, error) {
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
