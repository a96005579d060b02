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
	"time"

	"github.com/mahif/mahif/internal/algebra"
	"github.com/mahif/mahif/internal/compile"
	"github.com/mahif/mahif/internal/dataslice"
	"github.com/mahif/mahif/internal/delta"
	"github.com/mahif/mahif/internal/exec"
	"github.com/mahif/mahif/internal/history"
	"github.com/mahif/mahif/internal/progslice"
	"github.com/mahif/mahif/internal/reenact"
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
	// ExecCompiled runs queries through the tuple-at-a-time compiled
	// executor (exec.Compile): expressions lowered to closures over
	// column ordinals, fused σ/Π chains, hash joins and hash-based bag
	// difference.
	ExecCompiled ExecutorKind = "compiled"
	// ExecInterpreter runs queries through the tree-walking interpreter
	// (algebra.Eval). It is kept as the reference oracle: the
	// differential tests require it to agree with ExecCompiled and
	// ExecVectorized on every history.
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
	// SkipUntainted skips relations whose delta is provably empty.
	SkipUntainted bool
	// Compress configures database compression for program slicing.
	Compress symbolic.CompressOptions
	// Compile configures the MILP backend.
	Compile compile.Options
	// DataSlice configures the push-down analysis.
	DataSlice dataslice.Options
	// Executor picks the query evaluation backend; the zero value means
	// ExecVectorized. Queries the compilers cannot handle (e.g.
	// symbolic variables) transparently fall back to the interpreter,
	// so the choice never changes observable results — only speed.
	Executor ExecutorKind
	// Vec tunes the vectorized executor (batch size, scan parallelism,
	// the NoColumnar typed-lane ablation). Ignored by the other
	// backends.
	Vec exec.VecOptions
}

// DefaultOptions enables every optimization (the paper's R+PS+DS).
func DefaultOptions() Options {
	return Options{
		ProgramSlicing: true,
		DataSlicing:    true,
		UseDependency:  true,
		InsertSplit:    true,
		SkipUntainted:  true,
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

// prepare applies M to H, cuts the shared prefix, and reconstructs the
// database state at the first modified statement. tip is the history
// length the call is evaluated against — captured once, so a
// concurrent append cannot shift the query's frame of reference
// mid-call.
func (e *Engine) prepare(ctx context.Context, mods []history.Modification, st *Stats, snaps *storage.SnapshotCache) (suffix *history.PaddedPair, db *storage.Database, tip int, err error) {
	h, err := e.History()
	if err != nil {
		return nil, nil, 0, err
	}
	pair, err := history.ApplyModifications(h, mods)
	if err != nil {
		return nil, nil, 0, err
	}
	suffix, db, _, err = e.snapshotFor(ctx, pair, st, snaps)
	return suffix, db, len(h), err
}

// snapshotFor cuts the shared prefix of an aligned pair and
// reconstructs the database state at the first modified statement. With
// a non-nil snapshot cache the state is a shared read-only snapshot
// (reenactment never mutates it); otherwise it is a private copy from
// time travel. The returned version number identifies the snapshot for
// result caching.
func (e *Engine) snapshotFor(ctx context.Context, pair *history.PaddedPair, st *Stats, snaps *storage.SnapshotCache) (*history.PaddedPair, *storage.Database, int, error) {
	first := pair.FirstModified()
	t0 := time.Now()
	// The prefix before the first modification is identical in both
	// histories; per §4 we time-travel to the state right before it.
	// Padding only ever occurs at or after modified positions, so the
	// prefix indexes the log directly.
	ver := min(first, e.vdb.NumVersions())
	var db *storage.Database
	var err error
	if snaps != nil {
		db, err = snaps.SnapshotCtx(ctx, ver)
	} else {
		db, err = e.vdb.VersionCtx(ctx, ver)
	}
	if err != nil {
		return nil, nil, 0, err
	}
	if st != nil {
		st.TimeTravel = time.Since(t0)
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
	d, st, _, err := e.naiveFrom(ctx, mods, &NaiveStats{}, nil)
	return d, st, err
}

// naiveFrom is NaiveCtx over an optional shared snapshot cache
// (Session routes through here), also returning the history length the
// delta was diffed against. The explicit Clone of the algorithm's
// Copy(D) step doubles as the copy-on-write boundary that keeps a
// shared snapshot read-only.
func (e *Engine) naiveFrom(ctx context.Context, mods []history.Modification, stats *NaiveStats, snaps *storage.SnapshotCache) (delta.Set, *NaiveStats, int, error) {
	start := time.Now()
	suffix, db, tip, err := e.prepare(ctx, mods, nil, snaps)
	if err != nil {
		return nil, nil, 0, err
	}
	// Creation: the copy of D. prepare already materialized a private
	// copy via time travel; the explicit Clone here is the algorithm's
	// Copy(D) step, kept so the naive method pays the paper's cost.
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
	if snaps != nil {
		if actual, err = snaps.SnapshotCtx(ctx, tip); err != nil {
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
// node during program slicing, every few thousand tuples of compiled
// query execution, every statement of time-travel replay — so a
// cancelled query stops within milliseconds and returns ctx.Err().
func (e *Engine) WhatIfCtx(ctx context.Context, mods []history.Modification, opts Options) (delta.Set, *Stats, error) {
	return e.whatIf(ctx, mods, opts, nil)
}

// whatIf is WhatIfCtx with optional shared caches (snapshot, query
// results) used by WhatIfBatch and Session.
func (e *Engine) whatIf(ctx context.Context, mods []history.Modification, opts Options, shared *batchShared) (delta.Set, *Stats, error) {
	d, st, _, err := e.whatIfTip(ctx, mods, opts, shared)
	return d, st, err
}

// whatIfTip is whatIf, additionally returning the history length the
// answer was evaluated against — the frame of reference callers need
// to evaluate follow-up queries (aggregate reports) consistently.
func (e *Engine) whatIfTip(ctx context.Context, mods []history.Modification, opts Options, shared *batchShared) (delta.Set, *Stats, int, error) {
	h, err := e.History()
	if err != nil {
		return nil, nil, 0, err
	}
	pair, err := history.ApplyModifications(h, mods)
	if err != nil {
		return nil, nil, 0, err
	}
	d, st, err := e.whatIfPair(ctx, pair, opts, shared)
	return d, st, len(h), err
}

// whatIfPair answers an already-aligned query pair (WhatIfBatch
// computes pairs once, for both scheduling and evaluation). The
// evaluation path only reads db, so a shared snapshot is safe; anything
// that must mutate state clones first.
func (e *Engine) whatIfPair(ctx context.Context, pair *history.PaddedPair, opts Options, shared *batchShared) (delta.Set, *Stats, error) {
	if shared == nil {
		shared = &batchShared{}
	}
	stats := &Stats{Slices: map[string]progslice.Stats{}}
	start := time.Now()
	suffix, db, ver, err := e.snapshotFor(ctx, pair, stats, shared.snaps)
	if err != nil {
		return nil, nil, err
	}
	ev := evaluator{ctx: ctx, ec: shared.eval, ver: ver, kind: normalizeExecutor(opts.Executor), vec: opts.Vec}
	stats.TotalStatements = len(suffix.Orig)

	// Relations to answer for; taint analysis prunes provably-empty
	// deltas.
	rels := relationUnion(suffix)
	tainted := dataslice.TaintedRelations(suffix)
	targets := make([]string, 0, len(rels))
	for rel := range rels {
		if opts.SkipUntainted && !tainted[rel] {
			stats.SkippedRelations = append(stats.SkippedRelations, rel)
			continue
		}
		targets = append(targets, rel)
	}

	// Data slicing (§6).
	filters := &dataslice.Conditions{H: reenact.Filters{}, M: reenact.Filters{}}
	if opts.DataSlicing {
		t0 := time.Now()
		filters, err = dataslice.Compute(suffix, db, opts.DataSlice)
		if err != nil {
			return nil, nil, err
		}
		stats.DataSlicing = time.Since(t0)
	}

	out := delta.Set{}
	split := opts.ProgramSlicing || opts.InsertSplit
	if !split {
		if err := e.wholeHistoryPath(suffix, db, filters, targets, out, stats, ev); err != nil {
			return nil, nil, err
		}
		stats.Total = time.Since(start)
		stats.KeptStatements = stats.TotalStatements
		return out, stats, nil
	}

	for _, rel := range targets {
		if err := ctx.Err(); err != nil {
			return nil, nil, err
		}
		if err := e.splitPath(ctx, suffix, db, rel, filters, opts, out, stats, ev); err != nil {
			return nil, nil, err
		}
	}
	stats.Total = time.Since(start)
	return out, stats, nil
}

// wholeHistoryPath reenacts the full histories per relation (variant R
// or R+DS without insert split).
func (e *Engine) wholeHistoryPath(suffix *history.PaddedPair, db *storage.Database, filters *dataslice.Conditions, targets []string, out delta.Set, stats *Stats, ev evaluator) error {
	t0 := time.Now()
	qsOrig, err := reenact.Queries(suffix.Orig, db, filters.H)
	if err != nil {
		return err
	}
	qsMod, err := reenact.Queries(suffix.Mod, db, filters.M)
	if err != nil {
		return err
	}
	for _, rel := range targets {
		qo, qm := qsOrig[rel], qsMod[rel]
		if qo == nil || qm == nil {
			continue
		}
		ro, err := ev.eval(qo, db)
		if err != nil {
			return err
		}
		rm, err := ev.eval(qm, db)
		if err != nil {
			return err
		}
		stats.Execute += time.Since(t0)
		t1 := time.Now()
		out[rel] = delta.Compute(ro, rm)
		stats.Delta += time.Since(t1)
		t0 = time.Now()
	}
	stats.Execute += time.Since(t0)
	return nil
}

// splitPath answers one relation using the §10 split: the insert-free
// part (optionally program sliced) over the base relation, unioned with
// the insert branches.
func (e *Engine) splitPath(ctx context.Context, suffix *history.PaddedPair, db *storage.Database, rel string, filters *dataslice.Conditions, opts Options, out delta.Set, stats *Stats, ev evaluator) error {
	relPair, _ := suffix.RestrictToRelation(rel)
	noInsPair, modified := stripInsertPair(relPair)

	keep := allPositions(len(noInsPair.Orig))
	if opts.ProgramSlicing {
		if len(modified) == 0 {
			// Every modification on rel is an insert pair: the
			// insert-free parts of both histories are identical, so the
			// base branches cancel and can be dropped entirely.
			keep = nil
		} else {
			relation, err := db.Relation(rel)
			if err != nil {
				return err
			}
			phiD, err := symbolic.Compress(relation, opts.Compress)
			if err != nil {
				return err
			}
			in := &progslice.Input{Pair: noInsPair, Schema: relation.Schema, PhiD: phiD, Compile: opts.Compile}
			var res *progslice.Result
			if opts.UseDependency {
				res, err = progslice.DependencyCtx(ctx, in)
			} else {
				res, err = progslice.GreedyCtx(ctx, in)
			}
			if err != nil {
				return err
			}
			keep = res.Keep
			stats.Slices[rel] = res.Stats
			stats.ProgramSlicing += res.Stats.Duration
			stats.SolverTests += res.Stats.Tests
			stats.SolverNodes += res.Stats.SolverNodes
		}
	}
	stats.KeptStatements += len(keep)

	t0 := time.Now()
	baseOrig, err := reenact.QueryForRelation(noInsPair.Orig.Restrict(keep), rel, db, filters.H)
	if err != nil {
		return err
	}
	baseMod, err := reenact.QueryForRelation(noInsPair.Mod.Restrict(keep), rel, db, filters.M)
	if err != nil {
		return err
	}
	brOrig, err := reenact.InsertBranches(suffix.Orig, rel, db)
	if err != nil {
		return err
	}
	brMod, err := reenact.InsertBranches(suffix.Mod, rel, db)
	if err != nil {
		return err
	}
	qo, qm := baseOrig, baseMod
	if brOrig != nil {
		qo = &algebra.Union{L: qo, R: brOrig}
	}
	if brMod != nil {
		qm = &algebra.Union{L: qm, R: brMod}
	}
	ro, err := ev.eval(qo, db)
	if err != nil {
		return err
	}
	rm, err := ev.eval(qm, db)
	if err != nil {
		return err
	}
	stats.Execute += time.Since(t0)

	t0 = time.Now()
	out[rel] = delta.Compute(ro, rm)
	stats.Delta += time.Since(t0)
	return nil
}

func allPositions(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

// stripInsertPair removes aligned insert positions from a pair,
// returning the reduced pair and its modified positions.
func stripInsertPair(pair *history.PaddedPair) (*history.PaddedPair, []int) {
	modSet := map[int]bool{}
	for _, p := range pair.ModifiedPos {
		modSet[p] = true
	}
	out := &history.PaddedPair{}
	for i := range pair.Orig {
		if isInsert(pair.Orig[i]) || isInsert(pair.Mod[i]) {
			continue
		}
		out.Orig = append(out.Orig, pair.Orig[i])
		out.Mod = append(out.Mod, pair.Mod[i])
		if modSet[i] {
			out.ModifiedPos = append(out.ModifiedPos, len(out.Orig)-1)
		}
	}
	return out, out.ModifiedPos
}

func isInsert(s history.Statement) bool {
	switch s.(type) {
	case *history.InsertValues, *history.InsertQuery:
		return true
	}
	return false
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
// is the vectorized executor; kind selects the tuple-at-a-time compiled
// executor or the tree-walking interpreter oracle instead.
type evaluator struct {
	ctx  context.Context
	ec   *evalCache
	ver  int
	kind ExecutorKind
	vec  exec.VecOptions
}

// evalCtx returns the evaluator's context (Background when the
// evaluator was built zero-valued, e.g. in tests).
func (ev evaluator) evalCtx() context.Context {
	if ev.ctx == nil {
		return context.Background()
	}
	return ev.ctx
}

func (ev evaluator) eval(q algebra.Query, db *storage.Database) (*storage.Relation, error) {
	if ev.ec != nil {
		return ev.ec.eval(ev.evalCtx(), q, db, ev.ver, ev.kind, ev.vec)
	}
	return ev.evalUncached(q, db)
}

// evalUncached answers q over db without looking at or feeding the
// result cache — for databases that are not the history version ev.ver
// (hypothetical states). The compiled program still comes from the
// cache when there is one: programs are keyed by query fingerprint and
// depend on the schemas only, never on the data.
func (ev evaluator) evalUncached(q algebra.Query, db *storage.Database) (*storage.Relation, error) {
	ctx := ev.evalCtx()
	var prog *exec.Program
	switch {
	case ev.kind == ExecInterpreter:
	case ev.ec != nil:
		prog = ev.ec.program(q, db, algebra.Fingerprint(q), ev.kind, ev.vec)
	default:
		// An uncompilable query leaves prog nil.
		prog, _ = compileFor(ev.kind, q, db, ev.vec)
	}
	if prog == nil {
		// Interpreter mode, or outside the compilable subset: the
		// interpreter is the reference semantics, so this can only be
		// slower, never wrong. The tree-walking oracle is not ctx-aware;
		// bound its damage by refusing to start when the request is
		// already dead.
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		return algebra.Eval(q, db)
	}
	return prog.RunCtx(ctx, db)
}

// compileFor lowers q with the backend kind selects (vectorized unless
// the tuple-at-a-time compiled executor was requested explicitly).
func compileFor(kind ExecutorKind, q algebra.Query, db *storage.Database, vec exec.VecOptions) (*exec.Program, error) {
	if kind == ExecCompiled {
		return exec.Compile(q, db)
	}
	return exec.CompileVec(q, db, vec)
}
