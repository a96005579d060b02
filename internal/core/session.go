package core

import (
	"context"
	"sync"

	"github.com/mahif/mahif/internal/compile"
	"github.com/mahif/mahif/internal/delta"
	"github.com/mahif/mahif/internal/history"
	"github.com/mahif/mahif/internal/storage"
)

// Session is a long-lived evaluation context over one engine: it pins
// the history version it was opened against and owns the caches that an
// engine-level call otherwise builds and discards — the shared
// time-travel snapshot cache and the solver-outcome memo. Every Alg. 2
// evaluation runs through a session: Engine.WhatIf, WhatIfAggregates,
// CompileTemplate and WhatIfBatch open one for the call. Alg. 1
// (Engine.NaiveCtx) runs through none. An analyst iterating a family of
// hypotheticals over the same history ("fee ≥ 55… 56… 57") through one
// session reuses the materialized time-travel state and the solver
// outcomes instead of rebuilding them per query; a served deployment
// keeps one session per history version and answers many users' queries
// from the same warm state.
//
// A session keeps no compiled program for a what-if. A what-if compiles
// its two reenactment sides for its call: their constants are its own,
// so the next what-if would not share them. What is worth reusing hangs
// off the frozen snapshot it was computed from (storage.Relation.Derive):
// Φ_D, the columnar view, and a report's historical γ state together
// with the program that folded it, which every later report over that
// snapshot runs. A session keeps no template either: a template is
// owned by whoever compiled it and holds its own programs, compiled
// once with the binding's slots as parameters.
//
// Sessions are safe for concurrent use: the caches are internally
// synchronized and every cached artifact is shared read-only (the same
// contract the batch engine relies on).
//
// # Appends and invalidation
//
// The history is append-only, and every cached artifact is keyed by —
// or derived from — a version at or below the tip the session last
// saw, or depends on no version at all: snapshots are states after
// their first i statements, solver outcomes are content-addressed by
// the slicing formula and the kinds of the variables it mentions. A
// session keeps no reenactment result: a what-if runs both sides
// afresh. When the history advances (Engine.Append during live
// serving), all of that remains exactly valid, so the session re-pins
// to the new version and keeps its caches — the optimistic
// cross-version reuse that makes a served deployment's caches survive a
// stream of appends. The first report over the new tip folds its
// historical state, and compiles its γ, once. An appended statement
// adds fresh symbolic variables to its relation's run, which no earlier
// test mentions, so a re-plan after the append — a repeated what-if, a
// template's recompile (counted in TemplateRecompiles) — finds every
// test it asked before in the memo and solves only the appended
// statements' tests. Invalidate still discards everything explicitly
// (e.g. if the underlying store was swapped out-of-band).
type Session struct {
	e *Engine

	mu      sync.Mutex
	version int // NumVersions the caches were last revalidated against
	caches  *batchShared

	calls         int
	invalidations int
	advances      int
}

// NewSession opens a session pinned to the engine's current history
// version.
func (e *Engine) NewSession() *Session {
	s := &Session{e: e, version: e.vdb.NumVersions()}
	s.reset()
	return s
}

// reset discards all cached state. Caller holds s.mu (or has exclusive
// access during construction).
func (s *Session) reset() {
	s.caches = &batchShared{
		snaps: storage.NewSnapshotCache(s.e.vdb),
		memo:  compile.NewMemo(),
		work:  &sessionWork{},
	}
}

// shared revalidates the version pin and returns the live cache
// bundle. An advanced history re-pins without dropping anything: the
// append-only store guarantees every cached snapshot and solver
// outcome stays correct (see the type comment). The bundle it
// returns is immutable as a bundle (its caches are internally
// synchronized), so calls in flight during an explicit invalidation
// finish against the old, still-consistent bundle.
func (s *Session) shared() *batchShared {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.calls++
	if v := s.e.vdb.NumVersions(); v != s.version {
		s.version = v
		s.advances++
	}
	return s.caches
}

// Invalidate discards all cached state unconditionally and re-pins the
// session to the engine's current history version.
func (s *Session) Invalidate() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.version = s.e.vdb.NumVersions()
	s.invalidations++
	s.reset()
}

// Engine returns the engine the session evaluates against.
func (s *Session) Engine() *Engine { return s.e }

// Version returns the history version the session is currently pinned
// to.
func (s *Session) Version() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.version
}

// SessionStats reports a session's cumulative cache effectiveness
// since it was opened or last invalidated (counters reset with the
// caches).
type SessionStats struct {
	// Calls counts evaluation entries through the session (including
	// batch calls, each once).
	Calls int
	// Invalidations counts explicit cache resets; Advances counts
	// history advances survived with caches kept (optimistic
	// cross-version reuse).
	Invalidations int
	Advances      int
	// Version is the pinned history version.
	Version int
	// SnapshotHits/Misses report shared time-travel reuse across calls.
	SnapshotHits, SnapshotMisses int
	// SnapshotEvictions counts completed snapshots dropped by the
	// retention bound; SnapshotResident is the count currently held.
	SnapshotEvictions, SnapshotResident int
	// SnapshotTipEvictions counts superseded tip-pinned snapshots
	// (private full copies of a then-live state) dropped eagerly when a
	// newer tip was frozen; SnapshotTipResident is the count currently
	// held — bounded near 1 under append+query loops.
	SnapshotTipEvictions, SnapshotTipResident int
	// CompressHits/Misses report reuse of the compressed database Φ_D
	// that program slicing tests against: a miss scanned a relation (once
	// per snapshot, see symbolic.Compress), a hit took the
	// Φ_D remembered on the snapshot. Slow slicing with misses climbing is
	// a cold Φ_D (snapshots being rebuilt); with hits only, it is the
	// solver.
	CompressHits, CompressMisses int64
	// ColumnarHits/Misses report reuse of the typed columnar view that
	// Φ_D and the vectorized executor read a snapshot through: a miss
	// built a relation's view (once per snapshot, see
	// storage.Relation.SharedColumnar), a hit aliased the view remembered
	// on it. Slow execution with misses climbing is a cold view
	// (snapshots being rebuilt); with hits only, it is the kernels.
	ColumnarHits, ColumnarMisses int64
	// ColumnarDerived counts the misses that derived a replayed
	// snapshot's view from the lanes of the snapshot its replay started
	// from, paying for the columns the replay wrote rather than for the
	// whole relation. It never exceeds ColumnarMisses.
	ColumnarDerived int64
	// MemoHits/Misses report solver-outcome reuse across calls;
	// MemoEvictions counts outcomes dropped by the memo's LRU bound.
	MemoHits, MemoMisses int64
	MemoEvictions        int64
	// QueryHits/Misses count programs: a miss is a program compiled — a
	// what-if compiles both reenactment sides of every relation it
	// answers, and the first report over a snapshot compiles its γ — and
	// a hit is a report that ran the γ program its historical state
	// carried. The programs a template artifact holds count in neither.
	// No result is reused: a repeated what-if compiles and runs both its
	// sides again.
	QueryHits, QueryMisses int
	// SolverLowered sums Stats.SolverLowered over every what-if and
	// template compile planned through the session: the expression nodes
	// program slicing lowered into solver models.
	SolverLowered int64
	// DeltaRowsCompared/Hashed/Boxed sum Stats.RowsCompared/RowsHashed/
	// RowsBoxed over every what-if and template eval answered through the
	// session: positions compared lane-wise, rows that did not cancel
	// there and were matched by row hash, and rows gathered into tuples
	// (the deltas). Hashed over compared is the share of reenactment
	// output that did not cancel at its position; hashed − boxed the rows
	// that cancelled across positions.
	DeltaRowsCompared, DeltaRowsHashed, DeltaRowsBoxed int64
	// TemplateSideEvals sums the Evals of TemplateStats.Sides over the
	// session's templates: bindings on a side of a range template's
	// bound, each answered by its side's band table when the template is
	// provisioned, and otherwise by the executed plan, over the union of
	// both sides' keep sets. TemplateFallbackEvals sums
	// TemplateStats.FallbackEvals: bindings on no side.
	TemplateSideEvals, TemplateFallbackEvals int64
	// TemplateProvisionedEvals sums TemplateStats.ProvisionedEvals: the
	// side evals a band table answered, without running a program.
	TemplateProvisionedEvals int64
	// TemplateRecompiles sums TemplateStats.Recompiles over the session's
	// templates: artifacts rebuilt because the history advanced.
	TemplateRecompiles int64
	// Reports counts the aggregate reports answered through the session
	// by route: merged into the historical γ state remembered on the
	// snapshot, or patched, by reason.
	Reports ReportRoutes
	// ReportArtifactHits/Misses report reuse of what aggregate reports
	// remember on a snapshot — a report query's historical γ state, a
	// relation's row-hash index for the frame check: a miss folded or
	// hashed a relation (once per snapshot), a hit reused it.
	ReportArtifactHits, ReportArtifactMisses int64
	// Pairs counts the relations of the session's what-ifs, and of its
	// templates' plans whose modified side has no $slot, by how their
	// two reenactment sides ran.
	Pairs PairRoutes
	// InterpreterFallbacks is Engine.InterpreterFallbacks at the time of
	// the reading: engine-wide, not per session, and never reset.
	InterpreterFallbacks int64
}

// PairRoutes counts pairs of compiled reenactment sides by route: run
// as one pair scan that keeps only the rows that differ at their
// position (Paired), or one after the other, with the delta taken over
// both whole results, for one of the reasons below (exec.PairRoute).
// Pairs that the interpreter runs count in none.
type PairRoutes struct {
	Paired int64
	// Shape: a side is not one scan of the relation through a fused σ/Π
	// chain (a reenacted INSERT adds a union).
	Shape int64
	// Misaligned: a source batch kept different numbers of rows on the
	// two sides (a DELETE whose rows differ between them).
	Misaligned int64
}

// Stats snapshots the session's cache counters.
func (s *Session) Stats() SessionStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := SessionStats{Calls: s.calls, Invalidations: s.invalidations, Advances: s.advances, Version: s.version}
	st.SnapshotHits, st.SnapshotMisses = s.caches.snaps.Stats()
	st.SnapshotEvictions = s.caches.snaps.Evictions()
	st.SnapshotResident = s.caches.snaps.Resident()
	st.SnapshotTipEvictions = s.caches.snaps.TipEvictions()
	st.SnapshotTipResident = s.caches.snaps.TipResident()
	st.CompressHits, st.CompressMisses = s.caches.snaps.DerivedStats()
	st.ColumnarDerived = s.caches.snaps.ColumnarDerived()
	st.ColumnarHits, st.ColumnarMisses = s.caches.snaps.ColumnarStats()
	st.MemoHits, st.MemoMisses = s.caches.memo.Stats()
	st.MemoEvictions = s.caches.memo.Evictions()
	st.QueryHits, st.QueryMisses = int(s.caches.work.reused.Load()), int(s.caches.work.compiled.Load())
	st.SolverLowered = s.caches.work.lowered.Load()
	st.DeltaRowsCompared = s.caches.work.compared.Load()
	st.DeltaRowsHashed, st.DeltaRowsBoxed = s.caches.work.hashed.Load(), s.caches.work.boxed.Load()
	st.TemplateSideEvals, st.TemplateFallbackEvals = s.caches.work.sideEvals.Load(), s.caches.work.fallbacks.Load()
	st.TemplateProvisionedEvals = s.caches.work.provisioned.Load()
	st.TemplateRecompiles = s.caches.work.recompiles.Load()
	st.Reports = s.caches.work.reports.load()
	st.ReportArtifactHits, st.ReportArtifactMisses = s.caches.snaps.ReportStats()
	st.Pairs = s.caches.work.pairs.load()
	st.InterpreterFallbacks = s.e.InterpreterFallbacks()
	return st
}

// WhatIf answers one what-if query through the session's caches.
func (s *Session) WhatIf(mods []history.Modification, opts Options) (delta.Set, *Stats, error) {
	return s.WhatIfCtx(context.Background(), mods, opts)
}

// WhatIfCtx is WhatIf under a context (see Engine.WhatIfCtx for the
// cancellation guarantees). Snapshots and solver outcomes come from the
// session; both reenactment sides are compiled for the call. A call cut
// short by cancellation never leaves a partial artifact behind:
// cancelled snapshot builds are never cached, so the caches stay
// consistent.
func (s *Session) WhatIfCtx(ctx context.Context, mods []history.Modification, opts Options) (delta.Set, *Stats, error) {
	d, _, st, err := s.e.whatIfAggregates(ctx, mods, nil, opts, s.shared())
	return d, st, err
}

// WhatIfBatch evaluates a scenario batch through the session's caches.
func (s *Session) WhatIfBatch(scenarios []Scenario, opts BatchOptions) ([]BatchResult, *BatchStats, error) {
	return s.WhatIfBatchCtx(context.Background(), scenarios, opts)
}

// WhatIfBatchCtx is WhatIfBatch under a context. The batch draws its
// shared snapshot cache and solver memo from the session, so scenarios
// reuse state warmed by earlier session calls and leave their own work
// behind for later ones; each scenario compiles its own reenactment
// sides. BatchStats counters report this batch's
// traffic net of the session's prior use; calls running concurrently
// with the batch through the same session can bleed into the window
// and be attributed to it, so treat the counters as approximate under
// concurrent serving (SessionStats is the exact cumulative view).
func (s *Session) WhatIfBatchCtx(ctx context.Context, scenarios []Scenario, opts BatchOptions) ([]BatchResult, *BatchStats, error) {
	return s.e.whatIfBatch(ctx, scenarios, opts, s.shared())
}
