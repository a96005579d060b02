package core

import (
	"context"
	"errors"
	"testing"
	"time"

	"github.com/mahif/mahif/internal/workload"
)

// cancelBound is the generous wall-clock promise for cancellation
// latency: a query cancelled mid-phase must return within this bound
// even though the uncancelled evaluation runs for minutes.
const cancelBound = 250 * time.Millisecond

// solverHeavyEngine builds an engine + workload whose dependency
// slicing runs for over a second uncancelled (600 updates, two
// modifications: one solver test per statement, nearly all of the
// answer's time), so any prompt return below proves cancellation
// works.
func solverHeavyEngine(t *testing.T) (*Engine, *workload.Workload, Options) {
	t.Helper()
	ds := workload.Taxi(2000, 1)
	w, err := workload.Generate(ds, workload.Config{
		Updates: 600, Mods: 2, DependentPct: 25, AffectedPct: 10, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	vdb, err := w.Load()
	if err != nil {
		t.Fatal(err)
	}
	return New(vdb), w, DefaultOptions()
}

// TestWhatIfCtxCancelMidSolve cancels a solver-heavy WhatIfCtx at
// t=50ms and requires ctx.Err() within the wall-clock bound.
func TestWhatIfCtxCancelMidSolve(t *testing.T) {
	engine, w, opts := solverHeavyEngine(t)
	ctx, cancel := context.WithCancel(context.Background())
	timer := time.AfterFunc(50*time.Millisecond, cancel)
	defer timer.Stop()
	defer cancel()

	start := time.Now()
	_, _, err := engine.WhatIfCtx(ctx, w.Mods, opts)
	elapsed := time.Since(start)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled (elapsed %v)", err, elapsed)
	}
	if elapsed > 50*time.Millisecond+cancelBound {
		t.Errorf("cancelled WhatIfCtx took %v, want ≤ %v after the cancel", elapsed, cancelBound)
	}
}

// TestWhatIfCtxDeadlineAlreadyExpired: a dead context returns
// DeadlineExceeded without doing any evaluation work, from both the
// reenactment and the naive path.
func TestWhatIfCtxDeadlineAlreadyExpired(t *testing.T) {
	engine, w, opts := solverHeavyEngine(t)
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()

	start := time.Now()
	if _, _, err := engine.WhatIfCtx(ctx, w.Mods, opts); !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("WhatIfCtx err = %v, want context.DeadlineExceeded", err)
	}
	if _, _, err := engine.NaiveCtx(ctx, w.Mods); !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("NaiveCtx err = %v, want context.DeadlineExceeded", err)
	}
	if elapsed := time.Since(start); elapsed > cancelBound {
		t.Errorf("dead-context calls took %v, want ≤ %v", elapsed, cancelBound)
	}
}

// TestWhatIfBatchCtxCancel is the acceptance scenario: a solver-heavy
// batch cancelled at t=50ms returns within 250ms of the cancellation,
// reports ctx.Err() at batch level, and every scenario either finished
// or carries a context error.
func TestWhatIfBatchCtxCancel(t *testing.T) {
	engine, w, opts := solverHeavyEngine(t)
	scenarios := make([]Scenario, 8)
	for i := range scenarios {
		scenarios[i] = Scenario{Label: "s", Mods: w.Mods}
	}
	ctx, cancel := context.WithCancel(context.Background())
	timer := time.AfterFunc(50*time.Millisecond, cancel)
	defer timer.Stop()
	defer cancel()

	start := time.Now()
	results, _, err := engine.WhatIfBatchCtx(ctx, scenarios, BatchOptions{Options: opts, Workers: 4})
	elapsed := time.Since(start)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("batch err = %v, want context.Canceled (elapsed %v)", err, elapsed)
	}
	if elapsed > 50*time.Millisecond+cancelBound {
		t.Errorf("cancelled batch took %v, want ≤ %v after the cancel", elapsed, cancelBound)
	}
	if len(results) != len(scenarios) {
		t.Fatalf("got %d results, want %d", len(results), len(scenarios))
	}
	for i, res := range results {
		if res.Err == nil {
			continue // finished before the cancel: fine
		}
		if !errors.Is(res.Err, context.Canceled) {
			t.Errorf("scenario %d err = %v, want context.Canceled or nil", i, res.Err)
		}
	}
}

// TestSessionConsistentAfterCancel: a cancelled session call must not
// poison the session caches — the same query afterwards succeeds and
// matches a fresh engine's answer.
func TestSessionConsistentAfterCancel(t *testing.T) {
	ds := workload.Taxi(1500, 1)
	w, err := workload.Generate(ds, workload.Config{
		Updates: 12, Mods: 1, DependentPct: 25, AffectedPct: 10, Seed: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	vdb, err := w.Load()
	if err != nil {
		t.Fatal(err)
	}
	engine := New(vdb)
	sess := engine.NewSession()

	// Dead context: the call fails, possibly mid-snapshot-build or
	// mid-materialization.
	dead, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := sess.WhatIfCtx(dead, w.Mods, DefaultOptions()); !errors.Is(err, context.Canceled) {
		t.Fatalf("dead-context session call: err = %v, want context.Canceled", err)
	}

	// The session must now answer the same query correctly.
	got, _, err := sess.WhatIfCtx(context.Background(), w.Mods, DefaultOptions())
	if err != nil {
		t.Fatalf("session call after cancel: %v", err)
	}
	want, _, err := engine.WhatIf(w.Mods, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	rel := w.Dataset.Rel.Schema.Relation
	if got[rel] == nil || !got[rel].Equal(want[rel]) {
		t.Errorf("post-cancel session delta differs from fresh engine")
	}
}

// TestSessionReusesCaches pins the session promise: repeated WhatIfCtx
// calls over the same history hit the snapshot cache, and a
// solver-using variant hits the memo. Each call compiles its own
// reenactment programs.
func TestSessionReusesCaches(t *testing.T) {
	ds := workload.Taxi(1500, 1)
	w, err := workload.Generate(ds, workload.Config{
		Updates: 12, Mods: 1, DependentPct: 25, AffectedPct: 10, Seed: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	vdb, err := w.Load()
	if err != nil {
		t.Fatal(err)
	}
	engine := New(vdb)
	sess := engine.NewSession()
	ctx := context.Background()

	for i := 0; i < 3; i++ {
		if _, _, err := sess.WhatIfCtx(ctx, w.Mods, DefaultOptions()); err != nil {
			t.Fatalf("call %d: %v", i, err)
		}
	}
	st := sess.Stats()
	if st.Calls != 3 {
		t.Fatalf("stats = %+v, want 3 calls", st)
	}
	// Call 1 materializes the snapshot (miss); calls 2 and 3 reuse it.
	if st.SnapshotHits < 2 {
		t.Errorf("snapshot hits = %d, want ≥ 2 (stats %+v)", st.SnapshotHits, st)
	}
	if st.QueryMisses != 6 || st.QueryHits != 0 {
		t.Errorf("programs compiled/reused = %d/%d, want two sides per call, 6/0 (stats %+v)", st.QueryMisses, st.QueryHits, st)
	}
	if st.MemoHits == 0 {
		t.Errorf("memo hits = 0, want solver-outcome reuse (stats %+v)", st)
	}

	// Advancing the history re-pins without dropping the caches
	// (optimistic cross-version reuse): the same query still hits the
	// warm snapshot cache.
	if err := vdb.Apply(w.History[0]); err != nil {
		t.Fatal(err)
	}
	if _, _, err := sess.WhatIfCtx(ctx, w.Mods, DefaultOptions()); err != nil {
		t.Fatalf("post-advance call: %v", err)
	}
	st2 := sess.Stats()
	if st2.Invalidations != 0 {
		t.Errorf("invalidations = %d, want 0 (advance keeps caches; stats %+v)", st2.Invalidations, st2)
	}
	if st2.Advances != 1 {
		t.Errorf("advances = %d, want 1 (stats %+v)", st2.Advances, st2)
	}
	if st2.Version != vdb.NumVersions() {
		t.Errorf("session version = %d, want %d", st2.Version, vdb.NumVersions())
	}
	if st2.SnapshotHits <= st.SnapshotHits {
		t.Errorf("snapshot cache was dropped on advance: %+v then %+v", st, st2)
	}

	// Explicit invalidation still resets everything.
	sess.Invalidate()
	st3 := sess.Stats()
	if st3.Invalidations != 1 || st3.SnapshotHits != 0 {
		t.Errorf("explicit Invalidate did not reset: %+v", st3)
	}
}
