package core

import (
	"context"
	"sync"
	"testing"

	"github.com/mahif/mahif/internal/delta"
	"github.com/mahif/mahif/internal/history"
	"github.com/mahif/mahif/internal/workload"
)

// TestSessionConcurrentStress hammers one session from many
// goroutines with a mix of single queries, batches, naive runs, and an
// explicit invalidation, requiring every answer to match the fresh
// engine's. Run under -race in CI, this pins the session's
// concurrency-safety contract.
func TestSessionConcurrentStress(t *testing.T) {
	ds := workload.Taxi(800, 1)
	w, err := workload.Generate(ds, workload.Config{
		Updates: 10, Mods: 1, DependentPct: 20, AffectedPct: 10, Seed: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	vdb, err := w.Load()
	if err != nil {
		t.Fatal(err)
	}
	engine := New(vdb)
	rel := w.Dataset.Rel.Schema.Relation

	specs := w.ScenarioFamily(6)
	fresh := make([]*delta.Result, len(specs))
	for i, sp := range specs {
		d, _, err := engine.WhatIf(sp.Mods, DefaultOptions())
		if err != nil {
			t.Fatalf("fresh %s: %v", sp.Label, err)
		}
		fresh[i] = d[rel]
	}

	sess := engine.NewSession()
	ctx := context.Background()
	var wg sync.WaitGroup
	errCh := make(chan error, 64)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 6; i++ {
				k := (g + i) % len(specs)
				sp := specs[k]
				switch {
				case g == 3 && i == 3:
					sess.Invalidate()
				case g%3 == 2:
					if _, _, err := engine.NaiveCtx(ctx, sp.Mods); err != nil {
						errCh <- err
						return
					}
				default:
					d, _, err := sess.WhatIfCtx(ctx, sp.Mods, DefaultOptions())
					if err != nil {
						errCh <- err
						return
					}
					if d[rel] == nil || !d[rel].Equal(fresh[k]) {
						t.Errorf("goroutine %d call %d (%s): delta differs from fresh engine", g, i, sp.Label)
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Errorf("session call failed: %v", err)
	}
	// The mid-stress Invalidate swaps the session caches (and their
	// counters), and the scheduler may land it after every other call —
	// so sharing across the racing goroutines above is not guaranteed
	// to be visible in the final stats. Two identical sequential calls
	// make at least one snapshot hit deterministic.
	for i := 0; i < 2; i++ {
		if _, _, err := sess.WhatIfCtx(ctx, specs[0].Mods, DefaultOptions()); err != nil {
			t.Fatalf("post-stress call %d: %v", i, err)
		}
	}
	if st := sess.Stats(); st.SnapshotHits == 0 {
		t.Errorf("concurrent session shared no snapshot: %+v", st)
	}
}

// TestSessionTipSnapshotBound pins tip-snapshot accumulation under the
// append+report loop: each NaiveAggregatesCtx after an append freezes a
// private clone of the new tip as the frame of its report. Eager tip
// eviction keeps at most one resident, counts the superseded ones, and
// surfaces both in SessionStats.
func TestSessionTipSnapshotBound(t *testing.T) {
	ds := workload.Taxi(300, 2)
	w, err := workload.Generate(ds, workload.Config{
		Updates: 6, Mods: 1, DependentPct: 20, AffectedPct: 10, Seed: 3,
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
	stmt := w.Mods[0].(history.Replace).Stmt
	queries := []AggregateQuery{mustAggQuery(t, "SELECT COUNT(*) AS n FROM "+ds.Rel.Schema.Relation)}
	for i := 0; i < 8; i++ {
		if _, _, _, err := sess.NaiveAggregatesCtx(ctx, w.Mods, queries); err != nil {
			t.Fatalf("round %d: %v", i, err)
		}
		if st := sess.Stats(); st.SnapshotTipResident > 1 {
			t.Fatalf("round %d: SnapshotTipResident = %d, want at most 1", i, st.SnapshotTipResident)
		}
		if _, err := engine.Append(stmt); err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
	}
	if _, _, _, err := sess.NaiveAggregatesCtx(ctx, w.Mods, queries); err != nil {
		t.Fatal(err)
	}
	st := sess.Stats()
	if st.SnapshotTipResident > 1 {
		t.Errorf("SnapshotTipResident = %d, want at most 1", st.SnapshotTipResident)
	}
	if st.SnapshotTipEvictions == 0 {
		t.Errorf("no superseded tips evicted: %+v", st)
	}
}

// TestSessionBatchSharing: a batch through a session leaves its warmed
// state behind — a later single call over the same prefix hits the
// caches immediately.
func TestSessionBatchSharing(t *testing.T) {
	ds := workload.Taxi(1200, 1)
	w, err := workload.Generate(ds, workload.Config{
		Updates: 10, Mods: 1, DependentPct: 20, AffectedPct: 10, Seed: 5,
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

	specs := w.ScenarioFamily(4)
	scenarios := make([]Scenario, len(specs))
	for i, sp := range specs {
		scenarios[i] = Scenario{Label: sp.Label, Mods: sp.Mods}
	}
	if _, bs, err := sess.WhatIfBatchCtx(ctx, scenarios, BatchOptions{Options: DefaultOptions()}); err != nil {
		t.Fatal(err)
	} else if bs.Scenarios != len(scenarios) {
		t.Fatalf("batch stats %+v", bs)
	}

	before := sess.Stats()
	if _, _, err := sess.WhatIfCtx(ctx, specs[0].Mods, DefaultOptions()); err != nil {
		t.Fatal(err)
	}
	after := sess.Stats()
	if after.SnapshotHits <= before.SnapshotHits {
		t.Errorf("single call after batch did not hit the batch-warmed snapshot cache: %+v → %+v", before, after)
	}
	// A what-if compiles its own reenactment sides, one pair per
	// answered relation, and reuses none.
	if got := after.QueryMisses - before.QueryMisses; got != 2 || after.QueryHits != before.QueryHits {
		t.Errorf("single call after batch compiled %d programs and reused %d, want 2 and 0", got, after.QueryHits-before.QueryHits)
	}
}
