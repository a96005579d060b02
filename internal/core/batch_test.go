package core

import (
	"context"
	"fmt"
	"testing"

	"github.com/mahif/mahif/internal/delta"
	"github.com/mahif/mahif/internal/exec"
	"github.com/mahif/mahif/internal/history"
	"github.com/mahif/mahif/internal/workload"
)

// scenarioFamily converts the workload's derived scenario specs (see
// workload.ScenarioFamily) into core scenarios: threshold variations of
// the modification plus replacements at dependent positions, so the
// batch time-travels to more than one version.
func scenarioFamily(w *workload.Workload, n int) []Scenario {
	specs := w.ScenarioFamily(n)
	out := make([]Scenario, len(specs))
	for i, s := range specs {
		out[i] = Scenario{Label: s.Label, Mods: s.Mods}
	}
	return out
}

func sameDeltaSet(t *testing.T, label string, got, want delta.Set) {
	t.Helper()
	if len(got) != len(want) {
		t.Errorf("%s: delta covers %d relations, want %d", label, len(got), len(want))
		return
	}
	for rel, w := range want {
		g := got[rel]
		if g == nil {
			t.Errorf("%s: missing delta for %s", label, rel)
			continue
		}
		if !g.Equal(w) {
			t.Errorf("%s: delta for %s differs (batch %d tuples, sequential %d)",
				label, rel, g.Size(), w.Size())
		}
	}
}

// TestWhatIfBatchMatchesSequential is the equivalence property: for
// every variant, WhatIfBatch must produce tuple-for-tuple the same
// deltas as looping WhatIf over the scenarios one at a time.
func TestWhatIfBatchMatchesSequential(t *testing.T) {
	ds := workload.Taxi(800, 21)
	w, err := workload.Generate(ds, workload.Config{
		Updates: 10, Mods: 1, DependentPct: 30, AffectedPct: 10,
		InsertPct: 10, DeletePct: 10, Seed: 22,
	})
	if err != nil {
		t.Fatal(err)
	}
	vdb, err := w.Load()
	if err != nil {
		t.Fatal(err)
	}
	engine := New(vdb)
	scenarios := scenarioFamily(w, 7)
	// Include the workload's own modification set verbatim.
	scenarios = append(scenarios, Scenario{Label: "orig", Mods: w.Mods})

	for _, v := range []Variant{VariantR, VariantRPS, VariantRDS, VariantRFull} {
		opts := OptionsFor(v)
		want := make([]delta.Set, len(scenarios))
		for i, sc := range scenarios {
			d, _, err := engine.WhatIf(sc.Mods, opts)
			if err != nil {
				t.Fatalf("%s: sequential scenario %d: %v", v, i, err)
			}
			want[i] = d
		}
		results, bs, err := engine.WhatIfBatch(scenarios, BatchOptions{Options: opts, Workers: 4})
		if err != nil {
			t.Fatalf("%s: batch: %v", v, err)
		}
		if len(results) != len(scenarios) {
			t.Fatalf("%s: %d results for %d scenarios", v, len(results), len(scenarios))
		}
		if bs.Failed != 0 {
			t.Fatalf("%s: %d scenarios failed", v, bs.Failed)
		}
		for i, r := range results {
			if r.Scenario != i || r.Label != scenarios[i].Label {
				t.Errorf("%s: result %d is scenario %d (%q)", v, i, r.Scenario, r.Label)
			}
			if r.Err != nil {
				t.Errorf("%s: scenario %d: %v", v, i, r.Err)
				continue
			}
			sameDeltaSet(t, fmt.Sprintf("%s scenario %d", v, i), r.Delta, want[i])
		}
	}
}

// TestWhatIfBatchSharingStats pins the reuse accounting: identical
// scenarios must share one snapshot and hit the solver memo.
func TestWhatIfBatchSharingStats(t *testing.T) {
	ds := workload.Taxi(500, 25)
	w, err := workload.Generate(ds, workload.Config{
		Updates: 8, Mods: 1, DependentPct: 25, AffectedPct: 10, Seed: 26,
	})
	if err != nil {
		t.Fatal(err)
	}
	vdb, err := w.Load()
	if err != nil {
		t.Fatal(err)
	}
	engine := New(vdb)
	// Four copies of the same scenario: maximal sharing.
	sc := Scenario{Label: "same", Mods: w.Mods}
	results, bs, err := engine.WhatIfBatch([]Scenario{sc, sc, sc, sc},
		BatchOptions{Options: DefaultOptions(), Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range results {
		if r.Err != nil {
			t.Fatal(r.Err)
		}
	}
	if bs.SnapshotMisses != 1 {
		t.Errorf("SnapshotMisses = %d, want 1 (one distinct version)", bs.SnapshotMisses)
	}
	// The dispatch pre-warm materializes the version once; every
	// scenario's own lookup is then a hit.
	if bs.SnapshotHits != 4 {
		t.Errorf("SnapshotHits = %d, want 4", bs.SnapshotHits)
	}
	if bs.MemoHits == 0 {
		t.Error("MemoHits = 0: identical slicing programs were re-solved")
	}
	// Each scenario compiles its own two reenactment sides; with no
	// report attached, nothing is reused.
	if bs.QueryMisses != 8 || bs.QueryHits != 0 {
		t.Errorf("programs compiled/reused = %d/%d, want 8/0", bs.QueryMisses, bs.QueryHits)
	}
}

// TestWhatIfBatchCollectsErrors: a failing scenario must not abort the
// batch nor poison its siblings.
func TestWhatIfBatchCollectsErrors(t *testing.T) {
	ds := workload.Taxi(400, 27)
	w, err := workload.Generate(ds, workload.Config{
		Updates: 6, Mods: 1, DependentPct: 20, AffectedPct: 10, Seed: 28,
	})
	if err != nil {
		t.Fatal(err)
	}
	vdb, err := w.Load()
	if err != nil {
		t.Fatal(err)
	}
	engine := New(vdb)
	scenarios := []Scenario{
		{Label: "ok", Mods: w.Mods},
		{Label: "bad", Mods: []history.Modification{history.DeleteStmt{Pos: 999}}},
		{Label: "ok2", Mods: w.Mods},
	}
	results, bs, err := engine.WhatIfBatch(scenarios, BatchOptions{Options: DefaultOptions(), Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if bs.Failed != 1 {
		t.Errorf("Failed = %d, want 1", bs.Failed)
	}
	if results[1].Err == nil {
		t.Error("out-of-range scenario reported no error")
	}
	if results[0].Err != nil || results[2].Err != nil {
		t.Errorf("healthy scenarios errored: %v, %v", results[0].Err, results[2].Err)
	}
	if results[0].Delta == nil || results[2].Delta == nil {
		t.Error("healthy scenarios produced no delta")
	}

	if _, _, err := engine.WhatIfBatch(nil, BatchOptions{}); err == nil {
		t.Error("empty batch succeeded")
	}
}

// TestWhatIfBatchStress is the race detector workout: many scenarios,
// a small worker pool, one shared snapshot and memo. It exists to run
// under `go test -race ./internal/core/`.
func TestWhatIfBatchStress(t *testing.T) {
	ds := workload.Taxi(400, 29)
	w, err := workload.Generate(ds, workload.Config{
		Updates: 8, Mods: 1, DependentPct: 25, AffectedPct: 10,
		InsertPct: 12, DeletePct: 12, Seed: 30,
	})
	if err != nil {
		t.Fatal(err)
	}
	vdb, err := w.Load()
	if err != nil {
		t.Fatal(err)
	}
	engine := New(vdb)
	n := 24
	if testing.Short() {
		n = 8
	}
	scenarios := scenarioFamily(w, n)
	results, bs, err := engine.WhatIfBatch(scenarios, BatchOptions{Options: DefaultOptions(), Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if bs.Failed != 0 {
		t.Fatalf("%d scenarios failed", bs.Failed)
	}
	// Each scenario alone, sharing nothing (an engine-level call opens a
	// session of its own); answers must agree.
	for i, sc := range scenarios {
		alone, _, err := engine.WhatIfCtx(context.Background(), sc.Mods, DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		sameDeltaSet(t, fmt.Sprintf("scenario %d", i), results[i].Delta, alone)
	}
}

// BenchmarkWhatIfBatch measures the scenarios × workers grid. The
// workers=1 rows are the sequential baseline the parallel rows are
// judged against.
func BenchmarkWhatIfBatch(b *testing.B) {
	ds := workload.Taxi(2000, 41)
	w, err := workload.Generate(ds, workload.Config{
		Updates: 20, Mods: 1, DependentPct: 20, AffectedPct: 10, Seed: 42,
	})
	if err != nil {
		b.Fatal(err)
	}
	vdb, err := w.Load()
	if err != nil {
		b.Fatal(err)
	}
	engine := New(vdb)
	for _, n := range []int{4, 16} {
		scenarios := scenarioFamily(w, n)
		for _, workers := range []int{1, 2, 4, 8} {
			b.Run(fmt.Sprintf("scenarios=%d/workers=%d", n, workers), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					results, _, err := engine.WhatIfBatch(scenarios,
						BatchOptions{Options: DefaultOptions(), Workers: workers})
					if err != nil {
						b.Fatal(err)
					}
					for _, r := range results {
						if r.Err != nil {
							b.Fatal(r.Err)
						}
					}
				}
			})
		}
	}
}

// BenchmarkWhatIfSequentialLoop is the pre-batch API baseline: a plain
// loop over WhatIf with no sharing at all.
func BenchmarkWhatIfSequentialLoop(b *testing.B) {
	ds := workload.Taxi(2000, 41)
	w, err := workload.Generate(ds, workload.Config{
		Updates: 20, Mods: 1, DependentPct: 20, AffectedPct: 10, Seed: 42,
	})
	if err != nil {
		b.Fatal(err)
	}
	vdb, err := w.Load()
	if err != nil {
		b.Fatal(err)
	}
	engine := New(vdb)
	scenarios := scenarioFamily(w, 16)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, sc := range scenarios {
			if _, _, err := engine.WhatIf(sc.Mods, DefaultOptions()); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// TestSessionCachesKeyOnVecOptions: batch size and scan parallelism are
// fixed when a template's programs are compiled, so a session asked for
// the same template under other exec.VecOptions must not hand back what
// it compiled for the first ones. (A report's γ program keys the same
// way: TestReportProgramRidesTheSnapshot.)
func TestSessionCachesKeyOnVecOptions(t *testing.T) {
	e := ordersEngine(t)
	small := exec.VecOptions{BatchSize: 7, Workers: 1}
	mods := []history.Modification{history.Replace{Pos: 1,
		Stmt: mustStmt(t, "UPDATE orders SET amount = $to WHERE amount = 10.0")}}
	sess := e.NewSession()
	opts := DefaultOptions()
	tpl, err := sess.CompileTemplate(mods, opts)
	if err != nil {
		t.Fatal(err)
	}
	opts.Vec = small
	other, err := sess.CompileTemplate(mods, opts)
	if err != nil {
		t.Fatal(err)
	}
	if other == tpl {
		t.Fatalf("VecOptions %+v got the template compiled for the defaults", small)
	}
}
