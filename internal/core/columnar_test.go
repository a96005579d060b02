package core

import (
	"context"
	"runtime"
	"testing"

	"github.com/mahif/mahif/internal/delta"
	"github.com/mahif/mahif/internal/history"
	"github.com/mahif/mahif/internal/storage"
	"github.com/mahif/mahif/internal/types"
	"github.com/mahif/mahif/internal/workload"
)

// A what-if's two reenactment results are columnar views from the
// executor to the delta; only the rows that do not cancel at their
// position become tuples. These tests pin what that buys (a retained
// delta pins its own rows) and what it counts.

// TestRetainedDeltaPinsOnlyItsRows: a what-if over a 40 000-row relation
// whose delta is six tuples. The caller keeps the delta.Set and nothing
// else; after a collection the heap may have grown by those rows, not by
// the executor batches they came from (a 1 024-row batch of this schema
// is 0.5 MB boxed, and the delta touches one on each side) and not by
// anything the size of the relation.
func TestRetainedDeltaPinsOnlyItsRows(t *testing.T) {
	const rows = 40000
	vdb := storage.NewVersioned(workload.Taxi(rows, 1).Database())
	engine := New(vdb)
	if _, err := engine.Append(
		mustStmt(t, "UPDATE trips SET tips = tips + 1 WHERE trip_id < 5"),
		mustStmt(t, "UPDATE trips SET extras = extras + 1 WHERE pickup_area >= 0"),
	); err != nil {
		t.Fatal(err)
	}
	mods := []history.Modification{history.Replace{Pos: 0, Stmt: mustStmt(t, "UPDATE trips SET tips = tips + 1 WHERE trip_id < 8")}}
	// No slicing: both sides are the whole relation.
	opts := OptionsFor(VariantR)

	whatIf := func() delta.Set {
		sess := engine.NewSession()
		d, st, err := sess.WhatIf(mods, opts)
		if err != nil {
			t.Fatal(err)
		}
		if d.Size() != 6 || st.RowsCompared != rows || st.RowsBoxed != 6 {
			t.Fatalf("delta of %d tuples, %d rows boxed of %d compared; want 6, 6, %d", d.Size(), st.RowsBoxed, st.RowsCompared, rows)
		}
		return d
	}
	heap := func() int64 {
		runtime.GC()
		runtime.GC() // a finished cycle's garbage may wait for the next sweep
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return int64(m.HeapAlloc)
	}
	whatIf() // whatever the engine itself caches on first use is not the delta's
	before := heap()
	kept := whatIf()
	grew := heap() - before
	// Six tuples of ten 32-byte cells, their slice headers, two Results
	// and a map: a few KB. One pinned batch arena would be 480 KB.
	if grew > 64<<10 {
		t.Errorf("keeping a 6-tuple delta of a %d-row what-if grew the heap by %d KB", rows, grew>>10)
	}
	runtime.KeepAlive(kept)
	runtime.KeepAlive(engine)
}

// TestWhatIfCountsComparedAndBoxedRows: on a Taxi what-if Stats reports
// how many positions the two sides were compared at and how many rows
// did not cancel there (the rows hashed) — counted here from the
// interpreter's rows, which never saw a lane — the hashed rows are the
// delta plus pairs that cancel across positions, far fewer than the
// positions compared, the boxed rows are the delta alone, and the
// session sums them over what-ifs and template evals alike.
func TestWhatIfCountsComparedAndBoxedRows(t *testing.T) {
	w, err := workload.Generate(workload.Taxi(3000, 1), workload.Config{
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
	ctx := context.Background()
	for _, v := range []Variant{VariantR, VariantRFull} {
		opts := OptionsFor(v)
		sess := engine.NewSession()
		d, st, err := sess.WhatIfCtx(ctx, w.Mods, opts)
		if err != nil {
			t.Fatal(err)
		}

		// The same plan, both sides as rows from the oracle.
		pair, tip, err := engine.align(w.Mods)
		if err != nil {
			t.Fatal(err)
		}
		p, err := engine.plan(ctx, pair, tip, opts, engine.NewSession().shared())
		if err != nil {
			t.Fatal(err)
		}
		oracle := engine.newEvaluator(ctx, Options{Executor: ExecInterpreter})
		compared, residual := 0, 0
		for _, r := range p.rels {
			ro, err := oracle.interpret(r.orig, p.db)
			if err != nil {
				t.Fatal(err)
			}
			rm, err := oracle.interpret(r.mod, p.db)
			if err != nil {
				t.Fatal(err)
			}
			n := min(ro.Len(), rm.Len())
			compared += n
			residual += ro.Len() + rm.Len() - 2*n
			for i := 0; i < n; i++ {
				if !ro.Tuples[i].Equal(rm.Tuples[i]) {
					residual += 2
				}
			}
		}
		if st.RowsCompared != compared || st.RowsHashed != residual || st.RowsBoxed != d.Size() {
			t.Fatalf("%s: Stats says %d compared, %d hashed, %d boxed; the rows say %d, %d, and the delta %d", v, st.RowsCompared, st.RowsHashed, st.RowsBoxed, compared, residual, d.Size())
		}
		if d.Size() == 0 || st.RowsHashed < d.Size() || (st.RowsHashed-d.Size())%2 != 0 {
			t.Fatalf("%s: %d rows hashed for a delta of %d: not the delta plus cross-position pairs", v, st.RowsHashed, d.Size())
		}
		if st.RowsHashed >= st.RowsCompared {
			t.Errorf("%s: %d rows hashed of %d compared: nothing cancelled at its position", v, st.RowsHashed, st.RowsCompared)
		}

		// A second what-if runs both sides again and diffs them; a
		// template eval diffs its binding's side against the artifact's.
		if _, _, err := sess.WhatIfCtx(ctx, w.Mods, opts); err != nil {
			t.Fatal(err)
		}
		tmpl, err := sess.CompileTemplateCtx(ctx, w.Mods, opts)
		if err != nil {
			t.Fatal(err)
		}
		if ss := sess.Stats(); ss.DeltaRowsCompared != int64(2*compared) || ss.DeltaRowsHashed != int64(2*residual) || ss.DeltaRowsBoxed != int64(2*d.Size()) {
			t.Errorf("%s: after two what-ifs and a slot-free compile the session counted %d/%d/%d, want %d/%d/%d", v, ss.DeltaRowsCompared, ss.DeltaRowsHashed, ss.DeltaRowsBoxed, 2*compared, 2*residual, 2*d.Size())
		}
		if _, err := tmpl.EvalCtx(ctx, map[string]types.Value{}); err != nil {
			t.Fatal(err)
		}
		if ss := sess.Stats(); ss.DeltaRowsCompared != int64(2*compared) {
			t.Errorf("%s: a static template eval recounted its precomputed delta: %d", v, ss.DeltaRowsCompared)
		}
	}
}
