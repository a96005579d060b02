package core

import (
	"context"
	"sync"
	"testing"

	"github.com/mahif/mahif/internal/algebra"
	"github.com/mahif/mahif/internal/expr"
	"github.com/mahif/mahif/internal/history"
	"github.com/mahif/mahif/internal/schema"
	"github.com/mahif/mahif/internal/storage"
	"github.com/mahif/mahif/internal/types"
	"github.com/mahif/mahif/internal/workload"
)

// TestSessionCompressesOncePerSnapshot (run under -race): concurrent
// what-ifs through one session that time-travel to the same version
// scan the relation for Φ_D once; every later call, concurrent or not,
// takes the Φ_D remembered on the snapshot, and the answers are those
// of a bare engine, which compresses afresh every time.
func TestSessionCompressesOncePerSnapshot(t *testing.T) {
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
	want, wantStats, err := engine.WhatIf(w.Mods, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}

	sess := engine.NewSession()
	const callers = 8
	var wg sync.WaitGroup
	for g := 0; g < callers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got, st, err := sess.WhatIfCtx(context.Background(), w.Mods, DefaultOptions())
			if err != nil {
				t.Error(err)
				return
			}
			if !got[rel].Equal(want[rel]) {
				t.Error("session delta differs from the bare engine's")
			}
			if st.KeptStatements != wantStats.KeptStatements || st.SolverTests != wantStats.SolverTests {
				t.Errorf("session kept %d after %d tests, bare engine %d after %d: a different Φ_D was sliced against",
					st.KeptStatements, st.SolverTests, wantStats.KeptStatements, wantStats.SolverTests)
			}
		}()
	}
	wg.Wait()
	st := sess.Stats()
	if st.CompressMisses != 1 || st.CompressHits != callers-1 {
		t.Errorf("%d what-ifs on one version: %d Φ_D scans, %d reuses; want 1, %d", callers, st.CompressMisses, st.CompressHits, callers-1)
	}
}

// TestSessionTransposesOncePerSnapshot (run under -race): concurrent
// what-ifs through one session that time-travel to the same version
// build that snapshot's columnar view once — the scans of both sides
// alias the one view — and the view's counters and Φ_D's do not leak
// into each other.
func TestSessionTransposesOncePerSnapshot(t *testing.T) {
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
	rel := w.Dataset.Rel.Schema.Relation
	want, _, err := engine.WhatIf(w.Mods, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}

	sess := engine.NewSession()
	const callers = 8
	var wg sync.WaitGroup
	for g := 0; g < callers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got, _, err := sess.WhatIfCtx(context.Background(), w.Mods, DefaultOptions())
			if err != nil {
				t.Error(err)
				return
			}
			if !got[rel].Equal(want[rel]) {
				t.Error("session delta differs from the bare engine's")
			}
		}()
	}
	wg.Wait()
	st := sess.Stats()
	if st.ColumnarMisses != 1 || st.ColumnarHits < 1 {
		t.Errorf("%d what-ifs on one version: %d transpositions, %d view reuses; want 1 and the other side's scan reusing it", callers, st.ColumnarMisses, st.ColumnarHits)
	}
	if st.CompressMisses != 1 || st.CompressHits != callers-1 {
		t.Errorf("the view moved Φ_D's counters: %d scans, %d reuses; want 1, %d", st.CompressMisses, st.CompressHits, callers-1)
	}
}

// TestInterpreterFallbackIsCounted: a query outside the compilable
// subset still gets its answer from the interpreter, whether or not the
// evaluator counts its compiles into a session, and each such
// evaluation shows in Engine.InterpreterFallbacks; asking for the
// interpreter does not.
func TestInterpreterFallbackIsCounted(t *testing.T) {
	db := storage.NewDatabase()
	db.AddRelation(storage.NewRelation(schema.New("r", schema.Col("a", types.KindInt))))
	engine := New(storage.NewVersioned(db))
	// A symbolic variable cannot be lowered; over an empty relation the
	// interpreter never has to evaluate it.
	q := &algebra.Select{Cond: expr.Ge(expr.Variable("v"), expr.IntConst(1)), In: &algebra.Scan{Rel: "r"}}

	steps := []struct {
		kind    ExecutorKind
		counted bool
		want    int64
	}{
		{ExecVectorized, false, 1},
		{ExecInterpreter, false, 1},
		{ExecVectorized, true, 2},
		{ExecInterpreter, true, 2},
	}
	work := &sessionWork{}
	for i, s := range steps {
		ev := engine.newEvaluator(context.Background(), Options{Executor: s.kind})
		if s.counted {
			ev.work = work
		}
		out, err := ev.runView(q, db)
		if err != nil || out.Rows != 0 {
			t.Fatalf("step %d: eval = %v, %v; want the empty relation", i, out, err)
		}
		if got := engine.InterpreterFallbacks(); got != s.want {
			t.Errorf("step %d (%s, counted=%v): %d fallbacks counted, want %d", i, s.kind, s.counted, got, s.want)
		}
	}
	// The counted vectorized step tried one compile; the interpreter
	// compiles nothing.
	if n := work.compiled.Load(); n != 1 {
		t.Errorf("%d compiles counted, want 1", n)
	}
	if st := engine.NewSession().Stats(); st.InterpreterFallbacks != 2 {
		t.Errorf("SessionStats.InterpreterFallbacks = %d, want the engine's 2", st.InterpreterFallbacks)
	}
}

// TestSnapshotArtifactsPerSession: a what-if that replaces statement 0
// time-travels to the base. Each session publishes that state as a
// snapshot of its own, so each counts its own Φ_D scan and columnar
// transposition, and Invalidate drops both with the snapshot: the next
// call scans and transposes afresh.
func TestSnapshotArtifactsPerSession(t *testing.T) {
	w, err := workload.Generate(workload.Taxi(3000, 1), workload.Config{
		Updates: 10, Mods: 1, DependentPct: 20, AffectedPct: 10, Seed: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if pos := w.Mods[0].(history.Replace).Pos; pos != 0 {
		t.Fatalf("the what-if replaces statement %d, want 0", pos)
	}
	vdb, err := w.Load()
	if err != nil {
		t.Fatal(err)
	}
	engine := New(vdb)
	whatIf := func(label string, sess *Session) {
		t.Helper()
		if _, _, err := sess.WhatIf(w.Mods, DefaultOptions()); err != nil {
			t.Fatal(err)
		}
		if st := sess.Stats(); st.CompressMisses != 1 || st.ColumnarMisses != 1 {
			t.Errorf("%s: %d Φ_D scans and %d transpositions counted, want 1 and 1", label, st.CompressMisses, st.ColumnarMisses)
		}
	}
	whatIf("session 1", engine.NewSession())
	sess := engine.NewSession()
	whatIf("session 2", sess)
	sess.Invalidate()
	whatIf("session 2 after Invalidate", sess)
}
