package exec_test

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"github.com/mahif/mahif/internal/algebra"
	"github.com/mahif/mahif/internal/exec"
	"github.com/mahif/mahif/internal/storage"
	"github.com/mahif/mahif/internal/types"
)

// A Program leaves its result as rows (RunCtx) or in columnar form
// (RunColumnarCtx). The row sink boxes every batch as it arrives and
// knows nothing of lanes, so it is the oracle here: the view read back
// as rows must be the row result, tuple for tuple and cell for cell.

// requireIdenticalRelation is requireSameRelation by rendering: 1 is not
// 1.0, and a column that changed lane must still read back the kinds it
// was given.
func requireIdenticalRelation(t *testing.T, label string, want, got *storage.Relation) {
	t.Helper()
	requireSameRelation(t, label, want, got)
	for i := range want.Tuples {
		if got.Tuples[i].String() != want.Tuples[i].String() {
			t.Fatalf("%s: tuple %d = %s, want %s", label, i, got.Tuples[i], want.Tuples[i])
		}
	}
}

// requireColumnarRunMatchesRowRun runs prog both ways over db.
func requireColumnarRunMatchesRowRun(t *testing.T, label string, prog *exec.Program, db *storage.Database) *storage.ColumnarView {
	t.Helper()
	want, errR := prog.RunCtx(context.Background(), db)
	view, errC := prog.RunColumnarCtx(context.Background(), db)
	if fmt.Sprint(errR) != fmt.Sprint(errC) {
		t.Fatalf("%s: rows failed with %v, columnar with %v", label, errR, errC)
	}
	if errR != nil {
		if view != nil {
			t.Fatalf("%s: a failed run returned a view", label)
		}
		return nil
	}
	if view.Rows != len(want.Tuples) || len(view.Cols) != want.Schema.Arity() {
		t.Fatalf("%s: view is %d rows × %d columns, rows are %d × %d", label, view.Rows, len(view.Cols), len(want.Tuples), want.Schema.Arity())
	}
	requireIdenticalRelation(t, label, want, view.Relation())
	return view
}

// requireColumnarOnBothSources compiles q under every scan option and
// compares the two sinks over the private and the frozen form of one
// database.
func requireColumnarOnBothSources(t *testing.T, label string, q algebra.Query, private, frozen *storage.Database) {
	t.Helper()
	for name, opts := range scanOptions {
		prog, err := exec.CompileVec(q, private, opts)
		if err != nil {
			t.Fatalf("%s/%s: compile: %v", label, name, err)
		}
		requireColumnarRunMatchesRowRun(t, label+"/"+name+"/private", prog, private)
		requireColumnarRunMatchesRowRun(t, label+"/"+name+"/frozen", prog, frozen)
	}
}

// TestColumnarRunMatchesRowRun: the lane-edge corpus (NULL-heavy,
// all-NULL, late-NULL, one deviant cell, the 2^53 boundary, sizes around
// a batch) × every query shape, failing ones included, × private and
// frozen source × sequential, forced-parallel and off-block batch sizes.
func TestColumnarRunMatchesRowRun(t *testing.T) {
	for dbName, private := range laneEdgeDBs() {
		frozen, _ := publish(t, private)
		for qName, q := range laneEdgeQueries(t, private) {
			requireColumnarOnBothSources(t, dbName+"/"+qName, q, private, frozen)
		}
	}
}

// TestColumnarRunPlanShapes: join, union-with-singleton and aggregate
// roots, and the batch-boundary battery.
func TestColumnarRunPlanShapes(t *testing.T) {
	private := testDB()
	frozen, _ := publish(t, private)
	for name, q := range testQueries(t, private) {
		requireColumnarOnBothSources(t, name, q, private, frozen)
	}
	for _, rows := range []int{0, 1, 1023, 1024, 1025, 3*1024 + 17} {
		big := boundaryDB(rows)
		bigFrozen, _ := publish(t, big)
		for name, q := range boundaryQueries(t, big) {
			requireColumnarOnBothSources(t, fmt.Sprintf("boundary-%d/%s", rows, name), q, big, bigFrozen)
		}
	}
}

// TestColumnarRunKeepsTypedLanes: what makes the columnar result cheap
// is that a reenactment's columns stay on typed lanes from the shared
// view to the sink, and that a column which cannot — one deviant cell in
// a later batch of a private scan — is demoted, not corrupted.
func TestColumnarRunKeepsTypedLanes(t *testing.T) {
	dbs := laneEdgeDBs()
	q := laneEdgeQueries(t, dbs["late-null"])["reenact-chain"]
	for name, want := range map[string][4]types.Kind{
		"late-null":        {types.KindInt, types.KindInt, types.KindFloat, types.KindString},
		"one-deviant-cell": {types.KindInt, types.KindNull, types.KindFloat, types.KindString},
	} {
		private := dbs[name]
		frozen, _ := publish(t, private)
		for _, db := range []*storage.Database{private, frozen} {
			prog, err := exec.CompileVec(q, private, exec.VecOptions{Workers: 1})
			if err != nil {
				t.Fatal(err)
			}
			view := requireColumnarRunMatchesRowRun(t, name, prog, db)
			for c, k := range want {
				if view.Cols[c].Kind != k {
					t.Errorf("%s: column %d is on lane %s, want %s", name, c, view.Cols[c].Kind, k)
				}
			}
		}
	}
}

// TestColumnarFrozenPartsHaveSequentialLanes: a parallel scan's frozen
// batches, which the columnar sink keeps as its parts — as the whole
// result when only one batch survives — carry the lanes AppendRows
// gives a sequential run's result: the same kinds, and no NULL mask
// where no live cell is NULL, although the view's windows the workers
// read had one.
func TestColumnarFrozenPartsHaveSequentialLanes(t *testing.T) {
	private := laneEdgeDBs()["null-heavy"]
	frozen, _ := publish(t, private)
	for _, cond := range []string{"v IS NOT NULL AND f IS NOT NULL AND g IS NOT NULL", "k < 60 AND v IS NOT NULL AND f IS NOT NULL AND g IS NOT NULL"} {
		q := &algebra.Select{Cond: mustCond(t, cond), In: &algebra.Scan{Rel: "t"}}
		var views [2]*storage.ColumnarView
		for i, opts := range []exec.VecOptions{{Workers: 1}, {Workers: 3, MinParallelRows: 1, BatchSize: 100}} {
			prog, err := exec.CompileVec(q, private, opts)
			if err != nil {
				t.Fatal(err)
			}
			views[i] = requireColumnarRunMatchesRowRun(t, fmt.Sprintf("%s %+v", cond, opts), prog, frozen)
		}
		for c := range views[0].Cols {
			s, p := &views[0].Cols[c], &views[1].Cols[c]
			if s.Kind != p.Kind || (s.Nulls == nil) != (p.Nulls == nil) {
				t.Errorf("%s: column %d: sequential lane %s (mask %v), parallel %s (mask %v)", cond, c, s.Kind, s.Nulls != nil, p.Kind, p.Nulls != nil)
			}
		}
	}
}

// TestColumnarShortRowErrorParity: both sinks of a program report a
// short row with the same error, whichever way the relation is read.
func TestColumnarShortRowErrorParity(t *testing.T) {
	private := boundaryDB(2000)
	r, _ := private.Relation("t")
	r.Tuples[1500] = r.Tuples[1500][:2]
	frozen, _ := publish(t, private)
	q := &algebra.Select{Cond: mustCond(t, "k >= 0"), In: &algebra.Scan{Rel: "t"}}
	for name, opts := range scanOptions {
		prog, err := exec.CompileVec(q, private, opts)
		if err != nil {
			t.Fatal(err)
		}
		for _, db := range []*storage.Database{private, frozen} {
			requireColumnarRunMatchesRowRun(t, name, prog, db)
			if _, err := prog.RunColumnarCtx(context.Background(), db); err == nil {
				t.Fatalf("%s: a short row got through", name)
			}
		}
	}
}

// TestColumnarResultsOutliveParallelRuns is the race job's witness for
// the sink: forced-parallel workers freeze their batches in recycled
// scratch and the merge hands them to a view the caller keeps. Many
// goroutines run one Program at once, keep every view, and read them all
// only after the last run has returned — a view that aliased a worker's
// lanes would by then hold another run's rows.
func TestColumnarResultsOutliveParallelRuns(t *testing.T) {
	private := laneEdgeDBs()["null-heavy"]
	frozen, _ := publish(t, private)
	q := laneEdgeQueries(t, private)["reenact-chain"]
	want, err := algebra.Eval(q, private)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := exec.CompileVec(q, private, parallelOptions)
	if err != nil {
		t.Fatal(err)
	}
	const callers, rounds = 8, 4
	views := make([][]*storage.ColumnarView, callers)
	errs := make([]error, callers)
	var wg sync.WaitGroup
	for g := range views {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < rounds && errs[g] == nil; i++ {
				db := frozen
				if (g+i)%3 == 0 {
					db = private
				}
				var v *storage.ColumnarView
				v, errs[g] = prog.RunColumnarCtx(context.Background(), db)
				views[g] = append(views[g], v)
			}
		}(g)
	}
	wg.Wait()
	for g := range views {
		if errs[g] != nil {
			t.Fatalf("caller %d: %v", g, errs[g])
		}
		for i, v := range views[g] {
			requireIdenticalRelation(t, fmt.Sprintf("caller %d run %d", g, i), want, v.Relation())
		}
	}
}
