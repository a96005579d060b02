package exec_test

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"

	"github.com/mahif/mahif/internal/algebra"
	"github.com/mahif/mahif/internal/exec"
	"github.com/mahif/mahif/internal/expr"
	"github.com/mahif/mahif/internal/schema"
	"github.com/mahif/mahif/internal/storage"
	"github.com/mahif/mahif/internal/types"
)

// A scan reads windows of a columnar view: a frozen relation's
// (published by a SnapshotCache) shared view, or the view a private
// relation is transposed into for the run. These tests run the same
// programs over both forms of the same data and over the interpreter,
// which knows neither.

// publish returns db's contents as a SnapshotCache hands them out:
// every relation frozen, nothing shared with db, which stays private.
func publish(t testing.TB, db *storage.Database) (*storage.Database, *storage.SnapshotCache) {
	t.Helper()
	cache := storage.NewSnapshotCache(storage.NewVersioned(db))
	frozen, err := cache.SnapshotCtx(context.Background(), 0)
	if err != nil {
		t.Fatal(err)
	}
	return frozen, cache
}

// scanOptions are the ways a scan is driven: one worker, forced
// partitions, and batch sizes off the view's 1024-row NULL blocks.
var scanOptions = map[string]exec.VecOptions{
	"sequential":    {Workers: 1},
	"parallel":      parallelOptions,
	"small-batches": {BatchSize: 100, Workers: 3, MinParallelRows: 1},
	"large-batches": {BatchSize: 4096, Workers: 1},
}

// requireSameOnBothSources runs q sequentially and partitioned over the
// private and the frozen form of one database and requires, per run,
// the interpreter's tuples in the interpreter's order — or the same
// failure: the two sources must agree on the error text, and with the
// interpreter on whether there is one.
func requireSameOnBothSources(t *testing.T, label string, q algebra.Query, private, frozen *storage.Database) {
	t.Helper()
	want, errI := algebra.Eval(q, private)
	for name, opts := range scanOptions {
		prog, err := exec.CompileVec(q, private, opts)
		if err != nil {
			t.Fatalf("%s/%s: compile: %v", label, name, err)
		}
		gotP, errP := prog.RunCtx(context.Background(), private)
		gotF, errF := prog.RunCtx(context.Background(), frozen)
		if (errI == nil) != (errP == nil) || fmt.Sprint(errP) != fmt.Sprint(errF) {
			t.Fatalf("%s/%s: error divergence: interpreter=%v private=%v frozen=%v", label, name, errI, errP, errF)
		}
		if errI != nil {
			continue
		}
		requireSameRelation(t, label+"/"+name+"/private", want, gotP)
		requireSameRelation(t, label+"/"+name+"/frozen", want, gotF)
	}
}

// laneEdgeDBs builds t(k int, v int, f float, g string) in the shapes
// that decide which lane a column takes and whether it carries a mask.
func laneEdgeDBs() map[string]*storage.Database {
	sch := func() *schema.Schema {
		return schema.New("t",
			schema.Col("k", types.KindInt), schema.Col("v", types.KindInt),
			schema.Col("f", types.KindFloat), schema.Col("g", types.KindString))
	}
	groups := []string{"a", "b", "c", "d"}
	plain := func(i int) schema.Tuple {
		return schema.NewTuple(types.Int(int64(i)), types.Int(int64(i%997)), types.Float(float64(i%13)/2), types.String(groups[i%4]))
	}
	build := func(rows int, row func(i int) schema.Tuple) *storage.Database {
		db := storage.NewDatabase()
		r := storage.NewRelation(sch())
		for i := 0; i < rows; i++ {
			r.Add(row(i))
		}
		db.AddRelation(r)
		return db
	}
	const two53 = int64(1) << 53
	ints := []int64{two53 - 1, two53, two53 + 1, -(two53 + 1), math.MaxInt64, math.MinInt64, 7}
	floats := []float64{float64(two53), float64(two53) + 2, -float64(two53), 0.5, 1e300}
	dbs := map[string]*storage.Database{
		// NULLs in every typed lane, except that rows 1024–2047 hold
		// none: that block's windows must come without a mask.
		"null-heavy": build(3*1024+17, func(i int) schema.Tuple {
			tp := plain(i)
			if i >= 1024 && i < 2048 {
				return tp
			}
			if i%3 != 0 {
				tp[1] = types.Null()
			}
			if i%2 == 0 {
				tp[2] = types.Null()
			}
			if i%5 == 0 {
				tp[3] = types.Null()
			}
			return tp
		}),
		"all-null": build(1500, func(i int) schema.Tuple {
			return schema.NewTuple(types.Int(int64(i)), types.Null(), types.Null(), types.Null())
		}),
		// One float cell in an int column: the private scan boxes the one
		// batch holding it, the view boxes the whole column.
		"one-deviant-cell": build(2100, func(i int) schema.Tuple {
			tp := plain(i)
			if i == 1500 {
				tp[1] = types.Float(12.5)
			}
			return tp
		}),
		// The first NULL of every lane arrives in the third batch: a result
		// accumulated lane-wise has to back-fill its mask.
		"late-null": build(3*1024, func(i int) schema.Tuple {
			tp := plain(i)
			if i >= 2500 && i%3 == 0 {
				tp[1], tp[2], tp[3] = types.Null(), types.Null(), types.Null()
			}
			return tp
		}),
		"int-float-boundary": build(1030, func(i int) schema.Tuple {
			return schema.NewTuple(types.Int(ints[i%len(ints)]), types.Int(int64(i%50)), types.Float(floats[i%len(floats)]), types.String(groups[i%4]))
		}),
	}
	for _, rows := range []int{0, 1, 100, 1023, 1024, 1025} {
		dbs[fmt.Sprintf("plain-%d-rows", rows)] = build(rows, plain)
	}
	return dbs
}

// laneEdgeQueries are scans of t whose kernels specialise on the lane:
// typed comparisons at the int/float precision boundary, three-leg
// conjunctions and disjunctions over the int, float and string lanes,
// every typedIf producer under a data-slicing σ, the
// boxed arithmetic fallback, multiset operators, an aggregate, and two
// shapes that fail on some row.
func laneEdgeQueries(t *testing.T, db *storage.Database) map[string]algebra.Query {
	t.Helper()
	tSch, err := algebra.OutputSchema(&algebra.Scan{Rel: "t"}, db)
	if err != nil {
		t.Fatal(err)
	}
	scan := func() algebra.Query { return &algebra.Scan{Rel: "t"} }
	sel := func(cond string, in algebra.Query) algebra.Query {
		return &algebra.Select{Cond: mustCond(t, cond), In: in}
	}
	set := func(col int, cond string, then expr.Expr, in algebra.Query) algebra.Query {
		exprs := identityProjection(tSch)
		exprs[col].E = expr.IfThenElse(mustCond(t, cond), then, expr.Column(tSch.Columns[col].Name))
		return &algebra.Project{Exprs: exprs, In: in}
	}
	chain := sel("k >= 0 OR v IS NULL", scan())
	chain = set(1, "v >= 100", expr.Add(expr.Column("v"), expr.IntConst(7)), chain)
	chain = set(2, "f < 3 AND g = 'b'", expr.Mul(expr.Column("f"), expr.FloatConst(1.5)), chain)
	chain = set(3, "v IS NULL", expr.StringConst("was-null"), chain)
	chain = set(1, "g = 'c'", expr.Constant(types.Null()), chain)
	chain = sel("NOT (k = 3 AND g = 'd')", chain)
	chain = set(1, "v < 5", expr.IntConst(0), chain)

	return map[string]algebra.Query{
		"scan":            scan(),
		"all-filtered":    sel("v < 0 AND k < 0 AND k > 0", scan()),
		"int-cmp":         sel("v >= 10", scan()),
		"int-eq-2^53+1":   sel("k = 9007199254740993", scan()),
		"int-ge-2^53":     sel("k >= 9007199254740992", scan()),
		"int-lt-neg-2^53": sel("k < -9007199254740992", scan()),
		"float-ge-2^53":   sel("f >= 9007199254740992", scan()),
		"null-or-string":  sel("v IS NULL OR g = 'a'", scan()),
		"and-three-lanes": sel("f < 3 AND g = 'b' AND v >= 2", scan()),
		// The OR mirror of the conjunction, under a NOT: a row whose OR is
		// FALSE and one whose OR is NULL leave the σ differently.
		"or-three-lanes": sel("NOT (f >= 3 OR g <> 'b' OR v < 2)", scan()),
		"reenact-chain":  chain,
		// A SET that writes a float into an int column, in later batches
		// only: the column leaves its lane inside one result.
		"set-float-into-int": set(1, "k >= 1500", expr.Mul(expr.Column("v"), expr.FloatConst(1.5)), scan()),
		"boxed-arith": &algebra.Project{Exprs: []algebra.NamedExpr{
			{Name: "k", E: expr.Column("k")},
			{Name: "x", E: expr.Add(expr.Column("v"), expr.IntConst(1))},
			{Name: "y", E: expr.Mul(expr.Column("f"), expr.Column("v"))},
		}, In: sel("v < 900", scan())},
		"union":       &algebra.Union{L: sel("v < 3", scan()), R: sel("g = 'a'", chain)},
		"aggregate":   mustQuery(t, "SELECT g, COUNT(*), SUM(v), MIN(f), MAX(k) FROM t WHERE v >= 2 OR v IS NULL GROUP BY g"),
		"global-sum":  mustQuery(t, "SELECT SUM(v), SUM(f), COUNT(g) FROM t"),
		"div-by-cell": sel("100 / v > 0", scan()),
		"ill-typed": &algebra.Project{Exprs: []algebra.NamedExpr{
			{Name: "x", E: expr.Add(expr.Column("g"), expr.IntConst(1))},
		}, In: sel("k >= 1000", scan())},
	}
}

// TestFrozenScanMatchesPrivateScan is the differential over the
// typed-lane edge cases: NULL-heavy and all-NULL columns, a column with
// one kind-deviant cell, the 2^53 int/float boundary, and relations
// that are empty, smaller than a batch, or not a multiple of one.
func TestFrozenScanMatchesPrivateScan(t *testing.T) {
	for dbName, private := range laneEdgeDBs() {
		frozen, cache := publish(t, private)
		for qName, q := range laneEdgeQueries(t, private) {
			requireSameOnBothSources(t, dbName+"/"+qName, q, private, frozen)
		}
		// One build served every scan of the frozen database; the private
		// database asked for none.
		if hits, misses := cache.ColumnarStats(); misses != 1 || hits == 0 {
			t.Errorf("%s: %d view builds, %d reuses; want 1 build, reused", dbName, misses, hits)
		}
	}
}

// TestFrozenScanPlanShapes runs the plan-shape battery (joins, unions
// with singletons, nested combinations) and the
// batch-boundary battery over both sources.
func TestFrozenScanPlanShapes(t *testing.T) {
	private := testDB()
	frozen, _ := publish(t, private)
	for name, q := range testQueries(t, private) {
		requireSameOnBothSources(t, name, q, private, frozen)
	}
	big := boundaryDB(3*1024 + 17)
	bigFrozen, _ := publish(t, big)
	for name, q := range boundaryQueries(t, big) {
		requireSameOnBothSources(t, "boundary/"+name, q, big, bigFrozen)
	}
}

// TestFrozenShortRowErrorParity: a relation holding a tuple shorter
// than its schema fails a scan with the same error whichever way it is
// read — from the view's one-time build, not from indexing past the
// tuple — and keeps failing.
func TestFrozenShortRowErrorParity(t *testing.T) {
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
		for _, db := range []*storage.Database{private, frozen, frozen} {
			_, err := prog.RunCtx(context.Background(), db)
			if err == nil || err.Error() != "exec: row arity 2 below attribute index 2" {
				t.Fatalf("%s: short row: got %v, want the executor's row-arity error", name, err)
			}
		}
	}
}

// cloneCols deep-copies a view's lanes.
func cloneCols(view *storage.ColumnarView) []storage.ColVec {
	out := make([]storage.ColVec, len(view.Cols))
	for c, col := range view.Cols {
		out[c] = storage.ColVec{Kind: col.Kind, Ints: slices.Clone(col.Ints), Floats: slices.Clone(col.Floats),
			Strs: slices.Clone(col.Strs), Nulls: slices.Clone(col.Nulls), Vals: slices.Clone(col.Vals)}
	}
	return out
}

// sharedView returns the view the executor scans t through.
func sharedView(t *testing.T, frozen *storage.Database) *storage.ColumnarView {
	t.Helper()
	r, err := frozen.Relation("t")
	if err != nil {
		t.Fatal(err)
	}
	view, err := r.SharedColumnar()
	if err != nil || view == nil {
		t.Fatalf("published relation has no shared view: %v", err)
	}
	return view
}

// TestFrozenThenPrivateRunLeavesViewIntact pins the hazard of a pooled
// chain run: one Program scans a frozen relation, then a private one,
// then the frozen one again, on one recycled chainRun. The run keeps
// its lanes from one scan to the next and refills them (the typed IF's
// ELSE copy); were a window of the shared view ever one of them, the
// private scan would overwrite the view. The frozen relation is a whole
// number of batches so that its last window is as large as the private
// scan's first fill.
func TestFrozenThenPrivateRunLeavesViewIntact(t *testing.T) {
	a := boundaryDB(2 * 1024)
	frozen, _ := publish(t, a)
	b := storage.NewDatabase()
	rb := storage.NewRelation(schema.New("t",
		schema.Col("k", types.KindInt), schema.Col("v", types.KindInt), schema.Col("g", types.KindString)))
	for i := 0; i < 2*1024; i++ {
		rb.Add(schema.NewTuple(types.Int(int64(-i)), types.Int(int64(i%31)), types.String("zz")))
	}
	b.AddRelation(rb)

	view := sharedView(t, frozen)
	before := cloneCols(view)
	for name, q := range boundaryQueries(t, a) {
		wantA, err := algebra.Eval(q, a)
		if err != nil {
			t.Fatal(err)
		}
		wantB, err := algebra.Eval(q, b)
		if err != nil {
			t.Fatal(err)
		}
		prog, err := exec.CompileVec(q, a, exec.VecOptions{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		// Repeated: a sync.Pool may drop the run between two calls.
		for round := 0; round < 8; round++ {
			for step, src := range []struct {
				db   *storage.Database
				want *storage.Relation
			}{{frozen, wantA}, {b, wantB}, {frozen, wantA}} {
				got, err := prog.RunCtx(context.Background(), src.db)
				if err != nil {
					t.Fatalf("%s round %d step %d: %v", name, round, step, err)
				}
				requireSameRelation(t, fmt.Sprintf("%s round %d step %d", name, round, step), src.want, got)
			}
		}
		if !reflect.DeepEqual(before, view.Cols) {
			t.Fatalf("%s: a private run through the same program wrote into the shared view", name)
		}
	}
}

// TestFrozenViewUnchangedByMixedRuns: after 100 runs drawn from every
// query shape and scan option, some failing, the shared view is what it
// was when built — nothing downstream of the source writes through an
// aliased lane.
func TestFrozenViewUnchangedByMixedRuns(t *testing.T) {
	private := laneEdgeDBs()["null-heavy"]
	frozen, _ := publish(t, private)
	view := sharedView(t, frozen)
	before := cloneCols(view)

	var progs []*exec.Program
	for _, q := range laneEdgeQueries(t, private) {
		for _, opts := range scanOptions {
			prog, err := exec.CompileVec(q, private, opts)
			if err != nil {
				t.Fatal(err)
			}
			progs = append(progs, prog)
		}
	}
	rng := rand.New(rand.NewSource(19))
	for i := 0; i < 100; i++ {
		db := frozen
		if rng.Intn(4) == 0 {
			db = private
		}
		_, _ = progs[rng.Intn(len(progs))].RunCtx(context.Background(), db) // results are the differential's business
	}
	if !reflect.DeepEqual(before, view.Cols) {
		t.Fatal("100 mixed runs changed the shared view")
	}
}

// TestFrozenParallelScansShareOneView is the race job's witness: many
// goroutines start forced-parallel scans of one frozen relation whose
// view nobody has built yet. One of them builds it, all read it, every
// result is the interpreter's.
func TestFrozenParallelScansShareOneView(t *testing.T) {
	private := laneEdgeDBs()["null-heavy"]
	frozen, cache := publish(t, private)
	qs := laneEdgeQueries(t, private)
	q := qs["reenact-chain"]
	want, err := algebra.Eval(q, private)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := exec.CompileVec(q, private, parallelOptions)
	if err != nil {
		t.Fatal(err)
	}
	const callers = 8
	var wg sync.WaitGroup
	results := make([]*storage.Relation, callers)
	errs := make([]error, callers)
	for g := 0; g < callers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 3 && errs[g] == nil; i++ {
				results[g], errs[g] = prog.RunCtx(context.Background(), frozen)
			}
		}(g)
	}
	wg.Wait()
	for g := range results {
		if errs[g] != nil {
			t.Fatalf("caller %d: %v", g, errs[g])
		}
		requireSameRelation(t, fmt.Sprintf("caller %d", g), want, results[g])
	}
	if hits, misses := cache.ColumnarStats(); misses != 1 || hits != 3*callers-1 {
		t.Errorf("%d concurrent scans: %d view builds, %d reuses; want 1, %d", 3*callers, misses, hits, 3*callers-1)
	}
}

// TestSharedColumnarReleasedByPooledScan: a frozen scan's run state goes
// back to its program's pool, but the view it borrowed does not stay
// reachable through it — once the snapshot is dropped, one collection
// frees the view's lanes while the program lives on, sequential and
// partitioned, run alone or as both sides of a pair scan. (A sync.Pool
// keeps what it holds through one collection, so a window of a lane
// left in a pooled run would survive this one.)
func TestSharedColumnarReleasedByPooledScan(t *testing.T) {
	db := storage.NewDatabase()
	rel := storage.NewRelation(schema.New("t", schema.Col("k", types.KindInt), schema.Col("v", types.KindInt)))
	for i := 0; i < 3000; i++ {
		rel.Add(schema.Tuple{types.Int(int64(i)), types.Int(int64(i % 17))})
	}
	db.AddRelation(rel)
	q := &algebra.Project{
		Exprs: []algebra.NamedExpr{{Name: "k", E: expr.Column("k")}, {Name: "v", E: expr.Add(expr.Column("v"), expr.IntConst(1))}},
		In:    &algebra.Select{Cond: expr.Ge(expr.Column("v"), expr.IntConst(3)), In: &algebra.Scan{Rel: "t"}},
	}
	for name, opts := range map[string]exec.VecOptions{"sequential": {Workers: 1}, "parallel": parallelOptions} {
		for _, pair := range []bool{false, true} {
			label := name
			if pair {
				label += "-pair"
			}
			t.Run(label, func(t *testing.T) {
				prog, err := exec.CompileVec(q, db, opts)
				if err != nil {
					t.Fatal(err)
				}
				released := make(chan int, 2)
				func() {
					frozen, _ := publish(t, db)
					r, _ := frozen.Relation("t")
					view, err := r.SharedColumnar()
					if err != nil {
						t.Fatal(err)
					}
					for c := range view.Cols {
						runtime.SetFinalizer(&view.Cols[c].Ints[0], func(*int64) { released <- c })
					}
					if pair {
						_, _, err = exec.RunPairCtx(context.Background(), prog, prog, frozen)
					} else {
						_, err = prog.RunCtx(context.Background(), frozen)
					}
					if err != nil {
						t.Fatal(err)
					}
				}()
				runtime.GC()
				for range 2 {
					select {
					case <-released:
					case <-time.After(5 * time.Second):
						t.Fatal("a lane of the view outlived its snapshot: a pooled run still holds it")
					}
				}
				runtime.KeepAlive(prog)
			})
		}
	}
}

// TestPrivateRelationScannedTwice: one program scans the same private
// relation twice — a union of two chains over it, and an equi-join of
// it with a renamed chain over itself — and each scan transposes it on
// its own. Both sources and the interpreter agree under every scan
// option.
func TestPrivateRelationScannedTwice(t *testing.T) {
	private := boundaryDB(3*1024 + 17)
	frozen, _ := publish(t, private)
	scan := func() algebra.Query { return &algebra.Scan{Rel: "t"} }
	renamed := &algebra.Project{
		Exprs: []algebra.NamedExpr{{Name: "k2", E: expr.Column("k")}, {Name: "g2", E: expr.Column("g")}},
		In:    &algebra.Select{Cond: mustCond(t, "v < 50"), In: scan()},
	}
	for name, q := range map[string]algebra.Query{
		"union": &algebra.Union{
			L: &algebra.Select{Cond: mustCond(t, "v < 100"), In: scan()},
			R: &algebra.Select{Cond: mustCond(t, "g = 'a'"), In: scan()},
		},
		"self-join": &algebra.Join{L: scan(), R: renamed, Cond: mustCond(t, "k = k2")},
	} {
		requireSameOnBothSources(t, name, q, private, frozen)
	}
}

// TestPrivateParallelScansConcurrent: concurrent callers run one
// program's forced-partitioned scans of one private relation — both
// sinks and a pair run — each run transposing the relation for itself
// and splitting that view by row range. Every answer is the
// interpreter's, and the relation stays private and unchanged. Run it
// under -race.
func TestPrivateParallelScansConcurrent(t *testing.T) {
	private := laneEdgeDBs()["null-heavy"]
	r, err := private.Relation("t")
	if err != nil {
		t.Fatal(err)
	}
	before := fmt.Sprint(r.Tuples)
	q := laneEdgeQueries(t, private)["reenact-chain"]
	want, err := algebra.Eval(q, private)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := exec.CompileVec(q, private, parallelOptions)
	if err != nil {
		t.Fatal(err)
	}
	const callers = 8
	var wg sync.WaitGroup
	errs := make([]error, callers)
	for g := 0; g < callers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 3; i++ {
				rows, err := prog.RunCtx(context.Background(), private)
				if err != nil {
					errs[g] = err
					return
				}
				view, err := prog.RunColumnarCtx(context.Background(), private)
				if err != nil {
					errs[g] = err
					return
				}
				res, route, err := exec.RunPairCtx(context.Background(), prog, prog, private)
				if err != nil || route != exec.Paired {
					errs[g] = fmt.Errorf("pair: route %d, %v", route, err)
					return
				}
				differ := res.Old.Rows + res.New.Rows
				compared := res.Compared
				res.Release()
				switch {
				case fmt.Sprint(rows.Tuples) != fmt.Sprint(want.Tuples):
					errs[g] = fmt.Errorf("RunCtx: %v, want %v", rows.Tuples, want.Tuples)
				case fmt.Sprint(view.Relation().Tuples) != fmt.Sprint(want.Tuples):
					errs[g] = fmt.Errorf("RunColumnarCtx: %v, want %v", view.Relation().Tuples, want.Tuples)
				case differ != 0 || compared != len(want.Tuples):
					errs[g] = fmt.Errorf("a program paired with itself kept %d differing rows of %d compared, want 0 of %d", differ, compared, len(want.Tuples))
				}
				if errs[g] != nil {
					return
				}
			}
		}(g)
	}
	wg.Wait()
	for g, err := range errs {
		if err != nil {
			t.Fatalf("caller %d: %v", g, err)
		}
	}
	if view, err := r.SharedColumnar(); view != nil || err != nil {
		t.Fatalf("the private relation has a shared view (%v)", err)
	}
	if fmt.Sprint(r.Tuples) != before {
		t.Fatal("a scan changed the private relation's rows")
	}
}
