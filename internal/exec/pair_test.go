package exec_test

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"github.com/mahif/mahif/internal/delta"
	"github.com/mahif/mahif/internal/exec"
	"github.com/mahif/mahif/internal/history"
	"github.com/mahif/mahif/internal/reenact"
	"github.com/mahif/mahif/internal/schema"
	"github.com/mahif/mahif/internal/sql"
	"github.com/mahif/mahif/internal/storage"
	"github.com/mahif/mahif/internal/types"
)

// A pair run (RunPairCtx) answers the delta's mark step for two
// reenactment programs in one scan. Its oracle is the general path:
// each program run alone (RunColumnarCtx), the original side first,
// and the two views diffed by delta.ComputeColumnar. These tests hold
// the pair to it: the same Minus and Plus in the same order, the same
// Work, the same error text, or a fallback route.

// pairOracle is the general path's answer for orig and mod over db.
func pairOracle(orig, mod *exec.Program, db *storage.Database) (*delta.Result, delta.Work, error) {
	ro, err := orig.RunColumnarCtx(context.Background(), db)
	if err != nil {
		return nil, delta.Work{}, err
	}
	rm, err := mod.RunColumnarCtx(context.Background(), db)
	if err != nil {
		return nil, delta.Work{}, err
	}
	d, w := delta.ComputeColumnar(ro, rm)
	return d, w, nil
}

// requireIdenticalTuples requires the same tuples in the same order,
// rendered alike (1 is not 1.0).
func requireIdenticalTuples(t *testing.T, label string, got, want []schema.Tuple) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d tuples, want %d\ngot  %v\nwant %v", label, len(got), len(want), got, want)
	}
	for i := range want {
		if got[i].String() != want[i].String() {
			t.Fatalf("%s: tuple %d is %s, want %s", label, i, got[i], want[i])
		}
	}
}

// requirePairMatchesOracle runs orig and mod as a pair over db and
// requires the oracle's answer, or a fallback. It returns the route the
// pair took.
func requirePairMatchesOracle(t *testing.T, label string, orig, mod *exec.Program, db *storage.Database) exec.PairRoute {
	t.Helper()
	want, wantWork, wantErr := pairOracle(orig, mod, db)
	res, route, err := exec.RunPairCtx(context.Background(), orig, mod, db)
	switch {
	case err != nil:
		if wantErr == nil || err.Error() != wantErr.Error() {
			t.Fatalf("%s: pair failed with %v, the general path with %v", label, err, wantErr)
		}
		return route
	case route != exec.Paired:
		if res != nil {
			t.Fatalf("%s: route %d came with a residual", label, route)
		}
		return route
	case wantErr != nil:
		t.Fatalf("%s: pair succeeded, the general path failed with %v", label, wantErr)
	}
	got, work := delta.ComputeResidual(res.Old, res.New, res.Compared)
	res.Release()
	requireIdenticalTuples(t, label+": Minus", got.Minus, want.Minus)
	requireIdenticalTuples(t, label+": Plus", got.Plus, want.Plus)
	if work != wantWork {
		t.Fatalf("%s: work %+v, want %+v", label, work, wantWork)
	}
	if got.Relation != want.Relation || got.Schema != want.Schema {
		t.Fatalf("%s: delta of %s %v, want %s %v", label, got.Relation, got.Schema, want.Relation, want.Schema)
	}
	return route
}

// pairTable builds t(k int, v int, f float, g string) with n rows: k is
// the row's position, the other cells are drawn from pools that hold
// NULLs, NaN, the int/float boundary and, in v, a float or a string
// that puts the column on another lane.
func pairTable(rng *rand.Rand, n int) *storage.Database {
	r := storage.NewRelation(schema.New("t",
		schema.Col("k", types.KindInt), schema.Col("v", types.KindInt),
		schema.Col("f", types.KindFloat), schema.Col("g", types.KindString)))
	vs := []types.Value{types.Int(0), types.Int(1), types.Int(5), types.Int(-3), types.Int(1 << 53), types.Null()}
	fs := []types.Value{types.Float(0), types.Float(1), types.Float(2.5), types.Float(math.NaN()), types.Float(1 << 53), types.Null()}
	gs := []types.Value{types.String("a"), types.String("b"), types.String(""), types.Null()}
	deviant := rng.Intn(3) == 0
	for i := 0; i < n; i++ {
		v := vs[rng.Intn(len(vs))]
		if deviant && rng.Intn(8) == 0 {
			v = []types.Value{types.Float(1), types.String("x")}[rng.Intn(2)]
		}
		r.Add(schema.NewTuple(types.Int(int64(i)), v, fs[rng.Intn(len(fs))], gs[rng.Intn(len(gs))]))
	}
	db := storage.NewDatabase()
	db.AddRelation(r)
	return db
}

// pairStatement draws one statement over t: updates of every lane
// (some that move v to a float lane or set NULLs), an update that fails
// on the row k = x (string arithmetic) or on k = 0 (division by zero),
// and, when others allows, a DELETE or an INSERT.
func pairStatement(rng *rand.Rand, n int, others bool) string {
	x := rng.Intn(n + 1)
	updates := []string{
		fmt.Sprintf("UPDATE t SET v = v + 1 WHERE k >= %d", x),
		fmt.Sprintf("UPDATE t SET v = v + 0.5 WHERE k < %d", x),
		fmt.Sprintf("UPDATE t SET f = f * 2 WHERE v >= %d", x%7),
		fmt.Sprintf("UPDATE t SET g = 'z' WHERE k = %d OR f < 1", x),
		fmt.Sprintf("UPDATE t SET v = NULL WHERE k > %d", x),
		fmt.Sprintf("UPDATE t SET f = f + v WHERE g = 'a' AND k <= %d", x),
		fmt.Sprintf("UPDATE t SET v = g + 1 WHERE k = %d", x),
		fmt.Sprintf("UPDATE t SET f = v / k WHERE k < %d", 1+x%2),
	}
	if others && rng.Intn(3) == 0 {
		if rng.Intn(2) == 0 {
			return fmt.Sprintf("DELETE FROM t WHERE v < %d", x%7)
		}
		return fmt.Sprintf("INSERT INTO t VALUES (%d, 1, 1.5, 'i')", n+x)
	}
	return updates[rng.Intn(len(updates))]
}

func pairHistory(t *testing.T, srcs []string) history.History {
	t.Helper()
	h := make(history.History, len(srcs))
	for i, src := range srcs {
		st, err := sql.ParseStatement(src)
		if err != nil {
			t.Fatalf("%s: %v", src, err)
		}
		h[i] = st
	}
	return h
}

// pairOptions are the scan shapes a pair runs under: one worker, and
// partitions forced onto tiny relations with batches of a few rows, so
// that a relation spans several partitions of several batches.
var pairOptions = []exec.VecOptions{
	{Workers: 1},
	{Workers: 1, BatchSize: 3},
	{Workers: 3, MinParallelRows: 1, BatchSize: 2},
	{Workers: 3, MinParallelRows: 1, BatchSize: 5},
	{Workers: 2, MinParallelRows: 1},
}

// TestPairRunMatchesGeneralPath is the pair's randomized differential.
// Each trial draws a relation, a history and a modified history (one
// statement replaced) and runs their reenactment programs — sliced by
// no σ, by the same σ on both sides (parsed twice: the pair runs it once
// when the two are structurally equal), by a σ on one side, or by a
// different σ a side — as a pair and the general way under every scan
// shape. Some σs fail on some rows. An update-only history with the
// same σ on both sides must pair (or fail with the general path's
// error), also past a DELETE before the replaced statement; an INSERT
// must fall back by shape; a DELETE from the replaced statement on, a
// one-sided σ or two different σs may misalign. The private relation
// takes the route its frozen copy takes, with the same answer: the pair
// run transposes it once for both sides.
func TestPairRunMatchesGeneralPath(t *testing.T) {
	rng := rand.New(rand.NewSource(52))
	routes := map[exec.PairRoute]int{}
	failed := 0
	for trial := 0; trial < 400; trial++ {
		n := rng.Intn(40)
		private := pairTable(rng, n)
		frozen, _ := publish(t, private)
		others := trial%2 == 1
		srcs := make([]string, 1+rng.Intn(5))
		for i := range srcs {
			srcs[i] = pairStatement(rng, n, others)
		}
		modSrcs := append([]string(nil), srcs...)
		mi := rng.Intn(len(modSrcs))
		modSrcs[mi] = pairStatement(rng, n, others)
		var of, mf reenact.Filters
		slicing := rng.Intn(5)
		filter := func() reenact.Filters {
			src := []string{"k >= %d OR g = 'a'", "k < %d OR g + 1 > 0", "f >= %d"}[rng.Intn(3)]
			cond, err := sql.ParseCondition(fmt.Sprintf(src, rng.Intn(n+1)))
			if err != nil {
				t.Fatal(err)
			}
			return reenact.Filters{"t": cond}
		}
		switch slicing {
		case 1: // the same σ
			of = filter()
			mf = reenact.Filters{}
			for rel, cond := range of {
				again, err := sql.ParseCondition(cond.String())
				if err != nil {
					t.Fatal(err)
				}
				mf[rel] = again
			}
		case 2:
			of = filter()
		case 3:
			mf = filter()
		case 4: // a σ a side, which may differ
			of, mf = filter(), filter()
		}
		oq, err := reenact.QueryForRelation(pairHistory(t, srcs), "t", private, of)
		if err != nil {
			t.Fatal(err)
		}
		mq, err := reenact.QueryForRelation(pairHistory(t, modSrcs), "t", private, mf)
		if err != nil {
			t.Fatal(err)
		}
		for _, opts := range pairOptions {
			label := fmt.Sprintf("trial %d %+v\nH:    %s\nH[M]: %s\nslicing %d", trial, opts, strings.Join(srcs, "; "), strings.Join(modSrcs, "; "), slicing)
			orig, err := exec.CompileVec(oq, private, opts)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			mod, err := exec.CompileVec(mq, private, opts)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			route := requirePairMatchesOracle(t, label, orig, mod, frozen)
			if pr := requirePairMatchesOracle(t, label+"\nprivate", orig, mod, private); pr != route {
				t.Fatalf("%s: the private relation took route %d, its frozen copy %d", label, pr, route)
			}
			routes[route]++
			inserts := strings.Contains(strings.Join(srcs, ";")+strings.Join(modSrcs, ";"), "INSERT")
			// A DELETE before the replaced statement removes the same rows
			// on both sides.
			deletes := strings.Contains(strings.Join(srcs[mi:], ";")+strings.Join(modSrcs[mi:], ";"), "DELETE")
			switch {
			case inserts && route != exec.PairShape:
				t.Fatalf("%s: an INSERT took route %d, want PairShape", label, route)
			case !inserts && route == exec.PairShape:
				t.Fatalf("%s: two scan chains fell back by shape", label)
			case route == exec.PairMisaligned && !deletes && slicing < 2:
				t.Fatalf("%s: a pair that keeps the same rows a side misaligned", label)
			}
			if _, _, err := pairOracle(orig, mod, frozen); err != nil {
				failed++
			}
		}
	}
	// The draw must reach every route that applies here, and errors.
	if routes[exec.Paired] == 0 || routes[exec.PairShape] == 0 || routes[exec.PairMisaligned] == 0 || failed == 0 {
		t.Fatalf("routes %v, %d failing pairs: the draw misses a case", routes, failed)
	}
}

// TestPairRunsShareResidualPool runs pair runs of three relations at
// once, of different arities and lane kinds (ints; strings and floats
// with NULLs; a boxed column), each answered many times through the
// residual views' pool, partitioned and not: a view one run handed back
// and another refilled on other lanes must not change an answer, and a
// view still in use must never be handed out twice. Run it under -race.
func TestPairRunsShareResidualPool(t *testing.T) {
	type side struct {
		orig, mod *exec.Program
		frozen    *storage.Database
		want      *delta.Result
		work      delta.Work
	}
	build := func(cols []schema.Column, cell func(i, c int) types.Value, origSQL, modSQL, where string, opts exec.VecOptions) side {
		r := storage.NewRelation(schema.New("t", cols...))
		for i := 0; i < 300; i++ {
			row := make(schema.Tuple, len(cols))
			for c := range cols {
				row[c] = cell(i, c)
			}
			r.Add(row)
		}
		private := storage.NewDatabase()
		private.AddRelation(r)
		frozen, _ := publish(t, private)
		cond, err := sql.ParseCondition(where)
		if err != nil {
			t.Fatal(err)
		}
		var progs [2]*exec.Program
		for i, src := range []string{origSQL, modSQL} {
			q, err := reenact.QueryForRelation(pairHistory(t, []string{src}), "t", private, reenact.Filters{"t": cond})
			if err != nil {
				t.Fatal(err)
			}
			if progs[i], err = exec.CompileVec(q, private, opts); err != nil {
				t.Fatal(err)
			}
		}
		want, work, err := pairOracle(progs[0], progs[1], frozen)
		if err != nil {
			t.Fatal(err)
		}
		return side{orig: progs[0], mod: progs[1], frozen: frozen, want: want, work: work}
	}
	parallel := exec.VecOptions{Workers: 3, MinParallelRows: 1, BatchSize: 16}
	sides := []side{
		build([]schema.Column{schema.Col("k", types.KindInt), schema.Col("v", types.KindInt)},
			func(i, c int) types.Value { return types.Int(int64(i * (c + 1))) },
			"UPDATE t SET v = v + 1 WHERE k >= 100", "UPDATE t SET v = v + 1 WHERE k >= 150", "k >= 100",
			parallel),
		build([]schema.Column{schema.Col("k", types.KindInt), schema.Col("f", types.KindFloat), schema.Col("g", types.KindString), schema.Col("h", types.KindString)},
			func(i, c int) types.Value {
				switch {
				case i%7 == 0 && c > 0:
					return types.Null()
				case c == 1:
					return types.Float(float64(i) / 2)
				case c > 1:
					return types.String(fmt.Sprint("s", i%5))
				}
				return types.Int(int64(i))
			},
			"UPDATE t SET g = 'a', f = f * 2 WHERE k < 200", "UPDATE t SET g = 'b', f = f * 2 WHERE k < 200", "k < 250",
			exec.VecOptions{Workers: 1, BatchSize: 32}),
		build([]schema.Column{schema.Col("k", types.KindInt), schema.Col("v", types.KindInt), schema.Col("g", types.KindString)},
			func(i, c int) types.Value {
				if c == 1 && i%3 == 0 {
					return types.String("x") // v on the boxed lane
				}
				if c == 2 {
					return types.String("g")
				}
				return types.Int(int64(i))
			},
			"UPDATE t SET g = 'y' WHERE k >= 10", "UPDATE t SET g = 'z' WHERE k >= 20", "k >= 5",
			parallel),
	}
	for i, sd := range sides {
		if sd.want.Size() == 0 {
			t.Fatalf("relation %d: an empty delta reads no residual lane", i)
		}
	}
	var wg sync.WaitGroup
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for run := 0; run < 40; run++ {
				sd := sides[(g+run)%len(sides)]
				res, route, err := exec.RunPairCtx(context.Background(), sd.orig, sd.mod, sd.frozen)
				if err != nil || route != exec.Paired {
					t.Errorf("goroutine %d run %d: route %d, %v", g, run, route, err)
					return
				}
				got, work := delta.ComputeResidual(res.Old, res.New, res.Compared)
				res.Release()
				if fmt.Sprint(got.Minus, got.Plus) != fmt.Sprint(sd.want.Minus, sd.want.Plus) || work != sd.work {
					t.Errorf("goroutine %d run %d: delta %v %v, work %+v; want %v %v, %+v", g, run, got.Minus, got.Plus, work, sd.want.Minus, sd.want.Plus, sd.work)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestPairRunErrorPrecedence places failing rows and a misaligned batch
// in chosen partitions (three partitions of four batches of two rows):
// the original side's first error in partition order wins over the
// modified side's, wherever the latter is, and a misaligned partition
// before either error makes the pair fall back.
func TestPairRunErrorPrecedence(t *testing.T) {
	private := storage.NewDatabase()
	r := storage.NewRelation(schema.New("t", schema.Col("k", types.KindInt), schema.Col("g", types.KindString)))
	for i := 0; i < 24; i++ {
		r.Add(schema.NewTuple(types.Int(int64(i)), types.String("s")))
	}
	private.AddRelation(r)
	frozen, _ := publish(t, private)
	opts := exec.VecOptions{Workers: 3, MinParallelRows: 1, BatchSize: 2}
	fail := func(k int) string { return fmt.Sprintf("UPDATE t SET g = g + 1 WHERE k = %d", k) }
	drop := func(k int) string { return fmt.Sprintf("DELETE FROM t WHERE k = %d", k) }
	const none = "UPDATE t SET k = k WHERE k < 0"
	// A σ both sides begin with, which fails from row 16 on (partition 2).
	const failsLate = "k < 16 OR g + 1 > 0"
	// Partition p holds rows 8p..8p+7.
	for _, tc := range []struct {
		name      string
		orig, mod string
		where     string // a σ both sides begin with, if any
		want      string // the error, or "misaligned"
	}{
		{"original side only", fail(20), none, "", "arithmetic + on string and int"},
		{"modified side only", none, fail(3), "", "arithmetic + on string and int"},
		{"original later, modified earlier", fail(21), fail(2), "", "original"},
		{"original earlier, modified later", fail(1), fail(22), "", "original"},
		{"misaligned before the original's error", fail(17) + "; " + drop(2), none, "", "misaligned"},
		{"original's error before misaligned", fail(1), drop(18), "", "original"},
		{"modified's error before misaligned", none, fail(1) + "; " + drop(18), "", "misaligned"},
		{"shared σ's error after the modified side's", none, fail(2), failsLate, "original"},
		{"shared σ's error after the original side's", fail(3), none, failsLate, "original"},
		{"misaligned before the shared σ's error", none, drop(2), failsLate, "misaligned"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			progs := [2]*exec.Program{}
			for i, src := range []string{tc.orig, tc.mod} {
				var filters reenact.Filters
				if tc.where != "" {
					cond, err := sql.ParseCondition(tc.where)
					if err != nil {
						t.Fatal(err)
					}
					filters = reenact.Filters{"t": cond}
				}
				q, err := reenact.QueryForRelation(pairHistory(t, strings.Split(src, "; ")), "t", private, filters)
				if err != nil {
					t.Fatal(err)
				}
				if progs[i], err = exec.CompileVec(q, private, opts); err != nil {
					t.Fatal(err)
				}
			}
			for run := 0; run < 20; run++ {
				route := requirePairMatchesOracle(t, tc.name, progs[0], progs[1], frozen)
				_, _, err := exec.RunPairCtx(context.Background(), progs[0], progs[1], frozen)
				switch tc.want {
				case "misaligned":
					if route != exec.PairMisaligned || err != nil {
						t.Fatalf("route %d, %v; want PairMisaligned", route, err)
					}
				case "original":
					_, _, want := pairOracle(progs[0], progs[0], frozen)
					if err == nil || err.Error() != want.Error() {
						t.Fatalf("error %v, want the original side's %v", err, want)
					}
				default:
					if err == nil || !strings.Contains(err.Error(), tc.want) {
						t.Fatalf("error %v, want %q", err, tc.want)
					}
				}
			}
		})
	}
}

// cancelAfter is a context that reports Canceled once Err has been
// asked a given number of times.
type cancelAfter struct {
	context.Context
	left atomic.Int64
}

func (c *cancelAfter) Err() error {
	if c.left.Add(-1) < 0 {
		return context.Canceled
	}
	return nil
}

// TestPairRunCancelledMidScan cuts a pair after each of its looks at
// the context in turn, sequential and partitioned: the run returns the
// context's error, and once the cut comes after the last look it
// answers like the general path.
func TestPairRunCancelledMidScan(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	private := pairTable(rng, 30)
	frozen, _ := publish(t, private)
	oq, err := reenact.QueryForRelation(pairHistory(t, []string{"UPDATE t SET v = v + 1 WHERE k >= 10"}), "t", private, nil)
	if err != nil {
		t.Fatal(err)
	}
	all, err := sql.ParseCondition("k >= 0")
	if err != nil {
		t.Fatal(err)
	}
	mq, err := reenact.QueryForRelation(pairHistory(t, []string{"UPDATE t SET v = v + 2 WHERE k >= 20"}), "t", private, reenact.Filters{"t": all})
	if err != nil {
		t.Fatal(err)
	}
	for _, opts := range []exec.VecOptions{{Workers: 1, BatchSize: 4}, {Workers: 3, MinParallelRows: 1, BatchSize: 4}} {
		orig, err := exec.CompileVec(oq, private, opts)
		if err != nil {
			t.Fatal(err)
		}
		mod, err := exec.CompileVec(mq, private, opts)
		if err != nil {
			t.Fatal(err)
		}
		for looks := int64(0); ; looks++ {
			ctx := &cancelAfter{Context: context.Background()}
			ctx.left.Store(looks)
			res, route, err := exec.RunPairCtx(ctx, orig, mod, frozen)
			if err == nil {
				if route != exec.Paired || res == nil {
					t.Fatalf("%+v: uncut run took route %d", opts, route)
				}
				requirePairMatchesOracle(t, fmt.Sprintf("%+v", opts), orig, mod, frozen)
				if looks < 8 {
					t.Fatalf("%+v: %d looks at the context for 8 batches", opts, looks)
				}
				break
			}
			if !errors.Is(err, context.Canceled) || res != nil {
				t.Fatalf("%+v: cut after %d looks: %v", opts, looks, err)
			}
		}
	}
}
