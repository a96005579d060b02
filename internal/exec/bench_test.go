package exec_test

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"github.com/mahif/mahif/internal/algebra"
	"github.com/mahif/mahif/internal/dataslice"
	"github.com/mahif/mahif/internal/delta"
	"github.com/mahif/mahif/internal/exec"
	"github.com/mahif/mahif/internal/history"
	"github.com/mahif/mahif/internal/reenact"
	"github.com/mahif/mahif/internal/schema"
	"github.com/mahif/mahif/internal/sql"
	"github.com/mahif/mahif/internal/storage"
	"github.com/mahif/mahif/internal/types"
	"github.com/mahif/mahif/internal/workload"
)

// benchDB builds one relation t(k,v,g) with rows tuples.
func benchDB(rows int) *storage.Database {
	rng := rand.New(rand.NewSource(1))
	db := storage.NewDatabase()
	r := storage.NewRelation(schema.New("t",
		schema.Col("k", types.KindInt),
		schema.Col("v", types.KindInt),
		schema.Col("g", types.KindString),
	))
	groups := []string{"a", "b", "c", "d"}
	for i := 0; i < rows; i++ {
		r.Add(schema.NewTuple(
			types.Int(int64(i)),
			types.Int(int64(rng.Intn(1000))),
			types.String(groups[rng.Intn(len(groups))]),
		))
	}
	db.AddRelation(r)
	return db
}

// benchHistory builds a reenactment-shaped history: updates with an
// occasional delete, the per-statement σ/Π chain the executor fuses.
func benchHistory(stmts int) history.History {
	rng := rand.New(rand.NewSource(2))
	var h history.History
	for i := 0; i < stmts; i++ {
		var src string
		if i%10 == 9 {
			src = fmt.Sprintf(`DELETE FROM t WHERE v < %d AND g = 'd'`, rng.Intn(20))
		} else {
			src = fmt.Sprintf(`UPDATE t SET v = v + %d WHERE v >= %d AND g = '%s'`,
				1+rng.Intn(5), rng.Intn(1000), []string{"a", "b", "c"}[rng.Intn(3)])
		}
		h = append(h, sql.MustParseStatement(src))
	}
	return h
}

func reenactmentQuery(b *testing.B, db *storage.Database, stmts int) algebra.Query {
	b.Helper()
	qs, err := reenact.Queries(benchHistory(stmts), db, nil)
	if err != nil {
		b.Fatal(err)
	}
	return qs["t"]
}

// BenchmarkReenactment is the headline comparison: evaluating the
// reenactment query of a U-statement history over an N-tuple relation
// with the interpreter and with the vectorized executor, compiling per
// run and reusing one program.
func BenchmarkReenactment(b *testing.B) {
	for _, rows := range []int{1000, 10000} {
		for _, stmts := range []int{10, 100} {
			db := benchDB(rows)
			q := reenactmentQuery(b, db, stmts)

			b.Run(fmt.Sprintf("U%d/N%d/interpreter", stmts, rows), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := algebra.Eval(q, db); err != nil {
						b.Fatal(err)
					}
				}
			})
			b.Run(fmt.Sprintf("U%d/N%d/vectorized", stmts, rows), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := evalVec(q, db); err != nil {
						b.Fatal(err)
					}
				}
			})
			b.Run(fmt.Sprintf("U%d/N%d/vectorized-reuse", stmts, rows), func(b *testing.B) {
				prog, err := exec.CompileVec(q, db, exec.VecOptions{})
				if err != nil {
					b.Fatal(err)
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := prog.RunCtx(context.Background(), db); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkVecScanFrozen is the gate's scan_heavy op at executor scale:
// the reenactment chain of a 50-update history over 32 000 Taxi rows
// under a 10 %-selective data-slicing σ, run by one compiled program
// over a private relation (every run transposes the whole relation into
// a columnar view of its own) and over the same relation as a
// SnapshotCache publishes it (every run aliases the view built by the
// first). The none-kept shape filters every row out, so its B/op is what
// a scan itself allocates: on the frozen source nothing that grows with
// the relation, on the private source the transposed view, which does.
func BenchmarkVecScanFrozen(b *testing.B) {
	w, err := workload.Generate(workload.Taxi(32000, 1), workload.Config{
		Updates: 50, Mods: 1, DependentPct: 10, AffectedPct: 10, Seed: 1,
	})
	if err != nil {
		b.Fatal(err)
	}
	private := w.Dataset.Database()
	frozen, _ := publish(b, private)
	sel := w.Dataset.SelAttr
	for _, shape := range []struct{ name, slice string }{
		{"kept10pct", fmt.Sprintf("%s >= %d", sel, workload.SelRange*9/10)},
		{"none-kept", sel + " < 0"},
	} {
		cond, err := sql.ParseCondition(shape.slice)
		if err != nil {
			b.Fatal(err)
		}
		qs, err := reenact.Queries(w.History, private, reenact.Filters{"trips": cond})
		if err != nil {
			b.Fatal(err)
		}
		prog, err := exec.CompileVec(qs["trips"], private, exec.VecOptions{})
		if err != nil {
			b.Fatal(err)
		}
		for _, src := range []struct {
			name string
			db   *storage.Database
		}{{"private", private}, {"frozen", frozen}} {
			b.Run(shape.name+"/"+src.name, func(b *testing.B) {
				if _, err := prog.RunCtx(context.Background(), src.db); err != nil { // builds the view, fills the run pool
					b.Fatal(err)
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := prog.RunCtx(context.Background(), src.db); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(float64(b.N)*32000/b.Elapsed().Seconds(), "rows/s")
			})
		}
	}
}

// BenchmarkWhatIfPair is a scan_heavy what-if's executor and delta at
// the gate's scale: the threshold what-if of a 50-update history over
// 32 000 Taxi rows, each side under the data-slicing σ the engine
// computes for it (dataslice.Compute), over a frozen snapshot. general runs each side alone
// (RunColumnarCtx) and diffs the two results (delta.ComputeColumnar);
// pair runs both in one scan and finishes the delta from the rows that
// differ (RunPairCtx, delta.ComputeResidual).
func BenchmarkWhatIfPair(b *testing.B) {
	w, err := workload.Generate(workload.Taxi(32000, 1), workload.Config{
		Updates: 50, Mods: 1, DependentPct: 10, AffectedPct: 10, Seed: 1,
	})
	if err != nil {
		b.Fatal(err)
	}
	private := w.Dataset.Database()
	frozen, _ := publish(b, private)
	pair, err := history.ApplyModifications(w.History, w.Mods)
	if err != nil {
		b.Fatal(err)
	}
	conds, err := dataslice.Compute(pair, private, dataslice.Options{})
	if err != nil {
		b.Fatal(err)
	}
	var progs [2]*exec.Program
	for i, h := range []history.History{pair.Orig, pair.Mod} {
		filters := []reenact.Filters{conds.H, conds.M}[i]
		if filters["trips"] == nil {
			b.Fatalf("no data-slicing σ for trips: %v", filters)
		}
		q, err := reenact.QueryForRelation(h, "trips", private, filters)
		if err != nil {
			b.Fatal(err)
		}
		if progs[i], err = exec.CompileVec(q, private, exec.VecOptions{}); err != nil {
			b.Fatal(err)
		}
	}
	orig, mod := progs[0], progs[1]
	ctx := context.Background()
	general := func() (*delta.Result, delta.Work) {
		ro, err := orig.RunColumnarCtx(ctx, frozen)
		if err != nil {
			b.Fatal(err)
		}
		rm, err := mod.RunColumnarCtx(ctx, frozen)
		if err != nil {
			b.Fatal(err)
		}
		return delta.ComputeColumnar(ro, rm)
	}
	paired := func() (*delta.Result, delta.Work) {
		res, route, err := exec.RunPairCtx(ctx, orig, mod, frozen)
		if err != nil || route != exec.Paired {
			b.Fatalf("pair: route %d, %v", route, err)
		}
		d, w := delta.ComputeResidual(res.Old, res.New, res.Compared)
		res.Release()
		return d, w
	}
	want, wantWork := general()
	if got, work := paired(); !got.Equal(want) || work != wantWork {
		b.Fatalf("pair: %d tuples, %+v; general: %d tuples, %+v", got.Size(), work, want.Size(), wantWork)
	}
	for _, c := range []struct {
		name string
		run  func() (*delta.Result, delta.Work)
	}{{"general", general}, {"pair", paired}} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				benchDelta, _ = c.run()
			}
		})
	}
}

// benchDelta keeps a benchmark's result alive.
var benchDelta *delta.Result

// BenchmarkCompile isolates the one-time compilation cost (it must be
// negligible against a single evaluation).
func BenchmarkCompile(b *testing.B) {
	db := benchDB(100)
	q := reenactmentQuery(b, db, 100)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := exec.CompileVec(q, db, exec.VecOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkHashJoin compares the hash join against the interpreter's
// nested loop on a two-relation equi-join; nested-loop is the
// interpreter on a band join (1 000 × 500 pairs, each left row matching
// one right row), which CompileVec leaves to it: the cost of a join
// outside the compilable subset.
func BenchmarkHashJoin(b *testing.B) {
	db := benchDB(5000)
	dim := storage.NewRelation(schema.New("dim",
		schema.Col("dk", types.KindInt),
		schema.Col("name", types.KindString),
	))
	for i := 0; i < 500; i++ {
		dim.Add(schema.NewTuple(types.Int(int64(i*10)), types.String(fmt.Sprintf("n%d", i))))
	}
	db.AddRelation(dim)
	cond, err := sql.ParseCondition("k = dk")
	if err != nil {
		b.Fatal(err)
	}
	q := &algebra.Join{L: &algebra.Scan{Rel: "t"}, R: &algebra.Scan{Rel: "dim"}, Cond: cond}

	b.Run("interpreter", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := algebra.Eval(q, db); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("vectorized", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := evalVec(q, db); err != nil {
				b.Fatal(err)
			}
		}
	})
	left, err := sql.ParseCondition("k < 1000")
	if err != nil {
		b.Fatal(err)
	}
	band, err := sql.ParseCondition("k >= dk AND k < dk + 10")
	if err != nil {
		b.Fatal(err)
	}
	nl := &algebra.Join{L: &algebra.Select{Cond: left, In: &algebra.Scan{Rel: "t"}}, R: &algebra.Scan{Rel: "dim"}, Cond: band}
	b.Run("nested-loop", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := algebra.Eval(nl, db); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkAggregate runs a six-aggregate global γ over one row and a
// grouped one over 10 000 rows: a γ's own cost, which for a one-row
// input is its output batch.
func BenchmarkAggregate(b *testing.B) {
	for _, rows := range []int{1, 10000} {
		db := benchDB(rows)
		for _, shape := range []struct{ name, src string }{
			{"global", "SELECT COUNT(*) AS n, COUNT(v) AS c, SUM(v) AS s, AVG(v) AS a, MIN(v) AS lo, MAX(k) AS hi FROM t"},
			{"grouped", "SELECT g, COUNT(*) AS n, SUM(v) AS s, MIN(k) AS lo FROM t GROUP BY g"},
		} {
			q, err := sql.ParseQuery(shape.src)
			if err != nil {
				b.Fatal(err)
			}
			prog, err := exec.CompileVec(q, db, exec.VecOptions{})
			if err != nil {
				b.Fatal(err)
			}
			b.Run(fmt.Sprintf("N%d/%s", rows, shape.name), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := prog.RunCtx(context.Background(), db); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
