package exec_test

import (
	"context"
	"fmt"
	"reflect"
	"runtime"
	"testing"

	"github.com/mahif/mahif/internal/algebra"
	"github.com/mahif/mahif/internal/exec"
	"github.com/mahif/mahif/internal/expr"
	"github.com/mahif/mahif/internal/history"
	"github.com/mahif/mahif/internal/reenact"
	"github.com/mahif/mahif/internal/sql"
	"github.com/mahif/mahif/internal/storage"
)

// A fused chain's typed IFs share two lanes per output column: each
// writes into whichever lane of its column the input batch does not
// reference, and a projection falls back to its own scratch when both
// are. These shapes are the ones where picking the wrong lane would
// overwrite a column some later reader still needs.

// laneHistories are reenactment chains over t(k int, v int, f float,
// g string) that move typed columns between the two lanes of a pair.
var laneHistories = map[string][]string{
	// Every SET reads the other column: a lane written for one is the
	// input of the next.
	"swap": {
		"UPDATE t SET v = v + 1, k = k + 2 WHERE k >= 0",
		"UPDATE t SET v = k + 0, k = v + 0 WHERE v < 600",
		"UPDATE t SET v = k, k = v WHERE g = 'b'",
		"UPDATE t SET v = k * 3, k = v - 1 WHERE k >= 40",
	},
	// The second statement's v is computed after its k, and its IF reads
	// k: it must see k before this Π wrote it.
	"reads-earlier-column": {
		"UPDATE t SET k = k + 1 WHERE v >= 0 OR v IS NULL",
		"UPDATE t SET k = k - 600, v = v + 1 WHERE k >= 500",
		"UPDATE t SET k = k - 3, v = k * 2 WHERE k < 900",
	},
	// Two columns alternating over six statements: every column write
	// flips between its two lanes.
	"alternating": {
		"UPDATE t SET k = k + 1 WHERE v < 300",
		"UPDATE t SET v = v + 2 WHERE k < 700",
		"UPDATE t SET k = k * 2 WHERE v >= 100",
		"UPDATE t SET v = v - 5 WHERE k >= 50",
		"UPDATE t SET k = k - 9 WHERE v < 800 AND g = 'a'",
		"UPDATE t SET v = v * 3 WHERE k >= 0",
	},
	// A NULL mask appears in one lane of v's pair, is copied into the
	// other, and disappears again when a write takes the column back to
	// an unmasked source.
	"null-mask": {
		"UPDATE t SET v = v + 1, f = f * 2 WHERE k >= 0",
		"UPDATE t SET v = NULL, f = NULL WHERE k >= 100 AND k < 400",
		"UPDATE t SET v = v + 10, f = f + 0.5 WHERE k >= 300",
		"UPDATE t SET v = 5, f = 2.5 WHERE k < 1000000",
		"UPDATE t SET v = v - 1, f = f - 1 WHERE k >= 2",
	},
	"strings": {
		"UPDATE t SET g = 'x' WHERE k >= 10",
		"UPDATE t SET g = 'y', v = v + 1 WHERE g = 'x' AND v < 500",
		"UPDATE t SET g = NULL WHERE g = 'y' AND k < 2000",
		"UPDATE t SET g = 'z' WHERE g IS NULL OR g = 'a'",
	},
}

// permutingChain writes v into one lane of its pair, then aliases that
// lane at k's position while writing v into the other: the third Π finds
// both of v's lanes referenced and must write into its own scratch, and
// its f reads v after v was computed (and moved below the condition).
func permutingChain(t *testing.T, db *storage.Database) algebra.Query {
	t.Helper()
	sch, err := algebra.OutputSchema(&algebra.Scan{Rel: "t"}, db)
	if err != nil {
		t.Fatal(err)
	}
	set := func(in algebra.Query, cond string, sets map[string]expr.Expr) algebra.Query {
		exprs := identityProjection(sch)
		for i, c := range sch.Columns {
			if e, ok := sets[c.Name]; ok {
				exprs[i].E = expr.IfThenElse(mustCond(t, cond), e, expr.Column(c.Name))
			}
		}
		return &algebra.Project{Exprs: exprs, In: in}
	}
	var q algebra.Query = &algebra.Scan{Rel: "t"}
	q = set(q, "k >= 0", map[string]expr.Expr{"v": expr.Add(expr.Column("v"), expr.IntConst(1))})
	permute := identityProjection(sch)
	permute[0].E = expr.Column("v")
	permute[1].E = expr.IfThenElse(mustCond(t, "k >= 200"), expr.Add(expr.Column("v"), expr.IntConst(2)), expr.Column("v"))
	q = &algebra.Project{Exprs: permute, In: q}
	return set(q, "v >= 500", map[string]expr.Expr{
		"v": expr.Sub(expr.Column("v"), expr.IntConst(600)),
		"f": expr.Mul(expr.Column("f"), expr.FloatConst(2)),
	})
}

// laneQueries compiles laneHistories into reenactment queries of t and
// adds the permuting chain.
func laneQueries(t *testing.T, db *storage.Database) map[string]algebra.Query {
	t.Helper()
	out := map[string]algebra.Query{"permuting": permutingChain(t, db)}
	for name, src := range laneHistories {
		var h history.History
		for _, s := range src {
			h = append(h, sql.MustParseStatement(s))
		}
		qs, err := reenact.Queries(h, db, nil)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		out[name] = qs["t"]
		// The same chain behind a data-slicing σ, as a sliced plan runs it.
		out[name+"/sliced"] = algebra.SubstituteScans(qs["t"], map[string]algebra.Query{
			"t": &algebra.Select{Cond: mustCond(t, "k >= 300 OR v IS NULL"), In: &algebra.Scan{Rel: "t"}},
		})
	}
	return out
}

// TestLaneReuseMatchesInterpreter runs every lane shape over the
// lane-edge databases — private and frozen, sequential, forced-parallel
// and off-block batch sizes, row and columnar sinks — against the
// interpreter, then requires the frozen views to be what they were.
func TestLaneReuseMatchesInterpreter(t *testing.T) {
	for _, dbName := range []string{"null-heavy", "late-null", "int-float-boundary", "plain-1025-rows", "plain-1-rows"} {
		private := laneEdgeDBs()[dbName]
		frozen, _ := publish(t, private)
		view := sharedView(t, frozen)
		before := cloneCols(view)
		for qName, q := range laneQueries(t, private) {
			requireSameOnBothSources(t, dbName+"/"+qName, q, private, frozen)
			requireColumnarOnBothSources(t, dbName+"/"+qName, q, private, frozen)
		}
		if !reflect.DeepEqual(before, view.Cols) {
			t.Fatalf("%s: lane-reuse runs changed the shared view", dbName)
		}
	}
}

// TestLaneStateGrowsWithArity pins what a chain run allocates: the run
// state of a 100-statement reenactment chain is its arity's two lanes
// per column plus per-statement headers, not one batch-sized lane per
// statement. A fresh program's first run builds its state, so the bytes
// it allocates, less those of a 4-statement chain's first run, are what
// 96 more statements cost; one int lane is 8 KB.
func TestLaneStateGrowsWithArity(t *testing.T) {
	db := benchDB(exec.DefaultBatchSize)
	firstRun := func(stmts int) uint64 {
		var h history.History
		for i := 0; i < stmts; i++ {
			h = append(h, sql.MustParseStatement(fmt.Sprintf("UPDATE t SET v = v + 1 WHERE k >= %d", i)))
		}
		qs, err := reenact.Queries(h, db, nil)
		if err != nil {
			t.Fatal(err)
		}
		best := ^uint64(0)
		for try := 0; try < 3; try++ {
			prog, err := exec.CompileVec(qs["t"], db, exec.VecOptions{Workers: 1})
			if err != nil {
				t.Fatal(err)
			}
			var m0, m1 runtime.MemStats
			runtime.ReadMemStats(&m0)
			if _, err := prog.RunColumnarCtx(context.Background(), db); err != nil {
				t.Fatal(err)
			}
			runtime.ReadMemStats(&m1)
			best = min(best, m1.TotalAlloc-m0.TotalAlloc)
		}
		return best
	}
	short, long := firstRun(4), firstRun(100)
	perStmt := (float64(long) - float64(short)) / 96
	t.Logf("first run: 4 statements %d B, 100 statements %d B, %.0f B per added statement", short, long, perStmt)
	if perStmt > 2048 {
		t.Fatalf("each added statement allocates %.0f B of run state, want < 2 KB (a lane per statement is ≥ 8 KB)", perStmt)
	}
}
