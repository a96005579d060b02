package exec

import (
	"testing"

	"github.com/mahif/mahif/internal/algebra"
	"github.com/mahif/mahif/internal/expr"
	"github.com/mahif/mahif/internal/schema"
	"github.com/mahif/mahif/internal/storage"
	"github.com/mahif/mahif/internal/types"
)

// buildSideDB: big(k,v) with 40 rows (duplicate and NULL keys), small(k2,w)
// with 3 rows.
func buildSideDB(t *testing.T) *storage.Database {
	t.Helper()
	db := storage.NewDatabase()
	big := storage.NewRelation(schema.New("big",
		schema.Col("k", types.KindInt),
		schema.Col("v", types.KindInt),
	))
	for i := 0; i < 40; i++ {
		k := types.Value(types.Int(int64(i % 5)))
		if i%11 == 0 {
			k = types.Null()
		}
		big.Add(schema.NewTuple(k, types.Int(int64(i))))
	}
	db.AddRelation(big)
	small := storage.NewRelation(schema.New("small",
		schema.Col("k2", types.KindInt),
		schema.Col("w", types.KindInt),
	))
	small.Add(
		schema.NewTuple(types.Int(1), types.Int(100)),
		schema.NewTuple(types.Int(2), types.Int(200)),
		schema.NewTuple(types.Int(2), types.Int(201)), // duplicate key
	)
	db.AddRelation(small)
	return db
}

func joinQuery(t *testing.T, l, r string) *algebra.Join {
	t.Helper()
	cond := expr.Eq(expr.Column("k"), expr.Column("k2"))
	lq, rq := algebra.Query(&algebra.Scan{Rel: l}), algebra.Query(&algebra.Scan{Rel: r})
	return &algebra.Join{L: lq, R: rq, Cond: cond}
}

// TestBuildSideSelection pins the compile-time choice: the hash join
// builds on whichever input the snapshot row counts say is smaller.
func TestBuildSideSelection(t *testing.T) {
	db := buildSideDB(t)

	n, _, err := (&compiler{cfg: vecConfig{bs: 4}}).compileVecNode(joinQuery(t, "small", "big"), db)
	if err != nil {
		t.Fatal(err)
	}
	hj, ok := n.(*vequiJoinNode)
	if !ok {
		t.Fatalf("expected hash join, got %T", n)
	}
	if !hj.buildLeft {
		t.Fatalf("small left input: expected buildLeft")
	}

	n, _, err = (&compiler{cfg: vecConfig{bs: 4}}).compileVecNode(joinQuery(t, "big", "small"), db)
	if err != nil {
		t.Fatal(err)
	}
	if hj := n.(*vequiJoinNode); hj.buildLeft {
		t.Fatalf("small right input: expected right build")
	}
}

// TestBuildLeftMatchesInterpreterOrder requires the left-build hash
// join to reproduce the interpreter's exact output at every batch size:
// same tuples, same order, across duplicates and NULL keys, including
// under filters stacked on the join output.
func TestBuildLeftMatchesInterpreterOrder(t *testing.T) {
	db := buildSideDB(t)
	queries := map[string]algebra.Query{
		"small-left": joinQuery(t, "small", "big"),
		"big-left":   joinQuery(t, "big", "small"),
		"filtered": &algebra.Select{
			Cond: &expr.Cmp{Op: expr.CmpGe, L: expr.Column("v"), R: expr.IntConst(10)},
			In:   joinQuery(t, "small", "big"),
		},
		"unioned-build": &algebra.Join{
			// Left estimate = 3 + 3 < 40: union feeds the build side.
			L:    &algebra.Union{L: &algebra.Scan{Rel: "small"}, R: &algebra.Scan{Rel: "small"}},
			R:    &algebra.Scan{Rel: "big"},
			Cond: expr.Eq(expr.Column("k"), expr.Column("k2")),
		},
		"nested-loop": &algebra.Join{
			// 40 × 40 = 1 600 pairs: the nested loop's pair batches split
			// them at every batch size, 1024 included.
			L: &algebra.Scan{Rel: "big"},
			R: &algebra.Project{Exprs: []algebra.NamedExpr{
				{Name: "k2", E: expr.Column("k")},
				{Name: "w", E: expr.Column("v")},
			}, In: &algebra.Scan{Rel: "big"}},
			Cond: expr.OrOf(expr.Lt(expr.Column("k"), expr.Column("k2")), expr.Eq(expr.Column("v"), expr.Column("w"))),
		},
	}
	for name, q := range queries {
		want, err := algebra.Eval(q, db)
		if err != nil {
			t.Fatalf("%s: interpreter: %v", name, err)
		}
		for _, bs := range []int{1, 2, 7, 1024} {
			prog, err := CompileVec(q, db, VecOptions{BatchSize: bs})
			if err != nil {
				t.Fatalf("%s: compile vec: %v", name, err)
			}
			got, err := prog.Run(db)
			if err != nil {
				t.Fatalf("%s: run vec bs=%d: %v", name, bs, err)
			}
			assertExactOrder(t, name, got, want)
		}
	}
}

func assertExactOrder(t *testing.T, name string, got, want *storage.Relation) {
	t.Helper()
	if len(got.Tuples) != len(want.Tuples) {
		t.Fatalf("%s: %d tuples, want %d", name, len(got.Tuples), len(want.Tuples))
	}
	for i := range want.Tuples {
		if !got.Tuples[i].Equal(want.Tuples[i]) {
			t.Fatalf("%s: tuple %d = %s, want %s", name, i, got.Tuples[i], want.Tuples[i])
		}
	}
}
