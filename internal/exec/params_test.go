package exec_test

import (
	"context"
	"fmt"
	"math"
	"slices"
	"sort"
	"sync"
	"testing"

	"github.com/mahif/mahif/internal/algebra"
	"github.com/mahif/mahif/internal/exec"
	"github.com/mahif/mahif/internal/expr"
	"github.com/mahif/mahif/internal/schema"
	"github.com/mahif/mahif/internal/storage"
	"github.com/mahif/mahif/internal/types"
)

// paramEdges are the values a $slot is bound to in the param
// differentials: int/float twins, the 2^53 boundary, −0.0, values
// below and above every cell of the lane-edge databases, NaN, NULL, and
// kinds a numeric column never holds.
var paramEdges = []types.Value{
	types.Int(7), types.Float(7), types.Int(500), types.Float(500), types.Float(2.5),
	types.Int(1 << 53), types.Float(1 << 53), types.Int(1<<53 + 1), types.Int(-(1 << 53)),
	types.Float(math.Copysign(0, -1)), types.Int(0),
	types.Int(math.MinInt64), types.Int(math.MaxInt64), types.Float(-1e300), types.Float(1e300),
	types.Float(math.NaN()), types.Null(), types.String("b"), types.String(""), types.Bool(true),
}

// paramDBs are windows of 300 rows of the lane-edge databases: NULL
// masks that end inside the window, one kind-deviant cell that boxes its
// column, the int/float precision boundary, an all-NULL relation and an
// empty one; and a NULL-heavy window with NaN in every seventh float
// cell, which the comparison kernels hand to the interpreter's rules.
func paramDBs() map[string]*storage.Database {
	window := func(db *storage.Database, lo int) *storage.Database {
		r, err := db.Relation("t")
		if err != nil {
			panic(err)
		}
		w := storage.NewRelation(r.Schema)
		w.Add(r.Tuples[min(lo, len(r.Tuples)):min(lo+300, len(r.Tuples))]...)
		out := storage.NewDatabase()
		out.AddRelation(w)
		return out
	}
	edge := laneEdgeDBs()
	nan := storage.NewDatabase()
	{
		r, err := window(edge["null-heavy"], 900).Relation("t")
		if err != nil {
			panic(err)
		}
		w := storage.NewRelation(r.Schema)
		for i, tp := range r.Tuples {
			tp = slices.Clone(tp)
			if i%7 == 0 {
				tp[2] = types.Float(math.NaN())
			}
			w.Add(tp)
		}
		nan.AddRelation(w)
	}
	return map[string]*storage.Database{
		"nan-cells":          nan,
		"null-heavy":         window(edge["null-heavy"], 900),
		"one-deviant-cell":   window(edge["one-deviant-cell"], 1400),
		"int-float-boundary": window(edge["int-float-boundary"], 0),
		"all-null":           window(edge["all-null"], 0),
		"empty":              edge["plain-0-rows"],
	}
}

// paramShapes are scans of t(k int, v int, f float, g string) with
// $p and $q wherever a kernel specializes on a constant's value — the
// column-vs-constant comparison in both orientations, conjunctions and
// disjunctions with literal and slotted legs, every typed IF producer with the
// constant on either side, column∘constant arithmetic — and where it
// does not: a slot against a slot, a bare slot as a condition, division,
// a γ over a slotted σ (a template's slice count), and a reenactment
// chain mixing them.
func paramShapes(t *testing.T, db *storage.Database) map[string]algebra.Query {
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
	p, q := expr.Parameter("p"), expr.Parameter("q")
	col := expr.Column
	chain := sel("k >= $q OR v IS NULL", scan())
	chain = set(1, "v >= $p AND v < 900", expr.Add(col("v"), p), chain)
	chain = set(2, "f < 3 AND g = 'b'", expr.Mul(q, col("f")), chain)
	chain = set(3, "v >= $p", p, chain)
	chain = set(1, "g = 'c'", q, chain)
	chain = sel("NOT (k = $p AND g = 'd')", chain)
	return map[string]algebra.Query{
		"cmp-int":          sel("v >= $p", scan()),
		"cmp-flipped":      sel("$p < k", scan()),
		"cmp-float":        sel("f <= $p", scan()),
		"cmp-string":       sel("g = $p OR v IS NULL", scan()),
		"band":             sel("v >= $p AND v < $q", scan()),
		"band-literal-leg": sel("v >= 10 AND k < $p", scan()),
		"band-string-leg":  sel("g >= 'b' AND f < $p", scan()),
		"band-three-legs":  sel("k >= $p AND f < 5 AND g <> $q", scan()),
		"or-three-legs":    sel("NOT (k < $p OR f >= 5 OR g = $q)", scan()),
		"band-same-slot":   sel("k <> $p AND v = $p", scan()),
		"band-string-slot": sel("k >= 0 AND g < $p", scan()),
		"if-const-int":     set(1, "v >= 100", p, scan()),
		"if-const-float":   set(2, "k >= 500", p, scan()),
		"if-const-string":  set(3, "v < 50", p, scan()),
		"if-arith-right":   set(1, "k >= $q", expr.Add(col("v"), p), scan()),
		"if-arith-left":    set(1, "v < 500", expr.Sub(p, col("v")), scan()),
		"if-float-left":    set(2, "g = 'a'", expr.Mul(p, col("f")), scan()),
		"if-float-right":   set(2, "g = 'a'", expr.Sub(col("f"), p), scan()),
		"arith": &algebra.Project{Exprs: []algebra.NamedExpr{
			{Name: "k", E: col("k")},
			{Name: "x", E: expr.Add(col("v"), p)},
			{Name: "y", E: expr.Mul(p, col("f"))},
		}, In: scan()},
		"div":           &algebra.Project{Exprs: []algebra.NamedExpr{{Name: "x", E: expr.Div(col("v"), p)}}, In: sel("k < 40", scan())},
		"slot-vs-slot":  sel("$p = $q OR k < 3", scan()),
		"bare-slot":     sel("$p", scan()),
		"slot-is-null":  sel("$p IS NULL AND k < 5", scan()),
		"slice-count":   &algebra.Aggregate{Aggs: []algebra.AggExpr{{Name: "n", Fn: algebra.AggCount}}, In: sel("v >= $p OR v IS NULL", scan())},
		"aggregate-arg": &algebra.Aggregate{GroupBy: []algebra.NamedExpr{{Name: "g", E: col("g")}}, Aggs: []algebra.AggExpr{{Name: "s", Fn: algebra.AggSum, Arg: expr.Add(col("v"), p)}}, In: scan()},
		"reenact-chain": chain,
	}
}

// paramBindings draws bindings of slots over paramEdges: every edge in
// every slot, each beside a different edge in the other slot.
func paramBindings(slots []string) []map[string]types.Value {
	n := len(paramEdges)
	var out []map[string]types.Value
	for i := range paramEdges {
		b := map[string]types.Value{}
		for j, s := range slots {
			b[s] = paramEdges[(i+j*(i+3))%n]
		}
		out = append(out, b)
		if len(slots) > 1 {
			b := map[string]types.Value{}
			for j, s := range slots {
				b[s] = paramEdges[(i*(j+2)+5)%n]
			}
			b[slots[len(slots)-1]] = paramEdges[i]
			out = append(out, b)
		}
	}
	return out
}

// sameCell is exact equality: same kind, and the same bits for a float.
func sameCell(a, b types.Value) bool {
	if a.Kind() != b.Kind() {
		return false
	}
	if a.Kind() == types.KindFloat {
		return math.Float64bits(a.AsFloat()) == math.Float64bits(b.AsFloat())
	}
	return a.Equal(b)
}

func requireSameCells(t *testing.T, label string, want, got []schema.Tuple) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d rows, want %d", label, len(got), len(want))
	}
	for i := range want {
		for c := range want[i] {
			if !sameCell(got[i][c], want[i][c]) {
				t.Fatalf("%s: row %d = %s, want %s", label, i, got[i], want[i])
			}
		}
	}
}

// TestParamRunMatchesSubstituted is the param differential: a program
// compiled once with its $slots open and run under a binding answers
// exactly what CompileVec of the query with the binding substituted
// answers, and what the interpreter answers for it — the same rows in
// the same order with the same kinds, the same lanes in its columnar
// result (the evidence that each param site ran the substituted
// literal's kernel), and an error iff they error. Every binding runs
// through the same program in turn, so a kernel one binding built must
// not survive into the next; a run that binds nothing errors iff the
// interpreter does on the unsubstituted query. Sequential runs and
// forced-parallel ones, both over several batches, go through each
// shape.
func TestParamRunMatchesSubstituted(t *testing.T) {
	ctx := context.Background()
	optsList := map[string]exec.VecOptions{
		"sequential": {Workers: 1, BatchSize: 64},
		"parallel":   {Workers: 3, MinParallelRows: 100, BatchSize: 32},
	}
	for dbName, db := range paramDBs() {
		for qName, q := range paramShapes(t, db) {
			slots := sortedParams(q)
			for optName, opts := range optsList {
				label := fmt.Sprintf("%s/%s/%s", dbName, qName, optName)
				prog, err := exec.CompileVec(q, db, opts)
				if err != nil {
					t.Fatalf("%s: compile with slots open: %v", label, err)
				}
				_, errW := algebra.Eval(q, db)
				if _, errP := prog.RunColumnarCtx(ctx, db); (errP == nil) != (errW == nil) {
					t.Fatalf("%s unbound: param run err %v, interpreter err %v", label, errP, errW)
				}
				for _, b := range paramBindings(slots) {
					requireParamRunAgrees(t, fmt.Sprintf("%s %v", label, b), prog, q, db, opts, b)
				}
			}
		}
	}
}

func sortedParams(q algebra.Query) []string {
	var out []string
	for name := range algebra.Params(q) {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// requireParamRunAgrees runs prog under b beside the substituted
// query's program and the interpreter.
func requireParamRunAgrees(t *testing.T, label string, prog *exec.Program, q algebra.Query, db *storage.Database, opts exec.VecOptions, b map[string]types.Value) {
	t.Helper()
	ctx := context.Background()
	sub := algebra.SubstParams(q, b)
	want, errW := algebra.Eval(sub, db)
	subProg, err := exec.CompileVec(sub, db, opts)
	if err != nil {
		t.Fatalf("%s: compile substituted: %v", label, err)
	}
	lit, errS := subProg.RunColumnarCtx(ctx, db)
	got, errP := prog.RunColumnarParamsCtx(ctx, db, b)
	if (errP == nil) != (errS == nil) || (errS == nil) != (errW == nil) {
		t.Fatalf("%s: param err %v, substituted err %v, interpreter err %v", label, errP, errS, errW)
	}
	if errW != nil {
		return
	}
	for c := range lit.Cols {
		if got.Cols[c].Kind != lit.Cols[c].Kind {
			t.Fatalf("%s: column %d on the %s lane, the substituted literal's is %s", label, c, got.Cols[c].Kind, lit.Cols[c].Kind)
		}
	}
	requireSameCells(t, label+" (substituted vs interpreter)", want.Tuples, lit.Relation().Tuples)
	requireSameCells(t, label+" (param vs substituted)", lit.Relation().Tuples, got.Relation().Tuples)
}

// TestParamProgramConcurrentBindings runs one program from many
// goroutines at once, each under its own bindings, over a relation
// large enough for parallel scans: every run must answer its own
// binding's substituted query. A binding that reached another run —
// through the program, a pooled chain run or a param site's kernel —
// fails here, and under -race.
func TestParamProgramConcurrentBindings(t *testing.T) {
	db := paramDBs()["null-heavy"]
	shapes := paramShapes(t, db)
	opts := exec.VecOptions{Workers: 2, MinParallelRows: 100, BatchSize: 64}
	for _, qName := range []string{"reenact-chain", "band", "if-arith-right", "slice-count"} {
		q := shapes[qName]
		prog, err := exec.CompileVec(q, db, opts)
		if err != nil {
			t.Fatal(err)
		}
		bindings := paramBindings(sortedParams(q))
		want := make([]*storage.ColumnarView, len(bindings))
		wantErr := make([]error, len(bindings))
		for i, b := range bindings {
			sub, err := exec.CompileVec(algebra.SubstParams(q, b), db, opts)
			if err != nil {
				t.Fatal(err)
			}
			want[i], wantErr[i] = sub.RunColumnarCtx(context.Background(), db)
		}
		var wg sync.WaitGroup
		errs := make(chan error, 8)
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for k := range bindings {
					i := (k + g*5) % len(bindings)
					got, err := prog.RunColumnarParamsCtx(context.Background(), db, bindings[i])
					if (err == nil) != (wantErr[i] == nil) {
						errs <- fmt.Errorf("%s goroutine %d binding %v: err %v, want %v", qName, g, bindings[i], err, wantErr[i])
						return
					}
					if err == nil && !sameRows(got.Relation().Tuples, want[i].Relation().Tuples) {
						errs <- fmt.Errorf("%s goroutine %d binding %v: answer differs from the substituted query's", qName, g, bindings[i])
						return
					}
				}
			}(g)
		}
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Error(err)
		}
	}
}

func sameRows(a, b []schema.Tuple) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		for c := range a[i] {
			if !sameCell(a[i][c], b[i][c]) {
				return false
			}
		}
	}
	return true
}
