package compile

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"github.com/mahif/mahif/internal/expr"
	"github.com/mahif/mahif/internal/milp"
	"github.com/mahif/mahif/internal/types"
)

// renderedIDs is the keying the compiler's hash-consing caches used
// before structural interning: two subexpressions are one exactly when
// their SQL renderings are the same text. It is kept as the oracle the
// interner is pinned to — the two must merge the same subexpressions,
// or solver counts (and with them every recorded trace) would move.
func renderedIDs() func(expr.Expr) int32 {
	ids := map[string]int32{}
	return func(e expr.Expr) int32 {
		s := e.String()
		id, ok := ids[s]
		if !ok {
			id = int32(len(ids)) + 1
			ids[s] = id
		}
		return id
	}
}

// corpus draws formulas shaped like slicing conditions from a small
// vocabulary, so that equal subexpressions at different addresses, and
// unequal ones that differ in one typed constant, are both the rule.
type corpus struct{ rng *rand.Rand }

var corpusConsts = []types.Value{
	types.Int(2), types.Float(2.0), // one number, two kinds
	types.Int(0), types.Float(0), types.Float(math.Copysign(0, -1)), // 0, 0.0, −0.0
	types.Int(1 << 53), types.Float(1 << 53), types.Int(1<<53 + 1), // the float64 plateau
	types.Int(5), types.Int(-3), types.Float(2.5),
	types.Null(), // rejected in value position: both keyings must fail alike
}

func (g corpus) atom() expr.Expr {
	switch g.rng.Intn(6) {
	case 0:
		return expr.Variable("x")
	case 1:
		return expr.Variable("y")
	case 2:
		return expr.Parameter("p")
	case 3:
		return expr.Variable("s") // string-kinded
	default:
		return expr.Constant(corpusConsts[g.rng.Intn(len(corpusConsts))])
	}
}

func (g corpus) value(depth int) expr.Expr {
	if depth <= 0 {
		return g.atom()
	}
	switch g.rng.Intn(6) {
	case 0:
		return expr.Add(g.value(depth-1), g.atom())
	case 1:
		return expr.Sub(g.value(depth-1), g.atom())
	case 2:
		return expr.Mul(expr.Constant(corpusConsts[g.rng.Intn(len(corpusConsts))]), g.value(depth-1))
	case 3:
		return expr.IfThenElse(g.cond(depth-1), g.value(depth-1), g.value(depth-1))
	default:
		return g.atom()
	}
}

func (g corpus) cond(depth int) expr.Expr {
	if depth <= 0 || g.rng.Intn(4) == 0 {
		if g.rng.Intn(8) == 0 {
			return expr.Eq(expr.Variable("s"), expr.StringConst([]string{"a", "b", "$p", "x"}[g.rng.Intn(4)]))
		}
		ops := []func(a, b expr.Expr) *expr.Cmp{expr.Eq, expr.Ne, expr.Lt, expr.Le, expr.Gt, expr.Ge}
		return ops[g.rng.Intn(len(ops))](g.value(depth), g.value(depth))
	}
	switch g.rng.Intn(6) {
	case 0:
		return &expr.And{L: g.cond(depth - 1), R: g.cond(depth - 1)}
	case 1:
		return &expr.Or{L: g.cond(depth - 1), R: g.cond(depth - 1)}
	case 2:
		return expr.Negation(g.cond(depth - 1))
	case 3:
		return &expr.IsNull{E: g.value(depth - 1)}
	case 4:
		return expr.IfThenElse(g.cond(depth-1), g.cond(depth-1), g.cond(depth-1))
	default:
		return expr.Variable("b") // bool-kinded
	}
}

// chains builds what a slicing test builds: a pool of statement
// conditions, and four chains that each run through the pool — by
// address or by structural copy — joined into one formula.
func (g corpus) chains() expr.Expr {
	pool := make([]expr.Expr, 2+g.rng.Intn(4))
	for i := range pool {
		pool[i] = g.cond(2)
	}
	var joined []expr.Expr
	for c := 0; c < 4; c++ {
		var chain expr.Expr = expr.True
		for range pool {
			step := pool[g.rng.Intn(len(pool))]
			if g.rng.Intn(2) == 0 {
				step = clone(step)
			}
			switch g.rng.Intn(3) {
			case 0:
				chain = &expr.And{L: chain, R: step}
			case 1:
				chain = &expr.Or{L: chain, R: expr.Negation(step)}
			default:
				chain = expr.IfThenElse(step, chain, expr.Negation(chain))
			}
		}
		joined = append(joined, chain)
	}
	if g.rng.Intn(2) == 0 {
		return expr.OrOf(joined...)
	}
	return expr.AndOf(joined...)
}

// clone copies e node by node: equal structure, no shared address.
func clone(e expr.Expr) expr.Expr {
	switch x := e.(type) {
	case *expr.Const:
		return &expr.Const{V: x.V}
	case *expr.Col:
		return &expr.Col{Name: x.Name}
	case *expr.Var:
		return &expr.Var{Name: x.Name}
	case *expr.Param:
		return &expr.Param{Name: x.Name}
	case *expr.Arith:
		return &expr.Arith{Op: x.Op, L: clone(x.L), R: clone(x.R)}
	case *expr.Cmp:
		return &expr.Cmp{Op: x.Op, L: clone(x.L), R: clone(x.R)}
	case *expr.And:
		return &expr.And{L: clone(x.L), R: clone(x.R)}
	case *expr.Or:
		return &expr.Or{L: clone(x.L), R: clone(x.R)}
	case *expr.Not:
		return &expr.Not{E: clone(x.E)}
	case *expr.IsNull:
		return &expr.IsNull{E: clone(x.E)}
	case *expr.If:
		return &expr.If{Cond: clone(x.Cond), Then: clone(x.Then), Else: clone(x.Else)}
	}
	return e
}

var corpusKinds = map[string]types.Kind{
	"x": types.KindInt, "y": types.KindFloat, "s": types.KindString, "b": types.KindBool, "$p": types.KindInt,
}

// TestInterningMergesWhatRenderingMerged compiles a randomized corpus
// twice — hash-consing keyed by the interner, and keyed by rendered
// text as before — and requires the same model and the same search:
// the same subexpressions merged, so Vars and Cons agree, and the same
// branch & bound, so Nodes and the verdict agree.
func TestInterningMergesWhatRenderingMerged(t *testing.T) {
	trials := 300
	if testing.Short() {
		trials = 80
	}
	g := corpus{rand.New(rand.NewSource(20220612))}
	opts := Options{Solve: milp.SolveOptions{MaxNodes: 150}}
	compiled, shared, nodes := 0, 0, 0
	for trial := 0; trial < trials; trial++ {
		f := expr.Simplify(g.chains())

		got, errGot := newCompiler(corpusKinds, opts).solve(context.Background(), f)
		oracle := newCompiler(corpusKinds, opts)
		oracle.id = renderedIDs()
		want, errWant := oracle.solve(context.Background(), f)
		if (errGot == nil) != (errWant == nil) {
			t.Fatalf("trial %d: interned err=%v, rendered err=%v\n%s", trial, errGot, errWant, f)
		}
		if errGot != nil {
			if errGot.Error() != errWant.Error() {
				t.Fatalf("trial %d: errors differ: %v vs %v", trial, errGot, errWant)
			}
			continue
		}
		compiled++
		nodes += got.Nodes
		if got.Sat != want.Sat || got.Definitive != want.Definitive ||
			got.Nodes != want.Nodes || got.Vars != want.Vars || got.Cons != want.Cons {
			t.Fatalf("trial %d: interned %+v, rendered %+v\n%s", trial, summary(got), summary(want), f)
		}

		// The corpus must actually exercise merging: without any, the
		// model is larger.
		unshared := newCompiler(corpusKinds, opts)
		var next int32
		unshared.id = func(expr.Expr) int32 { next++; return next }
		if loose, err := unshared.solve(context.Background(), f); err == nil && loose.Vars > got.Vars {
			shared++
		}
	}
	t.Logf("%d formulas, %d compiled (%d solver nodes), %d of those had subexpressions to merge", trials, compiled, nodes, shared)
	if compiled < trials/4 {
		t.Errorf("only %d of %d formulas compiled: the corpus tests too little", compiled, trials)
	}
	if shared < compiled/2 {
		t.Errorf("only %d of %d compiled formulas had anything to merge", shared, compiled)
	}
}

func summary(o *Outcome) Outcome {
	return Outcome{Sat: o.Sat, Definitive: o.Definitive, Nodes: o.Nodes, Vars: o.Vars, Cons: o.Cons}
}

// TestInternerTellsTypedConstantsApart pins the equivalence the
// interner draws on leaves: kind and bits for constants, the node type
// for names.
func TestInternerTellsTypedConstantsApart(t *testing.T) {
	in := new(interner)
	distinct := []expr.Expr{
		expr.IntConst(2), expr.FloatConst(2),
		expr.FloatConst(0), expr.FloatConst(math.Copysign(0, -1)), expr.IntConst(0),
		expr.IntConst(1 << 53), expr.FloatConst(1 << 53), expr.IntConst(1<<53 + 1),
		expr.BoolConst(true), expr.BoolConst(false), expr.IntConst(1),
		expr.StringConst("x"), expr.Variable("x"), expr.Column("x"), expr.Parameter("x"),
		expr.StringConst(""), expr.Constant(types.Null()),
		fakeNodeA{}, fakeNodeB{}, fakeNodeA{}, // unknown nodes never merge, not even with themselves
	}
	seen := map[int32]int{}
	for i, e := range distinct {
		id := in.id(e)
		if j, dup := seen[id]; dup {
			t.Errorf("%s (#%d) and %s (#%d) share id %d", distinct[j], j, e, i, id)
		}
		seen[id] = i
	}
	for i, e := range distinct[:17] {
		if in.id(clone(e)) != in.id(e) {
			t.Errorf("#%d %s: a structural copy got another id", i, e)
		}
	}
	// Operators and operand order are structure too.
	x, y := expr.Variable("x"), expr.Variable("y")
	if in.id(expr.Add(x, y)) == in.id(expr.Sub(x, y)) || in.id(expr.Lt(x, y)) == in.id(expr.Lt(y, x)) ||
		in.id(&expr.And{L: x, R: y}) == in.id(&expr.Or{L: x, R: y}) || in.id(expr.Add(x, y)) == in.id(expr.Eq(x, y)) {
		t.Error("interner ignores an operator or the operand order")
	}
}
