package compile

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"github.com/mahif/mahif/internal/expr"
	"github.com/mahif/mahif/internal/history"
	"github.com/mahif/mahif/internal/milp"
	"github.com/mahif/mahif/internal/schema"
	"github.com/mahif/mahif/internal/sql"
	"github.com/mahif/mahif/internal/symbolic"
	"github.com/mahif/mahif/internal/types"
)

// freshCheck is the oracle every prefix check is pinned to: the whole
// conjunction built and simplified from scratch, lowered on a compiler
// of its own — no prefix, no layers, no shared digest.
type freshCheck struct {
	whole expr.Expr
	c     *compiler
	err   error // from building the model
	key   memoKey
}

func newFreshCheck(cond expr.Expr, conj []expr.Expr, kinds map[string]types.Kind, opts Options) *freshCheck {
	kinds = withParamKinds(kinds, opts.ParamKinds)
	f := &freshCheck{whole: expr.Simplify(expr.AndOf(append([]expr.Expr{cond}, conj...)...))}
	f.c = newCompiler(kinds, opts)
	f.err = f.c.build(f.whole)
	f.key = hashQuery(f.whole, kinds, opts)
	return f
}

// outcome solves the fresh model (after a successful build).
func (f *freshCheck) outcome(t *testing.T) *Outcome {
	t.Helper()
	out, err := f.c.run(context.Background())
	if err != nil {
		t.Fatalf("fresh solve: %v", err)
	}
	return out
}

// comparePrefixCheck asks p for cond ∧ conj… and requires, against a
// fresh compilation of the whole formula: the same simplified formula,
// the same memo key, the same model constraint for constraint, and the
// same outcome (verdict, witness, Nodes, Vars, Cons) — or the same
// error. It reports whether the check ran on a child of the prefix.
func comparePrefixCheck(t *testing.T, p *Prefix, cond expr.Expr, conj []expr.Expr, kinds map[string]types.Kind, opts Options) (child bool) {
	t.Helper()
	f := newFreshCheck(cond, conj, kinds, opts)
	whole := p.conjoin(conj)
	if !expr.Equal(whole, f.whole) {
		t.Fatalf("folded conjunction differs from Simplify of the whole:\n got %s\nwant %s", whole, f.whole)
	}
	if p.opts.Memo != nil {
		if got := queryKey(p.digestOf(whole), p.env); got != f.key {
			t.Fatalf("prefix key %v, whole-formula key %v\n%s", got, f.key, f.whole)
		}
	}
	_, child = p.extendedBy(whole)

	c, err := p.compilerFor(whole)
	if err == nil {
		err = c.build(whole)
	}
	if (err == nil) != (f.err == nil) || (err != nil && err.Error() != f.err.Error()) {
		t.Fatalf("prefix path err=%v, fresh err=%v\n%s", err, f.err, f.whole)
	}
	out, serr := p.SatisfiableCtx(context.Background(), conj...)
	if (serr == nil) != (f.err == nil) || (serr != nil && serr.Error() != f.err.Error()) {
		t.Fatalf("SatisfiableCtx err=%v, fresh err=%v", serr, f.err)
	}
	if err != nil {
		return child
	}
	if err := c.model.Diff(f.c.model); err != nil {
		t.Fatalf("prefix-path model differs from the fresh model: %v\n%s", err, f.whole)
	}
	if want := f.outcome(t); !sameOutcome(out, want) {
		t.Fatalf("prefix outcome %+v, fresh %+v\n%s", *out, *want, f.whole)
	}
	return child
}

// sameOutcome compares a check's outcome with its fresh compilation's,
// leaving out only the propagation visits and the fallback flag: a
// child's pass goes on from its prefix's fixpoint, so it evaluates only
// the rows the prefix's pass has not.
func sameOutcome(got, want *Outcome) bool {
	g, w := *got, *want
	g.Visits, g.Fallback = 0, false
	w.Visits, w.Fallback = 0, false
	return reflect.DeepEqual(g, w)
}

// subCondition returns a structural copy of a random condition node of
// e, so a suffix shares subexpressions with its prefix by structure
// but not by address (nil when e has none).
func (g corpus) subCondition(e expr.Expr) expr.Expr {
	var conds []expr.Expr
	expr.Walk(e, func(n expr.Expr) {
		switch n.(type) {
		case *expr.Cmp, *expr.And, *expr.Or, *expr.Not, *expr.IsNull:
			conds = append(conds, n)
		}
	})
	if len(conds) == 0 {
		return nil
	}
	return clone(conds[g.rng.Intn(len(conds))])
}

// conjuncts draws a test's own conjuncts: fresh conditions, copies of
// the prefix's subconditions, the prefix itself, and constants that
// fold away or collapse the formula.
func (g corpus) conjuncts(prefix expr.Expr) []expr.Expr {
	out := make([]expr.Expr, 1+g.rng.Intn(3))
	for i := range out {
		switch r := g.rng.Intn(20); {
		case r < 8:
			out[i] = g.cond(2)
		case r < 14:
			if sub := g.subCondition(prefix); sub != nil {
				out[i] = expr.Negation(sub)
				if r%2 == 0 {
					out[i] = &expr.Or{L: sub, R: g.cond(1)}
				}
			} else {
				out[i] = g.cond(1)
			}
		case r < 16:
			out[i] = expr.True
		case r < 17:
			out[i] = expr.False
		case r < 18:
			out[i] = clone(prefix)
		default:
			out[i] = &expr.And{L: g.cond(1), R: expr.True}
		}
	}
	return out
}

// TestPrefixMatchesFreshCompile: over a randomized corpus of prefixes
// (slicing-shaped chains, single conditions, constants) each extended
// by a run of random tests, every check is the fresh compilation of its
// whole formula — same model, outcome, key, or error.
func TestPrefixMatchesFreshCompile(t *testing.T) {
	runs := 600
	if testing.Short() {
		runs = 150
	}
	g := corpus{rand.New(rand.NewSource(20260415))}
	children, fresh := 0, 0
	for run := 0; run < runs; run++ {
		var cond expr.Expr
		switch r := g.rng.Intn(10); {
		case r < 6:
			cond = g.chains()
		case r < 8:
			cond = g.cond(2)
		case r < 9:
			cond = expr.True
		default:
			cond = expr.AndOf(g.cond(1), expr.True)
		}
		kinds, opts := corpusKinds, Options{Solve: milp.SolveOptions{MaxNodes: 150}, Memo: NewMemo()}
		if run%3 == 0 {
			// The parameter's kind arrives through ParamKinds instead.
			kinds = map[string]types.Kind{"x": types.KindInt, "y": types.KindFloat, "s": types.KindString, "b": types.KindBool}
			opts.ParamKinds = map[string]types.Kind{"p": types.KindInt}
		}
		p := NewPrefix(cond, kinds, opts)
		for test := 0; test < 6; test++ {
			if comparePrefixCheck(t, p, cond, g.conjuncts(cond), kinds, opts) {
				children++
			} else {
				fresh++
			}
		}
	}
	t.Logf("%d checks on a child of their prefix, %d compiled afresh", children, fresh)
	if children < 2*fresh {
		t.Errorf("only %d of %d checks extended their prefix: the corpus folds the prefix away too often", children, children+fresh)
	}
}

var depSchema = schema.New("r",
	schema.Col("a", types.KindInt), schema.Col("b", types.KindInt),
	schema.Col("c", types.KindFloat), schema.Col("s", types.KindString))

// randomDepHistory draws updates and deletes over depSchema whose
// conditions overlap often enough that tests are a mix of SAT and
// UNSAT.
func randomDepHistory(rng *rand.Rand, n int) history.History {
	cond := func() string {
		col := []string{"a", "b", "c"}[rng.Intn(3)]
		op := []string{">=", "<", "=", "<>"}[rng.Intn(4)]
		c := fmt.Sprintf("%s %s %d", col, op, rng.Intn(40))
		switch rng.Intn(4) {
		case 0:
			c += fmt.Sprintf(" AND s = '%s'", []string{"x", "y"}[rng.Intn(2)])
		case 1:
			c += fmt.Sprintf(" OR a < %d", rng.Intn(10))
		}
		return c
	}
	var h history.History
	for i := 0; i < n; i++ {
		if rng.Intn(4) == 0 {
			h = append(h, sql.MustParseStatement("DELETE FROM r WHERE "+cond()))
			continue
		}
		col := []string{"a", "b", "c"}[rng.Intn(3)]
		set := fmt.Sprintf("%s = %s + %d", col, []string{"a", "b", "c"}[rng.Intn(3)], rng.Intn(9))
		if rng.Intn(4) == 0 {
			set = fmt.Sprintf("s = '%s'", []string{"x", "z"}[rng.Intn(2)])
		}
		h = append(h, sql.MustParseStatement("UPDATE r SET "+set+" WHERE "+cond()))
	}
	return h
}

// TestPrefixDependencyRunsMatchFreshCompile builds the §9 dependency
// formulas of random histories — the prefix Φ_D ∧ affected, then per
// statement touched_i and a random share of the definitions — and
// checks each on one prefix per run against a fresh compilation of the
// whole formula.
func TestPrefixDependencyRunsMatchFreshCompile(t *testing.T) {
	runs := 10000
	if testing.Short() {
		runs = 1500
	}
	rng := rand.New(rand.NewSource(5))
	phis := []expr.Expr{
		expr.True,
		expr.AndOf(expr.Ge(expr.Variable("x0_a"), expr.IntConst(0)), expr.Lt(expr.Variable("x0_a"), expr.IntConst(25))),
		expr.AndOf(expr.Ge(expr.Variable("x0_b"), expr.IntConst(5)), expr.Le(expr.Variable("x0_c"), expr.FloatConst(30.5)),
			expr.OrOf(expr.Eq(expr.Variable("x0_s"), expr.StringConst("x")), expr.Eq(expr.Variable("x0_s"), expr.StringConst("y")))),
	}
	checks := 0
	for run := 0; run < runs; run++ {
		h := randomDepHistory(rng, 1+rng.Intn(4))
		pos := rng.Intn(len(h))
		pair, err := history.ApplyModifications(h, []history.Modification{
			history.Replace{Pos: pos, Stmt: randomDepHistory(rng, 1)[0]},
		})
		if err != nil {
			t.Fatal(err)
		}
		base := symbolic.NewBaseState(depSchema)
		orig, err := symbolic.Exec(base, pair.Orig, "h")
		if err != nil {
			t.Fatal(err)
		}
		mod, err := symbolic.Exec(base, pair.Mod, "m")
		if err != nil {
			t.Fatal(err)
		}
		touched := func(i int) expr.Expr {
			return expr.OrOf(
				expr.AndOf(orig.Steps[i].LocalBefore, orig.Steps[i].Theta),
				expr.AndOf(mod.Steps[i].LocalBefore, mod.Steps[i].Theta))
		}
		var affected []expr.Expr
		for _, p := range pair.ModifiedPos {
			affected = append(affected, touched(p))
		}
		globals := append(append([]expr.Expr(nil), orig.Global...), mod.Global...)
		cond := expr.AndOf(phis[rng.Intn(len(phis))], expr.OrOf(affected...))
		kinds := symbolic.MergeKinds(orig, mod)
		opts := Options{Memo: NewMemo()}
		p := NewPrefix(cond, kinds, opts)
		for i := range pair.Orig {
			conj := []expr.Expr{touched(i)}
			for _, gl := range globals {
				if rng.Intn(2) == 0 {
					conj = append(conj, gl)
				}
			}
			comparePrefixCheck(t, p, cond, conj, kinds, opts)
			checks++
		}
	}
	t.Logf("%d runs, %d checks", runs, checks)
}

// prefixState renders everything the lowered prefix holds — model rows,
// variable and string tables, both memos, the interner — with %#v, which
// prints unexported fields and map contents in key order.
func prefixState(p *Prefix) string {
	c := p.base
	return fmt.Sprintf("%#v\n%#v\n%#v\n%v\n%#v\n%#v\n%#v\n%#v\n%v",
		*c.model, c.vars, c.strCodes, c.nextCode, c.boolMemo, c.numMemo, c.in.byPtr, c.in.byKey, c.in.next)
}

// TestPrefixUnchangedByChildren (run under -race): 100 checks on one
// prefix, from several goroutines at once, leave its lowered state
// byte-identical, and each check still equals its fresh compilation.
func TestPrefixUnchangedByChildren(t *testing.T) {
	g := corpus{rand.New(rand.NewSource(77))}
	var cond expr.Expr
	for cond == nil {
		if c := g.chains(); newFreshCheck(c, nil, corpusKinds, Options{}).err == nil {
			cond = c
		}
	}
	opts := Options{Solve: milp.SolveOptions{MaxNodes: 150}}
	p := NewPrefix(cond, corpusKinds, opts)
	if _, err := p.SatisfiableCtx(context.Background()); err != nil {
		t.Fatal(err)
	}
	before := prefixState(p)

	tests := make([][]expr.Expr, 100)
	for i := range tests {
		tests[i] = g.conjuncts(cond)
	}
	const workers = 4
	var wg sync.WaitGroup
	outs := make([]*Outcome, len(tests))
	errs := make([]error, len(tests))
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(tests); i += workers {
				outs[i], errs[i] = p.SatisfiableCtx(context.Background(), tests[i]...)
			}
		}(w)
	}
	wg.Wait()
	if after := prefixState(p); after != before {
		t.Fatal("the lowered prefix changed while checks ran on it")
	}
	for i, conj := range tests {
		f := newFreshCheck(cond, conj, corpusKinds, opts)
		if (errs[i] == nil) != (f.err == nil) {
			t.Fatalf("check %d: prefix err=%v, fresh err=%v", i, errs[i], f.err)
		}
		if errs[i] == nil && !sameOutcome(outs[i], f.outcome(t)) {
			t.Fatalf("check %d: concurrent prefix outcome differs from the fresh one", i)
		}
	}
}

// TestPrefixEdgeCases pins the checks where simplification, errors or
// cancellation decide the path.
func TestPrefixEdgeCases(t *testing.T) {
	x, y := expr.Variable("x"), expr.Variable("y")
	kinds := map[string]types.Kind{"x": types.KindInt, "y": types.KindInt}
	opts := Options{Memo: NewMemo()}
	cond := expr.AndOf(expr.Ge(x, expr.IntConst(3)), expr.Lt(x, expr.IntConst(10)))
	ctx := context.Background()

	t.Run("conjunct simplifies to true", func(t *testing.T) {
		p := NewPrefix(cond, kinds, opts)
		conj := []expr.Expr{expr.AndOf(expr.True, expr.Eq(expr.IntConst(1), expr.IntConst(1)))}
		if !comparePrefixCheck(t, p, cond, conj, kinds, opts) {
			t.Error("a conjunct folding to true dropped the prefix")
		}
	})
	t.Run("conjunct simplifies to false", func(t *testing.T) {
		p := NewPrefix(cond, kinds, opts)
		conj := []expr.Expr{expr.Ge(y, expr.IntConst(0)), expr.Lt(expr.IntConst(2), expr.IntConst(1))}
		if comparePrefixCheck(t, p, cond, conj, kinds, opts) {
			t.Error("a formula folded to false was lowered on the prefix")
		}
		if p.base != nil {
			t.Error("a check that never needed the prefix lowered it")
		}
	})
	t.Run("PhiD true", func(t *testing.T) {
		c := expr.AndOf(expr.True, expr.Ge(x, expr.IntConst(3)))
		p := NewPrefix(c, kinds, opts)
		if !comparePrefixCheck(t, p, c, []expr.Expr{expr.Lt(x, y)}, kinds, opts) {
			t.Error("Φ_D = true lost the prefix")
		}
	})
	t.Run("prefix true", func(t *testing.T) {
		p := NewPrefix(expr.True, kinds, opts)
		if comparePrefixCheck(t, p, expr.True, []expr.Expr{expr.Lt(x, y), expr.Ge(x, y)}, kinds, opts) {
			t.Error("a prefix folded to true was extended")
		}
	})
	t.Run("param kinds", func(t *testing.T) {
		c := expr.AndOf(cond, expr.Ge(x, expr.Parameter("cut")))
		for _, k := range []types.Kind{types.KindInt, types.KindFloat} {
			popts := Options{Memo: opts.Memo, ParamKinds: map[string]types.Kind{"cut": k}}
			p := NewPrefix(c, kinds, popts)
			comparePrefixCheck(t, p, c, []expr.Expr{expr.Le(expr.Parameter("cut"), y)}, kinds, popts)
		}
	})
	t.Run("prefix fails to lower", func(t *testing.T) {
		bad := expr.AndOf(cond, expr.Eq(expr.Mul(x, y), expr.IntConst(1)))
		p := NewPrefix(bad, kinds, opts)
		for i := 0; i < 2; i++ {
			comparePrefixCheck(t, p, bad, []expr.Expr{expr.Ge(y, expr.IntConst(0))}, kinds, opts)
		}
		if _, err := p.SatisfiableCtx(ctx, expr.Ge(y, expr.IntConst(1))); err == nil {
			t.Error("a check on a prefix that cannot be lowered succeeded")
		}
		// Folded to false, the formula never needs the prefix: no error.
		comparePrefixCheck(t, p, bad, []expr.Expr{expr.False}, kinds, opts)
	})
	t.Run("suffix fails to lower", func(t *testing.T) {
		p := NewPrefix(cond, kinds, opts)
		comparePrefixCheck(t, p, cond, []expr.Expr{expr.Ge(expr.Column("a"), x)}, kinds, opts)
		comparePrefixCheck(t, p, cond, []expr.Expr{expr.Ge(y, x)}, kinds, opts)
	})
	t.Run("cancelled mid-run", func(t *testing.T) {
		memo := NewMemo()
		copts := Options{Memo: memo}
		p := NewPrefix(cond, kinds, copts)
		comparePrefixCheck(t, p, cond, []expr.Expr{expr.Ge(y, x)}, kinds, copts)
		cctx, cancel := context.WithCancel(ctx)
		cancel()
		conj := expr.Lt(y, expr.IntConst(4))
		if _, err := p.SatisfiableCtx(cctx, conj); !errors.Is(err, context.Canceled) {
			t.Fatalf("cancelled check returned %v", err)
		}
		before := memo.Len()
		comparePrefixCheck(t, p, cond, []expr.Expr{conj}, kinds, copts)
		if memo.Len() != before+1 {
			t.Error("the cancelled check left an outcome in the memo")
		}
	})
}

// TestPrefixLoweredCountsOnlyNewNodes: a run lowers its prefix once and
// each check only what it adds; checks the memo answers lower nothing.
func TestPrefixLoweredCountsOnlyNewNodes(t *testing.T) {
	g := corpus{rand.New(rand.NewSource(3))}
	var cond expr.Expr
	for cond == nil {
		if c := g.chains(); newFreshCheck(c, nil, corpusKinds, Options{}).err == nil && expr.Size(expr.Simplify(c)) > 30 {
			cond = c
		}
	}
	opts := Options{Solve: milp.SolveOptions{MaxNodes: 150}, Memo: NewMemo()}
	p := NewPrefix(cond, corpusKinds, opts)
	x := expr.Variable("x")
	bound := expr.Size(p.root)
	for i := 0; i < 20; i++ {
		conj := expr.Ge(x, expr.IntConst(int64(i)))
		if _, err := p.SatisfiableCtx(context.Background(), conj); err != nil {
			t.Fatal(err)
		}
		bound += 1 + expr.Size(conj)
	}
	lowered := p.Lowered()
	if lowered > bound || lowered == 0 {
		t.Fatalf("Lowered = %d, want ≤ |prefix| + Σ|suffix| = %d and more than nothing", lowered, bound)
	}
	for i := 0; i < 20; i++ {
		if _, err := p.SatisfiableCtx(context.Background(), expr.Ge(x, expr.IntConst(int64(i)))); err != nil {
			t.Fatal(err)
		}
	}
	if p.Lowered() != lowered {
		t.Errorf("memo hits lowered %d nodes", p.Lowered()-lowered)
	}
}
