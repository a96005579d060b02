package core

import (
	"context"
	"testing"

	"github.com/mahif/mahif/internal/expr"
	"github.com/mahif/mahif/internal/symbolic"
	"github.com/mahif/mahif/internal/workload"
)

// TestSolverLoweredIsPrefixPlusSuffixes: a Taxi what-if's dependency
// run lowers Φ_D ∧ affected once and each test only its own conjuncts,
// so Stats.SolverLowered stays within |prefix| + Σ|suffixᵢ| — far below
// tests × |formula| — and a repeat through a session, answered by the
// solver memo, lowers nothing. The bound is sized from the slicing
// formulas rebuilt here from the what-if's own input.
func TestSolverLoweredIsPrefixPlusSuffixes(t *testing.T) {
	w, err := workload.Generate(workload.Taxi(1500, 1), workload.Config{
		Updates: 30, Mods: 1, DependentPct: 30, AffectedPct: 10, Seed: 6,
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
	_, st, err := engine.WhatIf(w.Mods, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if st.SolverLowered != st.Slices[rel].Lowered {
		t.Errorf("Stats.SolverLowered = %d, the relation's slice says %d", st.SolverLowered, st.Slices[rel].Lowered)
	}

	// The run's formulas: prefix Φ_D ∧ affected, and per tested statement
	// touched_i. The Taxi conditions read attributes the history never
	// writes, so no test reaches a definition and touched_i is the whole
	// suffix.
	ctx := context.Background()
	pair, tip, err := engine.align(w.Mods)
	if err != nil {
		t.Fatal(err)
	}
	suffix, db, err := engine.timeTravel(ctx, pair, tip, engine.NewSession().shared())
	if err != nil {
		t.Fatal(err)
	}
	relPair, _ := suffix.RestrictToRelation(rel)
	in := stripInsertPair(relPair)
	relation, err := db.Relation(rel)
	if err != nil {
		t.Fatal(err)
	}
	phiD, err := symbolic.Compress(relation, symbolic.CompressOptions{})
	if err != nil {
		t.Fatal(err)
	}
	base := symbolic.NewBaseState(relation.Schema)
	orig, err := symbolic.Exec(base, in.Orig, "h")
	if err != nil {
		t.Fatal(err)
	}
	mod, err := symbolic.Exec(base, in.Mod, "m")
	if err != nil {
		t.Fatal(err)
	}
	touched := func(i int) expr.Expr {
		return expr.OrOf(
			expr.AndOf(orig.Steps[i].LocalBefore, orig.Steps[i].Theta),
			expr.AndOf(mod.Steps[i].LocalBefore, mod.Steps[i].Theta))
	}
	modified := map[int]bool{}
	var affected []expr.Expr
	for _, p := range in.ModifiedPos {
		modified[p] = true
		affected = append(affected, touched(p))
	}
	defined := map[string]bool{}
	for _, g := range append(append([]expr.Expr(nil), orig.Global...), mod.Global...) {
		defined[g.(*expr.Cmp).L.(*expr.Var).Name] = true
	}
	readsDefinition := func(e expr.Expr) bool {
		reads := false
		expr.Walk(e, func(n expr.Expr) {
			if v, ok := n.(*expr.Var); ok && defined[v.Name] {
				reads = true
			}
		})
		return reads
	}
	shared := expr.AndOf(phiD, expr.OrOf(affected...))
	prefix := expr.Size(expr.Simplify(shared))
	bound, tests := prefix, 0
	for i := range in.Orig {
		if modified[i] || (in.Orig[i].IsNoOp() && in.Mod[i].IsNoOp()) {
			continue
		}
		if readsDefinition(expr.AndOf(shared, touched(i))) {
			t.Fatalf("test %d reaches a definition: the bound below would not hold", i)
		}
		tests++
		bound += 1 + expr.Size(touched(i))
	}
	if tests != st.SolverTests || tests < 5 {
		t.Fatalf("rebuilt %d tests, the what-if ran %d (want ≥ 5 to say anything)", tests, st.SolverTests)
	}
	t.Logf("%d tests, |prefix| = %d, lowered %d nodes, bound %d, tests × |prefix| = %d", tests, prefix, st.SolverLowered, bound, tests*prefix)
	if st.SolverLowered > bound {
		t.Errorf("lowered %d nodes, more than |prefix| + Σ|suffix| = %d", st.SolverLowered, bound)
	}
	if st.SolverLowered < prefix/2 || st.SolverLowered >= tests*prefix/2 {
		t.Errorf("lowered %d nodes: not the prefix once plus small suffixes (|prefix| = %d, %d tests)", st.SolverLowered, prefix, tests)
	}

	// Through a session the solver memo answers repeated questions: the
	// session counts what each call lowered, and a repeat lowers nothing.
	sess := engine.NewSession()
	var first *Stats
	for i := 0; i < 2; i++ {
		_, sst, err := sess.WhatIf(w.Mods, DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		if first == nil {
			first = sst
		} else if sst.SolverLowered != 0 {
			t.Errorf("a repeated what-if lowered %d nodes; the memo answers all its tests", sst.SolverLowered)
		}
	}
	if ss := sess.Stats(); ss.SolverLowered != int64(first.SolverLowered) || first.SolverLowered > st.SolverLowered {
		t.Errorf("the session counted %d lowered nodes, its first what-if %d (without a memo: %d)", ss.SolverLowered, first.SolverLowered, st.SolverLowered)
	}
}
