package progslice

import (
	"fmt"
	"math/rand"
	"testing"

	"github.com/mahif/mahif/internal/expr"
	"github.com/mahif/mahif/internal/history"
	"github.com/mahif/mahif/internal/schema"
	"github.com/mahif/mahif/internal/sql"
	"github.com/mahif/mahif/internal/symbolic"
	"github.com/mahif/mahif/internal/types"
)

// pruneGlobalsPerCall is the cone-of-influence reduction as it was
// before the definition table was hoisted out of the per-statement
// loop: it rebuilds the table from the states on every call. Kept as
// the oracle globalDefs.prune is pinned to.
func pruneGlobalsPerCall(core expr.Expr, states ...*symbolic.State) []expr.Expr {
	type def struct {
		conj expr.Expr
		rhs  expr.Expr
		used bool
	}
	var order []string
	defs := map[string]*def{}
	var always []expr.Expr
	for _, st := range states {
		for _, g := range st.Global {
			if eq, ok := g.(*expr.Cmp); ok && eq.Op == expr.CmpEq {
				if v, ok := eq.L.(*expr.Var); ok {
					if _, dup := defs[v.Name]; !dup {
						defs[v.Name] = &def{conj: g, rhs: eq.R}
						order = append(order, v.Name)
					}
					continue
				}
			}
			always = append(always, g)
		}
	}
	queue := make([]string, 0, len(defs))
	for v := range varSet(core) {
		queue = append(queue, v)
	}
	for _, g := range always {
		for v := range varSet(g) {
			queue = append(queue, v)
		}
	}
	seen := map[string]bool{}
	for len(queue) > 0 {
		v := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		if seen[v] {
			continue
		}
		seen[v] = true
		d, ok := defs[v]
		if !ok || d.used {
			continue
		}
		d.used = true
		for dep := range varSet(d.rhs) {
			queue = append(queue, dep)
		}
	}
	out := append([]expr.Expr(nil), always...)
	for _, name := range order {
		if defs[name].used {
			out = append(out, defs[name].conj)
		}
	}
	return out
}

// TestPruneMatchesPerCallTable: over random update/delete histories and
// random core formulas, one table pruned many times returns the very
// conjuncts, in the very order, that a table rebuilt per call returned.
func TestPruneMatchesPerCallTable(t *testing.T) {
	forRandomPruneTests(t, 7, func(defs *globalDefs, states []*symbolic.State, shared, own expr.Expr) {
		core := expr.AndOf(shared, own)
		samePruned(t, defs.prune(core), pruneGlobalsPerCall(core, states...))
	})
}

// TestPruneFromSharedReachMatchesPerCallTable: a run that reaches from
// its shared formula once and extends that per test gets, for every
// test, the very conjuncts in the very order the per-call table returns
// for the whole formula.
func TestPruneFromSharedReachMatchesPerCallTable(t *testing.T) {
	forRandomPruneTests(t, 8, func(defs *globalDefs, states []*symbolic.State, shared, own expr.Expr) {
		reached := defs.reach(nil, shared)
		before := fmt.Sprint(reached)
		got := defs.conjuncts(defs.reach(reached, own))
		if fmt.Sprint(reached) != before {
			t.Fatal("extending a shared reach modified it")
		}
		samePruned(t, got, pruneGlobalsPerCall(expr.AndOf(shared, own), states...))
	})
}

func samePruned(t *testing.T, got, want []expr.Expr) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("kept %d conjuncts, the per-call table %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("conjunct %d is %s, want %s", i, got[i], want[i])
		}
	}
}

// forRandomPruneTests runs check over random update/delete histories:
// per trial one definition table of two or four states, and six tests
// of a core formula split into a shared part and a per-test part (a
// step condition, sometimes true).
func forRandomPruneTests(t *testing.T, seed int64, check func(defs *globalDefs, states []*symbolic.State, shared, own expr.Expr)) {
	rng := rand.New(rand.NewSource(seed))
	cols := []string{"a", "b", "c", "d"}
	s := schema.New("r",
		schema.Col("a", types.KindInt), schema.Col("b", types.KindInt),
		schema.Col("c", types.KindInt), schema.Col("d", types.KindInt))
	randomHistory := func() history.History {
		var h history.History
		for i, n := 0, 1+rng.Intn(12); i < n; i++ {
			where := fmt.Sprintf("%s >= %d", cols[rng.Intn(4)], rng.Intn(50))
			if rng.Intn(4) == 0 {
				h = append(h, sql.MustParseStatement("DELETE FROM r WHERE "+where))
				continue
			}
			set := fmt.Sprintf("%s = %s + %d", cols[rng.Intn(4)], cols[rng.Intn(4)], rng.Intn(9))
			h = append(h, sql.MustParseStatement("UPDATE r SET "+set+" WHERE "+where))
		}
		return h
	}
	for trial := 0; trial < 200; trial++ {
		base := symbolic.NewBaseState(s)
		var states []*symbolic.State
		for i, tag := range []string{"h", "m", "hs", "ms"}[:2+2*rng.Intn(2)] {
			st, err := symbolic.Exec(base, randomHistory(), tag)
			if err != nil {
				t.Fatal(err)
			}
			if i == 1 && len(states[0].Global) > 0 {
				// A second definition of a variable already defined, and a
				// conjunct that defines nothing: the first is dropped, the
				// second always kept and its variables always reachable.
				st.Global = append(st.Global, states[0].Global[0],
					expr.Ge(st.Vals[cols[rng.Intn(4)]], expr.IntConst(0)))
			}
			states = append(states, st)
		}
		defs := newGlobalDefs(states...)
		for test := 0; test < 6; test++ {
			st := states[rng.Intn(len(states))]
			shared := expr.AndOf(st.Local, st.Vals[cols[rng.Intn(4)]], expr.Eq(st.Vals[cols[rng.Intn(4)]], expr.IntConst(1)))
			var own expr.Expr = expr.True
			if len(st.Steps) > 0 {
				own = st.Steps[rng.Intn(len(st.Steps))].Theta
			}
			check(defs, states, shared, own)
		}
	}
}

// varSet is the set of symbolic variables e reads.
func varSet(e expr.Expr) map[string]bool {
	out := map[string]bool{}
	expr.Walk(e, func(n expr.Expr) {
		if v, ok := n.(*expr.Var); ok {
			out[v.Name] = true
		}
	})
	return out
}
