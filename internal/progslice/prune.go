package progslice

import (
	"github.com/mahif/mahif/internal/expr"
	"github.com/mahif/mahif/internal/symbolic"
)

// globalDefs is the definition table of a set of symbolic states: the
// defining equalities x_{A,i} = if θ then e else prev their executions
// accumulated, by defined variable and in definition order, plus the
// conjuncts that define nothing. It depends on the states only, so a
// slicing run builds it once and prunes it per test.
type globalDefs struct {
	defs   []globalDef
	byName map[string]int // defined variable → index into defs
	always []expr.Expr    // non-definition conjuncts, always kept
	// alwaysVars are the variables of always: reachable in every test.
	alwaysVars []string
}

type globalDef struct {
	conj expr.Expr // the whole equality
	deps []string  // variables of its right-hand side
}

// newGlobalDefs indexes the global conditions of states. The first
// definition of a variable wins (states executed from one base share
// their prefix).
func newGlobalDefs(states ...*symbolic.State) *globalDefs {
	t := &globalDefs{byName: map[string]int{}}
	for _, st := range states {
		for _, g := range st.Global {
			if eq, ok := g.(*expr.Cmp); ok && eq.Op == expr.CmpEq {
				if v, ok := eq.L.(*expr.Var); ok {
					if _, dup := t.byName[v.Name]; !dup {
						t.byName[v.Name] = len(t.defs)
						t.defs = append(t.defs, globalDef{conj: g, deps: varNames(eq.R)})
					}
					continue
				}
			}
			t.always = append(t.always, g)
			t.alwaysVars = append(t.alwaysVars, varNames(g)...)
		}
	}
	return t
}

func varNames(e expr.Expr) []string {
	var out []string
	expr.Walk(e, func(n expr.Expr) {
		if v, ok := n.(*expr.Var); ok {
			out = append(out, v.Name)
		}
	})
	return out
}

// prune performs a cone-of-influence reduction: of all definitions only
// those transitively reachable from the variables of the core formula
// are kept. Update chains for attributes the slicing condition never
// looks at (the common case: conditions mention selection attributes,
// updates write payload attributes) disappear entirely, which keeps the
// MILP small. Non-definition conjuncts are always kept; definitions
// come out in definition order.
func (t *globalDefs) prune(core expr.Expr) []expr.Expr {
	return t.conjuncts(t.reach(nil, core))
}

// reach marks the definitions transitively reachable from the variables
// of e or already marked in base; a nil base starts from the variables
// of the always-kept conjuncts. base is not modified. The marks depend
// on the set of variables only, so a run that tests one shared formula
// conjoined with a different one per test reaches from the shared part
// once and extends that per test.
func (t *globalDefs) reach(base []bool, e expr.Expr) []bool {
	used := make([]bool, len(t.defs))
	if len(t.defs) == 0 {
		return used
	}
	queue := varNames(e)
	if base == nil {
		queue = append(queue, t.alwaysVars...)
	} else {
		copy(used, base)
	}
	for len(queue) > 0 {
		v := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		i, ok := t.byName[v]
		if !ok || used[i] {
			continue
		}
		used[i] = true
		queue = append(queue, t.defs[i].deps...)
	}
	return used
}

// conjuncts returns the always-kept conjuncts, then the marked
// definitions in definition order.
func (t *globalDefs) conjuncts(used []bool) []expr.Expr {
	out := append([]expr.Expr(nil), t.always...)
	for i, d := range t.defs {
		if used[i] {
			out = append(out, d.conj)
		}
	}
	return out
}
