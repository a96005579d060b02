// Package symbolic implements the VC-table machinery of §8: symbolic
// execution of update/delete statements over a single-tuple symbolic
// instance with possible-world semantics (Def. 6, Thm. 3), and lossy
// compression of a concrete database into range constraints Φ_D
// (§8.3.1) that over-approximate its data distribution.
//
// A State is a VC-table with exactly one symbolic tuple: per-attribute
// symbolic expressions (variables), the tuple's local condition φ(t),
// and the conjuncts of the global condition Φ. Executing an update adds
// one fresh variable per assigned attribute plus the defining equality
//
//	x_{A,i} = if θ(t_{i-1}) then e(t_{i-1}) else t_{i-1}.A
//
// to Φ, avoiding the exponential blow-up of the naive two-tuples-per-
// update encoding; deletes strengthen the local condition with ¬θ. θ
// and every SET expression e read t_{i-1}, the tuple before the
// statement, as Eq. 1 has it: in SET a = a + 1, b = a the new b is the
// old a.
package symbolic

import (
	"context"
	"fmt"
	"slices"
	"strings"

	"github.com/mahif/mahif/internal/expr"
	"github.com/mahif/mahif/internal/history"
	"github.com/mahif/mahif/internal/schema"
	"github.com/mahif/mahif/internal/types"
)

// State is a single-tuple VC-table for one relation.
type State struct {
	Schema *schema.Schema
	// Vals maps lowercase column name → symbolic value expression.
	Vals map[string]expr.Expr
	// Local is the tuple's local condition φ(t).
	Local expr.Expr
	// Global holds the conjuncts of the global condition Φ added by
	// update steps.
	Global []expr.Expr
	// Kinds records the type of every symbolic variable introduced so
	// far (base and fresh), for the MILP compiler.
	Kinds map[string]types.Kind
	// Steps records per-statement metadata used by the §9 dependency
	// test.
	Steps []StepInfo
}

// StepInfo captures the symbolic view of one executed statement.
type StepInfo struct {
	// Theta is the statement condition expressed over the symbolic
	// state *before* the statement ran (false for padding no-ops).
	Theta expr.Expr
	// LocalBefore is the local condition before the statement ran.
	LocalBefore expr.Expr
}

// BaseVar names the symbolic variable for column col of the initial
// tuple (shared across all histories compared by a slicing test).
func BaseVar(col string) string { return "x0_" + strings.ToLower(col) }

// NewBaseState builds D0: one tuple of fresh base variables with local
// condition true.
func NewBaseState(s *schema.Schema) *State {
	st := &State{
		Schema: s,
		Vals:   make(map[string]expr.Expr, s.Arity()),
		Local:  expr.True,
		Kinds:  make(map[string]types.Kind, s.Arity()),
	}
	for _, c := range s.Columns {
		name := BaseVar(c.Name)
		st.Vals[strings.ToLower(c.Name)] = expr.Variable(name)
		st.Kinds[name] = c.Type
	}
	return st
}

// clone duplicates the state so executions of different histories share
// base variables but nothing else.
func (st *State) clone() *State {
	out := &State{
		Schema: st.Schema,
		Vals:   make(map[string]expr.Expr, len(st.Vals)),
		Local:  st.Local,
		Global: append([]expr.Expr(nil), st.Global...),
		Kinds:  make(map[string]types.Kind, len(st.Kinds)),
		Steps:  append([]StepInfo(nil), st.Steps...),
	}
	for k, v := range st.Vals {
		out.Vals[k] = v
	}
	for k, v := range st.Kinds {
		out.Kinds[k] = v
	}
	return out
}

// bind rewrites a statement expression over attributes into a symbolic
// expression over the current tuple.
func (st *State) bind(e expr.Expr) expr.Expr {
	return expr.SubstCols(e, st.Vals)
}

// Exec symbolically executes a history of updates and deletes over a
// copy of st. tag disambiguates the fresh variables of different
// histories compared in one formula. Insert statements are rejected:
// the engine strips them beforehand via the §10 split.
func Exec(st *State, h history.History, tag string) (*State, error) {
	return ExecCtx(context.Background(), st, h, tag)
}

// ExecCtx is Exec under a context, checked before every statement: a
// long history (thousands of statements) takes tens of milliseconds to
// execute symbolically, and a dependency run does it twice before its
// first solver test.
func ExecCtx(ctx context.Context, st *State, h history.History, tag string) (*State, error) {
	out := st.clone()
	for i, raw := range h {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		switch u := raw.(type) {
		case *history.Update:
			if err := out.execUpdate(u, i, tag); err != nil {
				return nil, err
			}
		case *history.Delete:
			theta := out.bind(u.Where)
			out.Steps = append(out.Steps, StepInfo{Theta: theta, LocalBefore: out.Local})
			out.Local = expr.Simplify(expr.AndOf(out.Local, expr.Negation(theta)))
		default:
			return nil, fmt.Errorf("symbolic: statement %d (%s) is not an update or delete", i+1, raw)
		}
	}
	return out, nil
}

// execUpdate adds the statement's fresh variables and their defining
// equalities. Like Update.SetVector, θ and every SET expression read the
// tuple as it was before the statement — in SET a = a + 1, b = a, b
// takes the old a — so all are bound before any column is reassigned;
// a column SET twice takes its last clause.
func (st *State) execUpdate(u *history.Update, step int, tag string) error {
	theta := st.bind(u.Where)
	st.Steps = append(st.Steps, StepInfo{Theta: theta, LocalBefore: st.Local})
	if len(u.Set) == 0 || expr.IsTriviallyFalse(expr.Simplify(theta)) {
		return nil // padding no-op: state unchanged
	}
	rhs := make([]expr.Expr, len(u.Set))
	for i, sc := range u.Set {
		old, ok := st.Vals[strings.ToLower(sc.Col)]
		if !ok {
			return fmt.Errorf("symbolic: SET column %q not in schema %s", sc.Col, st.Schema)
		}
		rhs[i] = expr.IfThenElse(theta, st.bind(sc.E), old)
	}
	for i, sc := range u.Set {
		if slices.ContainsFunc(u.Set[i+1:], func(o history.SetClause) bool { return strings.EqualFold(o.Col, sc.Col) }) {
			continue
		}
		col := strings.ToLower(sc.Col)
		fresh := fmt.Sprintf("x_%s_%s_%d", tag, col, step+1)
		st.Global = append(st.Global, expr.Eq(expr.Variable(fresh), rhs[i]))
		st.Vals[col] = expr.Variable(fresh)
		idx := st.Schema.ColIndex(col)
		kind := types.KindFloat
		if idx >= 0 {
			kind = st.Schema.Columns[idx].Type
		}
		st.Kinds[fresh] = kind
	}
	return nil
}

// SameResult builds the condition of Eq. 19: two single-tuple states
// produce the same result in a world iff either both tuples exist and
// agree on every attribute, or neither exists. Attributes whose
// symbolic values are structurally identical in both states (e.g. never
// updated) are skipped — they are equal in every world.
func SameResult(a, b *State) expr.Expr {
	var eqs []expr.Expr
	for _, c := range a.Schema.Columns {
		col := strings.ToLower(c.Name)
		if expr.Equal(a.Vals[col], b.Vals[col]) {
			continue
		}
		eqs = append(eqs, expr.Eq(a.Vals[col], b.Vals[col]))
	}
	if expr.Equal(a.Local, b.Local) {
		// Same existence condition in every world: the states agree iff
		// the values agree or the tuple is absent.
		if len(eqs) == 0 {
			return expr.True
		}
		return expr.Simplify(expr.OrOf(expr.AndOf(expr.AndOf(eqs...), a.Local), expr.Negation(a.Local)))
	}
	bothLive := expr.AndOf(expr.AndOf(eqs...), a.Local, b.Local)
	bothGone := expr.AndOf(expr.Negation(a.Local), expr.Negation(b.Local))
	return expr.Simplify(expr.OrOf(bothLive, bothGone))
}

// MergeKinds unions variable-kind maps from several states (they agree
// on shared base variables by construction).
func MergeKinds(states ...*State) map[string]types.Kind {
	out := map[string]types.Kind{}
	for _, st := range states {
		for k, v := range st.Kinds {
			out[k] = v
		}
	}
	return out
}
