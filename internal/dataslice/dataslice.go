// Package dataslice implements the data slicing optimization of §6:
// selection conditions injected at the base scans of the reenactment
// queries that filter out tuples provably irrelevant for the answer of
// a historical what-if query.
//
// For a modification u ← u' at position p, the base conditions are
//
//	update/update:  θ_u ∨ θ_u'           (Eq. 7, both sides)
//	delete/delete:  θ_u' for H, θ_u for H[M] (simplified Eq. 8)
//	insert/insert:  none — base tuples pass through inserts unchanged
//
// The update/update disjunction is folded into one comparison when θ_u
// and θ_u' differ only in the constant of one comparison of a column
// that bounds it from the same side, constants of one numeric kind:
// (φ ∧ A ≥ 50) ∨ (φ ∧ A ≥ 60) is φ ∧ A ≥ 50. The standard what-if, one
// statement under another threshold, then filters by one comparison a
// row instead of two (see looser).
//
// The conditions are pushed down through the p preceding statements
// per side (Fig. 9): substitution through updates, unchanged through
// deletes and constant inserts, and through INSERT…SELECT via the
// relational push-down (θ)[S]↓Q, which spawns conditions for the
// query's input relations. Conditions from multiple modifications are
// combined by disjunction (Thm. 2).
package dataslice

import (
	"cmp"
	"math"
	"strings"

	"github.com/mahif/mahif/internal/algebra"
	"github.com/mahif/mahif/internal/expr"
	"github.com/mahif/mahif/internal/history"
	"github.com/mahif/mahif/internal/reenact"
	"github.com/mahif/mahif/internal/storage"
	"github.com/mahif/mahif/internal/types"
)

// Conditions holds per-relation slicing filters for the two histories.
type Conditions struct {
	H reenact.Filters // filters for the original history's reenactment
	M reenact.Filters // filters for the modified history's reenactment
}

// Options tunes the analysis.
type Options struct {
	// MaxCondSize widens a pushed condition to true once its AST
	// exceeds this many nodes, bounding the push-down cost the paper
	// discusses at the end of §6. Zero means the default (8192).
	MaxCondSize int
}

const defaultMaxCondSize = 8192

// Compute derives the data slicing conditions for an aligned history
// pair over db.
func Compute(pair *history.PaddedPair, db *storage.Database, opts Options) (*Conditions, error) {
	if opts.MaxCondSize == 0 {
		opts.MaxCondSize = defaultMaxCondSize
	}
	hContrib, hWide, err := sideConditions(pair, db, false, opts)
	if err != nil {
		return nil, err
	}
	mContrib, mWide, err := sideConditions(pair, db, true, opts)
	if err != nil {
		return nil, err
	}

	out := &Conditions{H: reenact.Filters{}, M: reenact.Filters{}}
	wide := func(rel string) bool { return hWide[rel] || mWide[rel] }
	combine := func(contrib map[string][]expr.Expr, dst reenact.Filters) {
		for rel, cs := range contrib {
			if wide(rel) {
				continue // widened to true: no filter
			}
			dst[rel] = expr.Simplify(expr.OrOf(cs...))
		}
	}
	combine(hContrib, out.H)
	combine(mContrib, out.M)

	// Relations read by an unmodified INSERT…SELECT must be filtered
	// symmetrically on both sides: their tuples feed inserted tuples via
	// the query in both reenactments, filtered-out sources produce the
	// same (missing) inserted tuples on both sides, and those cancel in
	// the delta. An asymmetric filter (possible for delete/delete
	// modifications) would break that cancellation. The symmetric union
	// of both sides' filters is a sound superset.
	for _, rel := range queryReadRelations(pair, false) {
		hc, hok := out.H[rel]
		mc, mok := out.M[rel]
		switch {
		case !hok && !mok:
			continue
		case !hok || !mok:
			// One side unfiltered: drop the other side's filter too.
			delete(out.H, rel)
			delete(out.M, rel)
		default:
			sym := expr.Simplify(expr.OrOf(hc, mc))
			out.H[rel] = sym
			out.M[rel] = sym
		}
	}

	// Relations read by a *modified* INSERT…SELECT must not be filtered
	// at all: the query's output exists on one side only, so its
	// inserted tuples are themselves the delta and every source tuple
	// the query needs must survive.
	for _, rel := range queryReadRelations(pair, true) {
		delete(out.H, rel)
		delete(out.M, rel)
	}
	return out, nil
}

// sideConditions runs the push-down worklist for one side of the pair.
// It returns per-relation condition contributions and the set of
// relations whose conditions were widened to true.
func sideConditions(pair *history.PaddedPair, db *storage.Database, modified bool, opts Options) (map[string][]expr.Expr, map[string]bool, error) {
	stmts := pair.Orig
	if modified {
		stmts = pair.Mod
	}
	contrib := map[string][]expr.Expr{}
	widened := map[string]bool{}

	type item struct {
		rel  string
		cond expr.Expr
		pos  int // cond talks about relation state after statements [0,pos)
	}
	var work []item
	for _, p := range pair.ModifiedPos {
		u, uNew := pair.Orig[p], pair.Mod[p]
		cond := baseCondition(u, uNew, modified)
		if cond == nil {
			continue // insert pair: no base condition
		}
		work = append(work, item{rel: strings.ToLower(u.Table()), cond: cond, pos: p})
	}

	for len(work) > 0 {
		it := work[len(work)-1]
		work = work[:len(work)-1]
		cond := it.cond
		tooBig := false
		for j := it.pos - 1; j >= 0 && !tooBig; j-- {
			st := stmts[j]
			if !strings.EqualFold(st.Table(), it.rel) {
				continue
			}
			switch x := st.(type) {
			case *history.Update:
				rel, err := db.Relation(it.rel)
				if err != nil {
					return nil, nil, err
				}
				vec, err := x.SetVector(rel.Schema)
				if err != nil {
					return nil, nil, err
				}
				repl := map[string]expr.Expr{}
				for i, c := range rel.Schema.Columns {
					if col, ok := vec[i].(*expr.Col); ok && strings.EqualFold(col.Name, c.Name) {
						continue // identity assignment: no substitution
					}
					repl[strings.ToLower(c.Name)] = expr.IfThenElse(x.Where, vec[i], expr.Column(c.Name))
				}
				cond = expr.SubstCols(cond, repl)
				if expr.Size(cond) > opts.MaxCondSize {
					tooBig = true
				}
			case *history.Delete, *history.InsertValues:
				// Surviving base tuples keep their values; constant
				// inserts are handled by the insert-branch split.
			case *history.InsertQuery:
				// Tuples may enter it.rel here via the query: spawn
				// conditions for the query's input relations at state j.
				for src := range algebra.BaseRelations(x.Query) {
					pushed, err := algebra.PushCond(cond, x.Query, src, db)
					if err != nil {
						return nil, nil, err
					}
					pushed = expr.Simplify(pushed)
					if !expr.IsTriviallyFalse(pushed) {
						work = append(work, item{rel: src, cond: pushed, pos: j})
					}
				}
			}
		}
		if tooBig {
			widened[it.rel] = true
			continue
		}
		contrib[it.rel] = append(contrib[it.rel], expr.Simplify(cond))
	}
	return contrib, widened, nil
}

// baseCondition builds the slicing condition contributed by one aligned
// modification pair for the requested side, or nil when the pair does
// not constrain base tuples (insert pairs).
func baseCondition(u, uNew history.Statement, modified bool) expr.Expr {
	switch a := u.(type) {
	case *history.Update:
		b, ok := uNew.(*history.Update)
		if !ok {
			return expr.True
		}
		if w := looser(a.Where, b.Where); w != nil {
			return expr.Simplify(w)
		}
		return expr.Simplify(expr.OrOf(a.Where, b.Where))
	case *history.Delete:
		b, ok := uNew.(*history.Delete)
		if !ok {
			return expr.True
		}
		if modified {
			return nullInclusive(a.Where) // θ_u filters the modified history's input
		}
		return nullInclusive(b.Where) // θ_u' filters the original history's input
	case *history.InsertValues, *history.InsertQuery:
		return nil
	}
	return expr.True
}

// looser is θ ∨ θ' as one condition when the two have the same
// conjuncts in the same order but at one place, where each compares one
// column with a constant, bounding it from the same side (> and ≥, or <
// and ≤, in either operand order): the disjunction is then the
// conjunction with the looser comparison in that place. It is nil
// otherwise.
//
// That is exact under SQL's three-valued logic, errors included. Where
// both conjunctions share every other conjunct φ, (φ ∧ c) ∨ (φ ∧ c') is
// φ ∧ (c ∨ c'), and c ∨ c' is the looser of the two when it holds
// wherever the other does: on a NULL cell both are NULL, and a cell of
// another kind fails both comparisons with the same error. A row reaches
// a conjunct after the folded one exactly when it reached it in one of
// the two disjuncts, so it errors on the same rows. The engine orders
// numbers as float64 (types.Value.Compare), which rounding keeps
// monotone, so the looser bound of two constants of one kind is looser
// for every number. A NaN cell compares equal to every constant: it
// satisfies ≥ and ≤ and fails > and <, whatever the bound, so a strict
// comparison is never looser than a non-strict one (c > 3 ∨ c ≥ 5 stays
// a disjunction). A NaN constant compares equal to everything, and an
// int against a float constant past 2^53 may order either way: such
// pairs, and any constant that is not a number, stay a disjunction.
func looser(a, b expr.Expr) expr.Expr {
	ac, bc := expr.Conjuncts(a), expr.Conjuncts(b)
	if len(ac) != len(bc) {
		return nil
	}
	at := -1
	for i := range ac {
		if expr.Equal(ac[i], bc[i]) {
			continue
		}
		if at >= 0 {
			return nil
		}
		at = i
	}
	if at < 0 {
		return nil // the same condition: Simplify folds θ ∨ θ
	}
	w := looserBound(ac[at], bc[at])
	if w == nil {
		return nil
	}
	out := append([]expr.Expr(nil), ac...)
	out[at] = w
	return expr.AndOf(out...)
}

// looserBound returns whichever of two comparisons of one column with
// a non-NaN numeric constant of one kind holds wherever the other does,
// NaN cells included, both bounding the column from the same side; nil
// when they do not have that shape or neither holds wherever the other
// does.
func looserBound(x, y expr.Expr) expr.Expr {
	xc, xop, xk, ok1 := colBound(x)
	yc, yop, yk, ok2 := colBound(y)
	lower := func(op expr.CmpOp) bool { return op == expr.CmpGt || op == expr.CmpGe }
	if !ok1 || !ok2 || !strings.EqualFold(xc, yc) || xk.Kind() != yk.Kind() || lower(xop) != lower(yop) {
		return nil
	}
	order := cmp.Compare(xk.AsFloat(), yk.AsFloat())
	if xk.Kind() == types.KindInt {
		order = cmp.Compare(xk.AsInt(), yk.AsInt())
	}
	if !lower(xop) {
		order = -order // an upper bound is looser the larger it is
	}
	strict := func(op expr.CmpOp) bool { return op == expr.CmpGt || op == expr.CmpLt }
	switch {
	case order == 0 && strict(xop):
		return y // the same bound: the non-strict comparison is looser
	case order == 0:
		return x
	case order > 0:
		x, xop, yop = y, yop, xop
	}
	if strict(xop) && !strict(yop) {
		return nil // a NaN cell satisfies yop, not xop
	}
	return x
}

// colBound reads e as column op constant, the column on the left, for
// an ordering op and a numeric constant that is not NaN.
func colBound(e expr.Expr) (col string, op expr.CmpOp, k types.Value, ok bool) {
	c, isCmp := e.(*expr.Cmp)
	if !isCmp || c.Op == expr.CmpEq || c.Op == expr.CmpNe {
		return "", 0, types.Value{}, false
	}
	l, r, op := c.L, c.R, c.Op
	if _, isConst := l.(*expr.Const); isConst {
		l, r, op = r, l, op.Flip()
	}
	lc, isCol := l.(*expr.Col)
	rk, isConst := r.(*expr.Const)
	if !isCol || !isConst || !rk.V.IsNumeric() || math.IsNaN(rk.V.AsFloat()) {
		return "", 0, types.Value{}, false
	}
	return lc.Name, op, rk.V, true
}

// nullInclusive widens a delete condition θ to θ ∨ (θ IS NULL). The
// engine deletes a tuple whenever ¬θ is not TRUE, so a θ that evaluates
// to NULL removes the tuple just like TRUE does (the documented
// deviation in history.Delete). A slicing filter built from bare θ
// would drop those tuples from the slice — silently excluding affected
// tuples from the delta — because σ keeps only rows where the filter is
// TRUE.
func nullInclusive(w expr.Expr) expr.Expr {
	return expr.Simplify(expr.OrOf(w, &expr.IsNull{E: w}))
}

// queryReadRelations lists relations read by INSERT…SELECT statements
// on either side of the pair, restricted to modified or unmodified
// statement positions.
func queryReadRelations(pair *history.PaddedPair, modifiedOnly bool) []string {
	modified := map[int]bool{}
	for _, p := range pair.ModifiedPos {
		modified[p] = true
	}
	set := map[string]bool{}
	scan := func(h history.History) {
		for pos, st := range h {
			if modified[pos] != modifiedOnly {
				continue
			}
			if iq, ok := st.(*history.InsertQuery); ok {
				for rel := range algebra.BaseRelations(iq.Query) {
					set[rel] = true
				}
			}
		}
	}
	scan(pair.Orig)
	scan(pair.Mod)
	out := make([]string, 0, len(set))
	for rel := range set {
		out = append(out, rel)
	}
	return out
}

// TaintedRelations returns the relations whose final state can differ
// between the two histories: targets of modified statements, plus any
// relation receiving an INSERT…SELECT that (transitively) reads a
// tainted relation after the taint was introduced. Untainted relations
// have a provably empty delta and can be skipped entirely.
func TaintedRelations(pair *history.PaddedPair) map[string]bool {
	tainted := map[string]bool{}
	firstMod := map[string]int{}
	for _, p := range pair.ModifiedPos {
		rel := strings.ToLower(pair.Orig[p].Table())
		tainted[rel] = true
		if old, ok := firstMod[rel]; !ok || p < old {
			firstMod[rel] = p
		}
	}
	// Propagate along insert-query edges in statement order until fixpoint.
	for changed := true; changed; {
		changed = false
		for _, h := range []history.History{pair.Orig, pair.Mod} {
			for pos, st := range h {
				iq, ok := st.(*history.InsertQuery)
				if !ok {
					continue
				}
				dst := strings.ToLower(iq.Rel)
				if tainted[dst] {
					continue
				}
				for src := range algebra.BaseRelations(iq.Query) {
					if tainted[src] && pos >= firstMod[src] {
						tainted[dst] = true
						firstMod[dst] = pos
						changed = true
						break
					}
				}
			}
		}
	}
	return tainted
}
