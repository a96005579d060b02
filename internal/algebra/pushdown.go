package algebra

import (
	"strings"

	"github.com/mahif/mahif/internal/expr"
	"github.com/mahif/mahif/internal/schema"
	"github.com/mahif/mahif/internal/storage"
)

// PushCond implements the relation-specific condition push-down
// (θ)[R]↓Q of §6: it returns a condition over the base relation rel
// such that every rel-tuple contributing to a Q-output tuple satisfying
// θ also satisfies the returned condition. Contributions from branches
// that cannot produce rel-tuples yield false (neutral in the
// disjunctive combination); anything the rules cannot decompose safely
// widens to true.
//
//	(θ)[R]↓R'          = θ if R = R', false otherwise
//	(θ)[R]↓σ_θ'(Q)     = (θ ∧ θ')[R]↓Q
//	(θ)[R]↓Π_e⃗(Q)      = (θ[A⃗ ← e⃗])[R]↓Q
//	(θ)[R]↓(Q1 ∪ Q2)   = (θ)[R]↓Q1 ∨ (θ[Sch(Q1)←Sch(Q2)])[R]↓Q2
//
// Joins are handled by conjunct splitting (standard selection
// move-around): conjuncts of θ∧cond referencing only one side are
// pushed into that side; the rest are dropped (widening).
func PushCond(theta expr.Expr, q Query, rel string, db *storage.Database) (expr.Expr, error) {
	rel = strings.ToLower(rel)
	switch x := q.(type) {
	case *Scan:
		if strings.ToLower(x.Rel) == rel {
			return theta, nil
		}
		return expr.False, nil
	case *Singleton:
		// Constant relations contribute no base tuples.
		return expr.False, nil
	case *Select:
		return PushCond(expr.AndOf(theta, x.Cond), x.In, rel, db)
	case *Project:
		repl := make(map[string]expr.Expr, len(x.Exprs))
		for _, ne := range x.Exprs {
			repl[strings.ToLower(ne.Name)] = ne.E
		}
		return PushCond(expr.SubstCols(theta, repl), x.In, rel, db)
	case *Union:
		lc, err := PushCond(theta, x.L, rel, db)
		if err != nil {
			return nil, err
		}
		renamed, err := renameAcrossUnion(theta, x, db)
		if err != nil {
			return nil, err
		}
		rc, err := PushCond(renamed, x.R, rel, db)
		if err != nil {
			return nil, err
		}
		return expr.Simplify(expr.OrOf(lc, rc)), nil
	case *Join:
		return pushJoin(theta, x, rel, db)
	}
	return expr.True, nil
}

// renameAcrossUnion maps θ's attribute names from the left union
// branch's schema to the right one positionally (θ[Sch(Q1) ← Sch(Q2)]).
func renameAcrossUnion(theta expr.Expr, u *Union, db *storage.Database) (expr.Expr, error) {
	ls, err := OutputSchema(u.L, db)
	if err != nil {
		return nil, err
	}
	rs, err := OutputSchema(u.R, db)
	if err != nil {
		return nil, err
	}
	if ls.Arity() != rs.Arity() {
		return theta, nil
	}
	ren := map[string]string{}
	for i := range ls.Columns {
		from := strings.ToLower(ls.Columns[i].Name)
		to := rs.Columns[i].Name
		if !strings.EqualFold(from, to) {
			ren[from] = to
		}
	}
	return expr.RenameCols(theta, ren), nil
}

func pushJoin(theta expr.Expr, j *Join, rel string, db *storage.Database) (expr.Expr, error) {
	ls, err := OutputSchema(j.L, db)
	if err != nil {
		return nil, err
	}
	rs, err := OutputSchema(j.R, db)
	if err != nil {
		return nil, err
	}
	lcols, rcols := colSet(ls), colSet(rs)
	var lconj, rconj []expr.Expr
	full := append(expr.Conjuncts(theta), expr.Conjuncts(j.Cond)...)
	for _, c := range full {
		refs := expr.Cols(c)
		if within(refs, lcols) {
			lconj = append(lconj, c)
		} else if within(refs, rcols) {
			rconj = append(rconj, c)
		}
		// Cross-side conjuncts are dropped: widening toward true.
	}
	lp, err := PushCond(expr.AndOf(lconj...), j.L, rel, db)
	if err != nil {
		return nil, err
	}
	rp, err := PushCond(expr.AndOf(rconj...), j.R, rel, db)
	if err != nil {
		return nil, err
	}
	return expr.Simplify(expr.OrOf(lp, rp)), nil
}

func colSet(s *schema.Schema) map[string]bool {
	out := make(map[string]bool, s.Arity())
	for _, c := range s.Columns {
		out[strings.ToLower(c.Name)] = true
	}
	return out
}

func within(refs, cols map[string]bool) bool {
	for r := range refs {
		if !cols[r] {
			return false
		}
	}
	return true
}
