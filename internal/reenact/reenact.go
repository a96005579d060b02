// Package reenact compiles transactional histories into relational
// algebra queries (Def. 3): R_{U_{Set,θ}} is a generalized projection
// with per-attribute conditionals, R_{D_θ} a selection on ¬θ, and
// inserts become unions. For histories over multiple relations one
// query per relation is produced, and INSERT…SELECT statements are
// wired against the reenacted state of their input relations.
//
// It also implements the §10 optimization that splits a reenactment
// query into a part over the base relation (no inserts) and a part that
// only processes inserted tuples, enabling program slicing on the
// former.
package reenact

import (
	"fmt"
	"strings"

	"github.com/mahif/mahif/internal/algebra"
	"github.com/mahif/mahif/internal/expr"
	"github.com/mahif/mahif/internal/history"
	"github.com/mahif/mahif/internal/schema"
	"github.com/mahif/mahif/internal/storage"
)

// Filters maps relation name (lowercase) to a data-slicing condition
// applied at the base scan; absent entries mean no filter.
type Filters map[string]expr.Expr

// baseQuery returns the (possibly filtered) scan for rel.
func baseQuery(rel string, filters Filters) algebra.Query {
	var q algebra.Query = &algebra.Scan{Rel: rel}
	if filters != nil {
		if f, ok := filters[strings.ToLower(rel)]; ok && !expr.IsTriviallyTrue(f) {
			q = &algebra.Select{Cond: f, In: q}
		}
	}
	return q
}

// stepQuery folds one statement onto the running reenactment query for
// its relation. cur maps relation → query reflecting the state after
// the preceding statements.
func stepQuery(st history.Statement, cur map[string]algebra.Query, db *storage.Database) (algebra.Query, error) {
	rel := strings.ToLower(st.Table())
	in := cur[rel]
	switch x := st.(type) {
	case *history.Update:
		r, err := db.Relation(rel)
		if err != nil {
			return nil, err
		}
		vec, err := x.SetVector(r.Schema)
		if err != nil {
			return nil, err
		}
		exprs := make([]algebra.NamedExpr, len(vec))
		for i, c := range r.Schema.Columns {
			if col, ok := vec[i].(*expr.Col); ok && strings.EqualFold(col.Name, c.Name) {
				// Identity column: no conditional needed.
				exprs[i] = algebra.NamedExpr{Name: c.Name, E: expr.Column(c.Name)}
				continue
			}
			exprs[i] = algebra.NamedExpr{
				Name: c.Name,
				E:    expr.IfThenElse(x.Where, vec[i], expr.Column(c.Name)),
			}
		}
		return &algebra.Project{Exprs: exprs, In: in}, nil
	case *history.Delete:
		return &algebra.Select{Cond: expr.Negation(x.Where), In: in}, nil
	case *history.InsertValues:
		if len(x.Rows) == 0 {
			return in, nil
		}
		r, err := db.Relation(rel)
		if err != nil {
			return nil, err
		}
		return &algebra.Union{L: in, R: &algebra.Singleton{Sch: r.Schema, Tuples: x.Rows}}, nil
	case *history.InsertQuery:
		q := algebra.SubstituteScans(x.Query, cur)
		return &algebra.Union{L: in, R: q}, nil
	}
	return nil, fmt.Errorf("reenact: unknown statement %T", st)
}

// Queries builds the reenactment query R_H^R for every relation
// modified by h. filters (may be nil) injects data-slicing conditions
// at the base scans.
func Queries(h history.History, db *storage.Database, filters Filters) (map[string]algebra.Query, error) {
	cur := map[string]algebra.Query{}
	// Seed every relation that any statement touches or reads.
	seed := func(rel string) {
		rel = strings.ToLower(rel)
		if _, ok := cur[rel]; !ok {
			cur[rel] = baseQuery(rel, filters)
		}
	}
	for _, st := range h {
		seed(st.Table())
		if iq, ok := st.(*history.InsertQuery); ok {
			for rel := range algebra.BaseRelations(iq.Query) {
				seed(rel)
			}
		}
	}
	for _, st := range h {
		q, err := stepQuery(st, cur, db)
		if err != nil {
			return nil, fmt.Errorf("reenact: %s: %w", st, err)
		}
		cur[strings.ToLower(st.Table())] = q
	}
	// Only relations actually modified need to be returned.
	out := map[string]algebra.Query{}
	for rel := range h.Relations() {
		out[rel] = cur[rel]
	}
	return out, nil
}

// QueryForRelation builds the reenactment query for a single relation.
func QueryForRelation(h history.History, rel string, db *storage.Database, filters Filters) (algebra.Query, error) {
	qs, err := Queries(h, db, filters)
	if err != nil {
		return nil, err
	}
	q, ok := qs[strings.ToLower(rel)]
	if !ok {
		return baseQuery(rel, filters), nil
	}
	return q, nil
}

// InsertBranches builds the right-hand side of the §10 split for rel:
// the union of, for every insert into rel, the inserted tuples with the
// remaining rel-statements of the history applied on top. It returns
// nil if the history contains no inserts into rel.
func InsertBranches(h history.History, rel string, db *storage.Database) (algebra.Query, error) {
	rel = strings.ToLower(rel)
	cur := map[string]algebra.Query{}
	for _, st := range h {
		r := strings.ToLower(st.Table())
		if _, ok := cur[r]; !ok {
			cur[r] = &algebra.Scan{Rel: r}
		}
		if iq, ok := st.(*history.InsertQuery); ok {
			for rr := range algebra.BaseRelations(iq.Query) {
				if _, ok := cur[rr]; !ok {
					cur[rr] = &algebra.Scan{Rel: rr}
				}
			}
		}
	}

	var branches []algebra.Query
	for _, st := range h {
		r := strings.ToLower(st.Table())
		if r == rel {
			switch x := st.(type) {
			case *history.InsertValues:
				if len(x.Rows) > 0 {
					rl, err := db.Relation(rel)
					if err != nil {
						return nil, err
					}
					branches = append(branches, &algebra.Singleton{Sch: rl.Schema, Tuples: x.Rows})
				}
				// The insert does not transform existing branches.
				q, err := stepQuery(st, cur, db)
				if err != nil {
					return nil, err
				}
				cur[r] = q
				continue
			case *history.InsertQuery:
				rl, err := db.Relation(rel)
				if err != nil {
					return nil, err
				}
				branches = append(branches, renameTo(algebra.SubstituteScans(x.Query, cur), rl.Schema, db))
				q, err := stepQuery(st, cur, db)
				if err != nil {
					return nil, err
				}
				cur[r] = q
				continue
			}
			// Updates/deletes transform every open branch, mirroring how
			// the pulled-up union's right side sees the history suffix.
			for bi, b := range branches {
				saved := cur[rel]
				cur[rel] = b
				nb, err := stepQuery(st, cur, db)
				cur[rel] = saved
				if err != nil {
					return nil, err
				}
				branches[bi] = nb
			}
		}
		q, err := stepQuery(st, cur, db)
		if err != nil {
			return nil, err
		}
		cur[strings.ToLower(st.Table())] = q
	}
	if len(branches) == 0 {
		return nil, nil
	}
	out := branches[0]
	for _, b := range branches[1:] {
		out = &algebra.Union{L: out, R: b}
	}
	return out, nil
}

// renameTo names q's output columns after target's: an INSERT…SELECT
// branch starts a state of the target relation, and the statements
// after it address the target's column names, which the union of the
// whole reenactment takes from its left input. A query whose arity
// differs, or whose output names repeat, is left as it is.
func renameTo(q algebra.Query, target *schema.Schema, db *storage.Database) algebra.Query {
	out, err := algebra.OutputSchema(q, db)
	if err != nil || out.Arity() != target.Arity() {
		return q
	}
	exprs := make([]algebra.NamedExpr, len(out.Columns))
	for i, c := range out.Columns {
		if out.ColIndex(c.Name) != i {
			return q
		}
		exprs[i] = algebra.NamedExpr{Name: target.Columns[i].Name, E: expr.Column(c.Name)}
	}
	return &algebra.Project{Exprs: exprs, In: q}
}
