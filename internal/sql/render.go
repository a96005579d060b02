package sql

import (
	"fmt"
	"strings"

	"github.com/mahif/mahif/internal/algebra"
	"github.com/mahif/mahif/internal/expr"
	"github.com/mahif/mahif/internal/history"
)

// RenderStatement renders a history statement as SQL that ParseStatement
// reads back — the WAL encoding of the durable store. UPDATE, DELETE
// and INSERT…VALUES already render SQL through their String methods;
// INSERT…SELECT carries an algebra tree whose String is algebra
// notation (σ, Π, ⋈), so its query is lowered back to SELECT syntax
// here. Statements whose query falls outside the parser's
// select-project-join-union subset (e.g. a hand-built Singleton) have
// no SQL rendering and are rejected.
func RenderStatement(st history.Statement) (string, error) {
	iq, ok := st.(*history.InsertQuery)
	if !ok {
		return st.String(), nil
	}
	q, err := RenderQuery(iq.Query)
	if err != nil {
		return "", fmt.Errorf("sql: INSERT INTO %s: %w", iq.Rel, err)
	}
	return "INSERT INTO " + iq.Rel + " " + q, nil
}

// RenderQuery renders an algebra query in the shape the parser
// produces — optional Project over optional Select over a left-deep
// Join chain of Scans, combined by Union — back to SELECT syntax.
func RenderQuery(q algebra.Query) (string, error) {
	if u, ok := q.(*algebra.Union); ok {
		l, err := RenderQuery(u.L)
		if err != nil {
			return "", err
		}
		r, err := RenderQuery(u.R)
		if err != nil {
			return "", err
		}
		return l + " UNION ALL " + r, nil
	}
	if a, ok := q.(*algebra.Aggregate); ok {
		return renderAggregate(a)
	}
	return renderSelectCore(q)
}

// renderAggregate renders a γ node the way the parser reads it back:
// grouping items first, aggregate calls after (always with AS — the
// default "col<i>" names are positional, so re-parsing must not have to
// re-derive them), then FROM/WHERE from the input, then GROUP BY.
func renderAggregate(q *algebra.Aggregate) (string, error) {
	var b strings.Builder
	b.WriteString("SELECT ")
	for i, ne := range q.GroupBy {
		if i > 0 {
			b.WriteString(", ")
		}
		if c, ok := ne.E.(*expr.Col); ok && strings.EqualFold(c.Name, ne.Name) {
			b.WriteString(ne.Name)
			continue
		}
		fmt.Fprintf(&b, "%s AS %s", ne.E, ne.Name)
	}
	for i, a := range q.Aggs {
		if i > 0 || len(q.GroupBy) > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "%s AS %s", a.CallString(), a.Name)
	}
	in := q.In
	var where expr.Expr
	if sel, ok := in.(*algebra.Select); ok {
		where = sel.Cond
		in = sel.In
	}
	from, err := renderFrom(in)
	if err != nil {
		return "", err
	}
	b.WriteString(" FROM ")
	b.WriteString(from)
	if where != nil {
		b.WriteString(" WHERE ")
		b.WriteString(where.String())
	}
	if len(q.GroupBy) > 0 {
		b.WriteString(" GROUP BY ")
		for i, ne := range q.GroupBy {
			if i > 0 {
				b.WriteString(", ")
			}
			b.WriteString(ne.E.String())
		}
	}
	return b.String(), nil
}

func renderSelectCore(q algebra.Query) (string, error) {
	var b strings.Builder
	b.WriteString("SELECT ")

	proj, _ := q.(*algebra.Project)
	if proj != nil {
		for i, ne := range proj.Exprs {
			if i > 0 {
				b.WriteString(", ")
			}
			if c, ok := ne.E.(*expr.Col); ok && strings.EqualFold(c.Name, ne.Name) {
				b.WriteString(ne.Name)
				continue
			}
			fmt.Fprintf(&b, "%s AS %s", ne.E, ne.Name)
		}
		q = proj.In
	} else {
		b.WriteString("*")
	}

	var where expr.Expr
	if sel, ok := q.(*algebra.Select); ok {
		where = sel.Cond
		q = sel.In
	}

	from, err := renderFrom(q)
	if err != nil {
		return "", err
	}
	b.WriteString(" FROM ")
	b.WriteString(from)
	if where != nil {
		b.WriteString(" WHERE ")
		b.WriteString(where.String())
	}
	return b.String(), nil
}

// renderFrom renders a left-deep join chain whose right operands are
// scans (the only FROM shape the grammar can express).
func renderFrom(q algebra.Query) (string, error) {
	switch x := q.(type) {
	case *algebra.Scan:
		return x.Rel, nil
	case *algebra.Join:
		rs, ok := x.R.(*algebra.Scan)
		if !ok {
			return "", fmt.Errorf("join right operand %T has no SQL form", x.R)
		}
		l, err := renderFrom(x.L)
		if err != nil {
			return "", err
		}
		return l + " JOIN " + rs.Rel + " ON " + x.Cond.String(), nil
	}
	return "", fmt.Errorf("query node %T has no SQL form", q)
}
