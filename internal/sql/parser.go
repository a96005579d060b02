package sql

import (
	"fmt"
	"strconv"
	"strings"

	"github.com/mahif/mahif/internal/algebra"
	"github.com/mahif/mahif/internal/expr"
	"github.com/mahif/mahif/internal/history"
	"github.com/mahif/mahif/internal/schema"
	"github.com/mahif/mahif/internal/types"
)

type parser struct {
	toks []token
	pos  int
	src  string
}

func newParser(src string) (*parser, error) {
	toks, err := lex(src)
	if err != nil {
		return nil, err
	}
	return &parser{toks: toks, src: src}, nil
}

func (p *parser) cur() token  { return p.toks[p.pos] }
func (p *parser) next() token { t := p.toks[p.pos]; p.pos++; return t }

func (p *parser) errf(format string, args ...any) error {
	t := p.cur()
	return fmt.Errorf("sql: %s (near offset %d in %q)", fmt.Sprintf(format, args...), t.pos, clip(p.src))
}

func clip(s string) string {
	s = strings.TrimSpace(s)
	if len(s) > 60 {
		return s[:57] + "..."
	}
	return s
}

func (p *parser) acceptKeyword(kw string) bool {
	if p.cur().kind == tokKeyword && p.cur().text == kw {
		p.pos++
		return true
	}
	return false
}

func (p *parser) expectKeyword(kw string) error {
	if !p.acceptKeyword(kw) {
		return p.errf("expected %s, found %q", kw, p.cur().text)
	}
	return nil
}

func (p *parser) acceptOp(op string) bool {
	if p.cur().kind == tokOp && p.cur().text == op {
		p.pos++
		return true
	}
	return false
}

func (p *parser) expectOp(op string) error {
	if !p.acceptOp(op) {
		return p.errf("expected %q, found %q", op, p.cur().text)
	}
	return nil
}

func (p *parser) expectIdent() (string, error) {
	if p.cur().kind != tokIdent {
		return "", p.errf("expected identifier, found %q", p.cur().text)
	}
	return p.next().text, nil
}

// ParseStatement parses one UPDATE / DELETE / INSERT statement.
func ParseStatement(src string) (history.Statement, error) {
	p, err := newParser(src)
	if err != nil {
		return nil, err
	}
	st, err := p.parseStatement()
	if err != nil {
		return nil, err
	}
	p.acceptOp(";")
	if p.cur().kind != tokEOF {
		return nil, p.errf("trailing input after statement")
	}
	return st, nil
}

// ParseStatements parses a ';'-separated script into a history.
func ParseStatements(src string) (history.History, error) {
	p, err := newParser(src)
	if err != nil {
		return nil, err
	}
	var out history.History
	for p.cur().kind != tokEOF {
		st, err := p.parseStatement()
		if err != nil {
			return nil, err
		}
		out = append(out, st)
		if !p.acceptOp(";") {
			break
		}
	}
	if p.cur().kind != tokEOF {
		return nil, p.errf("trailing input after statements")
	}
	return out, nil
}

// MustParseStatement panics on error; intended for tests and examples.
func MustParseStatement(src string) history.Statement {
	st, err := ParseStatement(src)
	if err != nil {
		panic(err)
	}
	return st
}

// ParseCondition parses a standalone condition (Fig. 7 φ).
func ParseCondition(src string) (expr.Expr, error) {
	p, err := newParser(src)
	if err != nil {
		return nil, err
	}
	e, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if p.cur().kind != tokEOF {
		return nil, p.errf("trailing input after condition")
	}
	return e, nil
}

// ParseQuery parses a standalone SELECT query (used for INSERT…SELECT).
func ParseQuery(src string) (algebra.Query, error) {
	p, err := newParser(src)
	if err != nil {
		return nil, err
	}
	q, err := p.parseSelect()
	if err != nil {
		return nil, err
	}
	p.acceptOp(";")
	if p.cur().kind != tokEOF {
		return nil, p.errf("trailing input after query")
	}
	return q, nil
}

func (p *parser) parseStatement() (history.Statement, error) {
	switch {
	case p.acceptKeyword("UPDATE"):
		return p.parseUpdate()
	case p.acceptKeyword("DELETE"):
		return p.parseDelete()
	case p.acceptKeyword("INSERT"):
		return p.parseInsert()
	}
	return nil, p.errf("expected UPDATE, DELETE, or INSERT, found %q", p.cur().text)
}

func (p *parser) parseUpdate() (history.Statement, error) {
	rel, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	if err := p.expectKeyword("SET"); err != nil {
		return nil, err
	}
	var sets []history.SetClause
	for {
		col, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		if err := p.expectOp("="); err != nil {
			return nil, err
		}
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		sets = append(sets, history.SetClause{Col: col, E: e})
		if !p.acceptOp(",") {
			break
		}
	}
	where := expr.Expr(expr.True)
	if p.acceptKeyword("WHERE") {
		if where, err = p.parseExpr(); err != nil {
			return nil, err
		}
	}
	return &history.Update{Rel: rel, Set: sets, Where: where}, nil
}

func (p *parser) parseDelete() (history.Statement, error) {
	if err := p.expectKeyword("FROM"); err != nil {
		return nil, err
	}
	rel, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	where := expr.Expr(expr.True)
	if p.acceptKeyword("WHERE") {
		if where, err = p.parseExpr(); err != nil {
			return nil, err
		}
	}
	return &history.Delete{Rel: rel, Where: where}, nil
}

func (p *parser) parseInsert() (history.Statement, error) {
	if err := p.expectKeyword("INTO"); err != nil {
		return nil, err
	}
	rel, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	if p.acceptKeyword("VALUES") {
		var rows []schema.Tuple
		for {
			if err := p.expectOp("("); err != nil {
				return nil, err
			}
			var row schema.Tuple
			for {
				e, err := p.parseExpr()
				if err != nil {
					return nil, err
				}
				c, ok := expr.Simplify(e).(*expr.Const)
				if !ok {
					return nil, p.errf("INSERT VALUES requires constant expressions, got %s", e)
				}
				row = append(row, c.V)
				if !p.acceptOp(",") {
					break
				}
			}
			if err := p.expectOp(")"); err != nil {
				return nil, err
			}
			rows = append(rows, row)
			if !p.acceptOp(",") {
				break
			}
		}
		return &history.InsertValues{Rel: rel, Rows: rows}, nil
	}
	if p.cur().kind == tokKeyword && p.cur().text == "SELECT" {
		q, err := p.parseSelect()
		if err != nil {
			return nil, err
		}
		return &history.InsertQuery{Rel: rel, Query: q}, nil
	}
	// Parenthesized query — the rendering InsertQuery.String produces
	// ("INSERT INTO r (SELECT ...)"), accepted so statements round-trip
	// through the WAL. The grammar has no column lists, so "(" after
	// the relation name is unambiguous.
	if p.acceptOp("(") {
		q, err := p.parseSelect()
		if err != nil {
			return nil, err
		}
		if err := p.expectOp(")"); err != nil {
			return nil, err
		}
		return &history.InsertQuery{Rel: rel, Query: q}, nil
	}
	return nil, p.errf("expected VALUES or SELECT after INSERT INTO %s", rel)
}

// parseSelect parses SELECT … [UNION [ALL] SELECT …].
func (p *parser) parseSelect() (algebra.Query, error) {
	q, err := p.parseSelectCore()
	if err != nil {
		return nil, err
	}
	for p.acceptKeyword("UNION") {
		p.acceptKeyword("ALL") // bag semantics either way
		r, err := p.parseSelectCore()
		if err != nil {
			return nil, err
		}
		q = &algebra.Union{L: q, R: r}
	}
	return q, nil
}

// aggFuncs maps aggregate function names to algebra functions. They are
// matched case-insensitively as plain identifiers in select-item
// position (an identifier immediately followed by "("), not reserved as
// keywords, so columns named "count" or "min" stay valid everywhere.
var aggFuncs = map[string]algebra.AggFunc{
	"COUNT": algebra.AggCount, "SUM": algebra.AggSum, "AVG": algebra.AggAvg,
	"MIN": algebra.AggMin, "MAX": algebra.AggMax,
}

// peekAggFunc reports whether the cursor sits on an aggregate call head.
func (p *parser) peekAggFunc() (algebra.AggFunc, bool) {
	t := p.cur()
	if t.kind != tokIdent || p.pos+1 >= len(p.toks) {
		return 0, false
	}
	fn, ok := aggFuncs[strings.ToUpper(t.text)]
	if !ok {
		return 0, false
	}
	nt := p.toks[p.pos+1]
	return fn, nt.kind == tokOp && nt.text == "("
}

func (p *parser) parseSelectCore() (algebra.Query, error) {
	if err := p.expectKeyword("SELECT"); err != nil {
		return nil, err
	}
	type outCol struct {
		name string
		e    expr.Expr // non-aggregate item (nil when agg)
		agg  bool
		fn   algebra.AggFunc
		arg  expr.Expr // aggregate argument; nil for COUNT(*)
	}
	var cols []outCol
	star := false
	hasAgg := false
	if p.acceptOp("*") {
		star = true
	} else {
		for {
			var c outCol
			if fn, ok := p.peekAggFunc(); ok {
				p.next() // function name
				p.next() // "("
				c.agg, c.fn = true, fn
				hasAgg = true
				if !(fn == algebra.AggCount && p.acceptOp("*")) {
					arg, err := p.parseExpr()
					if err != nil {
						return nil, err
					}
					c.arg = arg
				}
				if err := p.expectOp(")"); err != nil {
					return nil, err
				}
			} else {
				e, err := p.parseExpr()
				if err != nil {
					return nil, err
				}
				c.e = e
			}
			if p.acceptKeyword("AS") {
				name, err := p.expectIdent()
				if err != nil {
					return nil, err
				}
				c.name = name
			} else if col, ok := c.e.(*expr.Col); ok {
				c.name = col.Name
			}
			cols = append(cols, c)
			if !p.acceptOp(",") {
				break
			}
		}
	}
	if err := p.expectKeyword("FROM"); err != nil {
		return nil, err
	}
	from, err := p.parseFrom()
	if err != nil {
		return nil, err
	}
	var q algebra.Query = from
	if p.acceptKeyword("WHERE") {
		cond, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		q = &algebra.Select{Cond: cond, In: q}
	}
	var groupExprs []expr.Expr
	hasGroupBy := false
	if p.acceptKeyword("GROUP") {
		if err := p.expectKeyword("BY"); err != nil {
			return nil, err
		}
		hasGroupBy = true
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			groupExprs = append(groupExprs, e)
			if !p.acceptOp(",") {
				break
			}
		}
	}
	if !hasAgg && !hasGroupBy {
		if star {
			return q, nil
		}
		exprs := make([]algebra.NamedExpr, len(cols))
		for i, c := range cols {
			name := c.name
			if name == "" {
				name = "col" + strconv.Itoa(i+1)
			}
			exprs[i] = algebra.NamedExpr{Name: name, E: c.e}
		}
		return &algebra.Project{Exprs: exprs, In: q}, nil
	}
	// Aggregate query. The grammar keeps the γ node's column layout
	// directly expressible: grouping items first, aggregate items after
	// (so output columns are groups then aggregates), and the GROUP BY
	// list must name exactly the non-aggregate select items.
	if star {
		return nil, p.errf("SELECT * cannot be combined with aggregates or GROUP BY")
	}
	var groups []algebra.NamedExpr
	var aggs []algebra.AggExpr
	for i, c := range cols {
		name := c.name
		if name == "" {
			name = "col" + strconv.Itoa(i+1)
		}
		if c.agg {
			aggs = append(aggs, algebra.AggExpr{Name: name, Fn: c.fn, Arg: c.arg})
			continue
		}
		if len(aggs) > 0 {
			return nil, p.errf("grouping columns must precede aggregate columns in the select list")
		}
		groups = append(groups, algebra.NamedExpr{Name: name, E: c.e})
	}
	if !hasGroupBy && len(groups) > 0 {
		return nil, p.errf("non-aggregate select item %s requires a GROUP BY clause", groups[0].E)
	}
	if hasGroupBy {
		used := make([]bool, len(groupExprs))
		for _, g := range groups {
			found := false
			for j, ge := range groupExprs {
				if !used[j] && expr.Equal(g.E, ge) {
					used[j] = true
					found = true
					break
				}
			}
			if !found {
				return nil, p.errf("select item %s is not in the GROUP BY clause", g.E)
			}
		}
		for j, ge := range groupExprs {
			if used[j] {
				continue
			}
			dup := false
			for _, g := range groups {
				if expr.Equal(g.E, ge) {
					dup = true
					break
				}
			}
			if !dup {
				return nil, p.errf("GROUP BY expression %s does not appear in the select list", ge)
			}
		}
	}
	return &algebra.Aggregate{GroupBy: groups, Aggs: aggs, In: q}, nil
}

func (p *parser) parseFrom() (algebra.Query, error) {
	rel, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	var q algebra.Query = &algebra.Scan{Rel: rel}
	for p.acceptKeyword("JOIN") {
		right, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		if err := p.expectKeyword("ON"); err != nil {
			return nil, err
		}
		cond, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		q = &algebra.Join{L: q, R: &algebra.Scan{Rel: right}, Cond: cond}
	}
	return q, nil
}

// Expression grammar, loosest binding first: OR, AND, NOT, comparison
// (incl. IS NULL, BETWEEN, IN), additive, multiplicative, unary, primary.

func (p *parser) parseExpr() (expr.Expr, error) { return p.parseOr() }

func (p *parser) parseOr() (expr.Expr, error) {
	l, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	for p.acceptKeyword("OR") {
		r, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		l = &expr.Or{L: l, R: r}
	}
	return l, nil
}

func (p *parser) parseAnd() (expr.Expr, error) {
	l, err := p.parseNot()
	if err != nil {
		return nil, err
	}
	for p.acceptKeyword("AND") {
		r, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		l = &expr.And{L: l, R: r}
	}
	return l, nil
}

func (p *parser) parseNot() (expr.Expr, error) {
	if p.acceptKeyword("NOT") {
		e, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		return &expr.Not{E: e}, nil
	}
	return p.parseComparison()
}

var cmpOps = map[string]expr.CmpOp{
	"=": expr.CmpEq, "<>": expr.CmpNe, "!=": expr.CmpNe,
	"<": expr.CmpLt, "<=": expr.CmpLe, ">": expr.CmpGt, ">=": expr.CmpGe,
}

func (p *parser) parseComparison() (expr.Expr, error) {
	l, err := p.parseAdditive()
	if err != nil {
		return nil, err
	}
	if p.cur().kind == tokOp {
		if op, ok := cmpOps[p.cur().text]; ok {
			p.pos++
			r, err := p.parseAdditive()
			if err != nil {
				return nil, err
			}
			return &expr.Cmp{Op: op, L: l, R: r}, nil
		}
	}
	if p.acceptKeyword("IS") {
		negated := p.acceptKeyword("NOT")
		if !p.acceptKeyword("NULL") {
			return nil, p.errf("expected NULL after IS")
		}
		var e expr.Expr = &expr.IsNull{E: l}
		if negated {
			e = &expr.Not{E: e}
		}
		return e, nil
	}
	if p.acceptKeyword("BETWEEN") {
		lo, err := p.parseAdditive()
		if err != nil {
			return nil, err
		}
		if err := p.expectKeyword("AND"); err != nil {
			return nil, err
		}
		hi, err := p.parseAdditive()
		if err != nil {
			return nil, err
		}
		return expr.AndOf(expr.Ge(l, lo), expr.Le(l, hi)), nil
	}
	if p.acceptKeyword("IN") {
		if err := p.expectOp("("); err != nil {
			return nil, err
		}
		var alts []expr.Expr
		for {
			v, err := p.parseAdditive()
			if err != nil {
				return nil, err
			}
			alts = append(alts, expr.Eq(l, v))
			if !p.acceptOp(",") {
				break
			}
		}
		if err := p.expectOp(")"); err != nil {
			return nil, err
		}
		return expr.OrOf(alts...), nil
	}
	return l, nil
}

func (p *parser) parseAdditive() (expr.Expr, error) {
	l, err := p.parseMultiplicative()
	if err != nil {
		return nil, err
	}
	for {
		switch {
		case p.acceptOp("+"):
			r, err := p.parseMultiplicative()
			if err != nil {
				return nil, err
			}
			l = expr.Add(l, r)
		case p.acceptOp("-"):
			r, err := p.parseMultiplicative()
			if err != nil {
				return nil, err
			}
			l = expr.Sub(l, r)
		default:
			return l, nil
		}
	}
}

func (p *parser) parseMultiplicative() (expr.Expr, error) {
	l, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	for {
		switch {
		case p.acceptOp("*"):
			r, err := p.parseUnary()
			if err != nil {
				return nil, err
			}
			l = expr.Mul(l, r)
		case p.acceptOp("/"):
			r, err := p.parseUnary()
			if err != nil {
				return nil, err
			}
			l = expr.Div(l, r)
		default:
			return l, nil
		}
	}
}

func (p *parser) parseUnary() (expr.Expr, error) {
	if p.acceptOp("-") {
		e, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		if c, ok := e.(*expr.Const); ok && c.V.IsNumeric() {
			if c.V.Kind() == types.KindInt {
				return expr.IntConst(-c.V.AsInt()), nil
			}
			return expr.FloatConst(-c.V.AsFloat()), nil
		}
		return expr.Sub(expr.IntConst(0), e), nil
	}
	if p.acceptOp("+") {
		return p.parseUnary()
	}
	return p.parsePrimary()
}

func (p *parser) parsePrimary() (expr.Expr, error) {
	t := p.cur()
	switch t.kind {
	case tokNumber:
		p.pos++
		if strings.ContainsAny(t.text, ".eE") {
			f, err := strconv.ParseFloat(t.text, 64)
			if err != nil {
				return nil, p.errf("bad number %q", t.text)
			}
			return expr.FloatConst(f), nil
		}
		i, err := strconv.ParseInt(t.text, 10, 64)
		if err != nil {
			return nil, p.errf("bad integer %q", t.text)
		}
		return expr.IntConst(i), nil
	case tokString:
		p.pos++
		return expr.StringConst(t.text), nil
	case tokParam:
		p.pos++
		return expr.Parameter(t.text), nil
	case tokIdent:
		p.pos++
		name := t.text
		// Qualified reference tab.col: schemas use unqualified names.
		if p.acceptOp(".") {
			col, err := p.expectIdent()
			if err != nil {
				return nil, err
			}
			name = col
		}
		return expr.Column(name), nil
	case tokKeyword:
		switch t.text {
		case "TRUE":
			p.pos++
			return expr.True, nil
		case "FALSE":
			p.pos++
			return expr.False, nil
		case "NULL":
			p.pos++
			return expr.Constant(types.Null()), nil
		case "CASE":
			return p.parseCase()
		case "NOT":
			return p.parseNot()
		}
	case tokOp:
		if t.text == "(" {
			p.pos++
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			if err := p.expectOp(")"); err != nil {
				return nil, err
			}
			return e, nil
		}
	}
	return nil, p.errf("unexpected token %q", t.text)
}

// parseCase parses CASE WHEN φ THEN e [WHEN …]* ELSE e END.
func (p *parser) parseCase() (expr.Expr, error) {
	if err := p.expectKeyword("CASE"); err != nil {
		return nil, err
	}
	type arm struct{ cond, then expr.Expr }
	var arms []arm
	for p.acceptKeyword("WHEN") {
		cond, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if err := p.expectKeyword("THEN"); err != nil {
			return nil, err
		}
		then, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		arms = append(arms, arm{cond, then})
	}
	if len(arms) == 0 {
		return nil, p.errf("CASE requires at least one WHEN arm")
	}
	if err := p.expectKeyword("ELSE"); err != nil {
		return nil, err
	}
	els, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if err := p.expectKeyword("END"); err != nil {
		return nil, err
	}
	out := els
	for i := len(arms) - 1; i >= 0; i-- {
		out = expr.IfThenElse(arms[i].cond, arms[i].then, out)
	}
	return out, nil
}
