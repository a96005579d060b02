package sql

import (
	"strings"
	"testing"

	"github.com/mahif/mahif/internal/algebra"
	"github.com/mahif/mahif/internal/expr"
	"github.com/mahif/mahif/internal/history"
	"github.com/mahif/mahif/internal/types"
)

func TestParseUpdate(t *testing.T) {
	st, err := ParseStatement(`UPDATE orders SET fee = 0, total = price + fee WHERE price >= 50 AND country = 'UK'`)
	if err != nil {
		t.Fatal(err)
	}
	u, ok := st.(*history.Update)
	if !ok {
		t.Fatalf("got %T", st)
	}
	if u.Rel != "orders" || len(u.Set) != 2 {
		t.Errorf("update = %s", u)
	}
	if u.Set[0].Col != "fee" || !expr.Equal(u.Set[0].E, expr.IntConst(0)) {
		t.Errorf("first set clause = %v", u.Set[0])
	}
	wantWhere := expr.AndOf(
		expr.Ge(expr.Column("price"), expr.IntConst(50)),
		expr.Eq(expr.Column("country"), expr.StringConst("UK")),
	)
	if !expr.Equal(u.Where, wantWhere) {
		t.Errorf("where = %s, want %s", u.Where, wantWhere)
	}
}

func TestParseUpdateNoWhere(t *testing.T) {
	st := MustParseStatement(`UPDATE t SET a = a + 1`)
	u := st.(*history.Update)
	if !expr.IsTriviallyTrue(u.Where) {
		t.Errorf("missing WHERE must default to true, got %s", u.Where)
	}
}

func TestParseDelete(t *testing.T) {
	st := MustParseStatement(`DELETE FROM t WHERE a < 3`)
	d := st.(*history.Delete)
	if d.Rel != "t" || !expr.Equal(d.Where, expr.Lt(expr.Column("a"), expr.IntConst(3))) {
		t.Errorf("delete = %s", d)
	}
}

func TestParseInsertValues(t *testing.T) {
	st := MustParseStatement(`INSERT INTO t VALUES (1, 'x', 2.5, true, NULL), (2, 'y', 0.5, false, 7)`)
	iv := st.(*history.InsertValues)
	if len(iv.Rows) != 2 || len(iv.Rows[0]) != 5 {
		t.Fatalf("rows = %v", iv.Rows)
	}
	row := iv.Rows[0]
	if row[0].AsInt() != 1 || row[1].AsString() != "x" || row[2].AsFloat() != 2.5 ||
		!row[3].AsBool() || !row[4].IsNull() {
		t.Errorf("row = %s", row)
	}
}

func TestParseInsertNegativeNumbers(t *testing.T) {
	st := MustParseStatement(`INSERT INTO t VALUES (-3, -2.5)`)
	iv := st.(*history.InsertValues)
	if iv.Rows[0][0].AsInt() != -3 || iv.Rows[0][1].AsFloat() != -2.5 {
		t.Errorf("row = %s", iv.Rows[0])
	}
}

func TestParseInsertFoldsConstants(t *testing.T) {
	st := MustParseStatement(`INSERT INTO t VALUES (2 + 3 * 4)`)
	iv := st.(*history.InsertValues)
	if iv.Rows[0][0].AsInt() != 14 {
		t.Errorf("folded value = %v", iv.Rows[0][0])
	}
}

func TestParseInsertSelect(t *testing.T) {
	st := MustParseStatement(`INSERT INTO archive SELECT id, price FROM orders WHERE price > 100`)
	iq := st.(*history.InsertQuery)
	if iq.Rel != "archive" {
		t.Errorf("rel = %s", iq.Rel)
	}
	p, ok := iq.Query.(*algebra.Project)
	if !ok {
		t.Fatalf("query = %T (%s)", iq.Query, iq.Query)
	}
	if len(p.Exprs) != 2 || p.Exprs[0].Name != "id" {
		t.Errorf("projection = %s", p)
	}
	if _, ok := p.In.(*algebra.Select); !ok {
		t.Errorf("expected selection below projection, got %s", p.In)
	}
}

func TestParseInsertSelectStar(t *testing.T) {
	st := MustParseStatement(`INSERT INTO archive SELECT * FROM orders WHERE price > 100`)
	iq := st.(*history.InsertQuery)
	if _, ok := iq.Query.(*algebra.Select); !ok {
		t.Errorf("SELECT * must not project, got %s", iq.Query)
	}
}

func TestParseSelectJoinUnion(t *testing.T) {
	q, err := ParseQuery(`SELECT a, c AS renamed FROM r JOIN s ON a = c WHERE b > 1 UNION SELECT a, b FROM t2`)
	if err != nil {
		t.Fatal(err)
	}
	u, ok := q.(*algebra.Union)
	if !ok {
		t.Fatalf("got %T", q)
	}
	left := u.L.(*algebra.Project)
	if left.Exprs[1].Name != "renamed" {
		t.Errorf("AS alias lost: %v", left.Exprs[1])
	}
	sel := left.In.(*algebra.Select)
	if _, ok := sel.In.(*algebra.Join); !ok {
		t.Errorf("expected join, got %s", sel.In)
	}
}

func TestParseStatements(t *testing.T) {
	h, err := ParseStatements(`
		UPDATE t SET a = 1 WHERE b = 2;
		-- a comment
		DELETE FROM t WHERE a = 1;
		INSERT INTO t VALUES (1, 2);
	`)
	if err != nil {
		t.Fatal(err)
	}
	if len(h) != 3 {
		t.Fatalf("parsed %d statements", len(h))
	}
}

func TestParseConditionPrecedence(t *testing.T) {
	// a = 1 OR b = 2 AND c = 3  ≡  a = 1 OR (b = 2 AND c = 3)
	e := mustCond(t, `a = 1 OR b = 2 AND c = 3`)
	or, ok := e.(*expr.Or)
	if !ok {
		t.Fatalf("top = %T", e)
	}
	if _, ok := or.R.(*expr.And); !ok {
		t.Errorf("AND must bind tighter than OR: %s", e)
	}
	// 1 + 2 * 3 = 7
	e = mustCond(t, `x = 1 + 2 * 3`)
	cmp := e.(*expr.Cmp)
	if !expr.Equal(expr.Simplify(cmp.R), expr.IntConst(7)) {
		t.Errorf("arith precedence: %s", cmp.R)
	}
}

func TestParseConditionConstructs(t *testing.T) {
	cases := []struct {
		src  string
		want expr.Expr
	}{
		{`a BETWEEN 1 AND 5`, expr.AndOf(
			expr.Ge(expr.Column("a"), expr.IntConst(1)),
			expr.Le(expr.Column("a"), expr.IntConst(5)))},
		{`a IN (1, 2)`, expr.OrOf(
			expr.Eq(expr.Column("a"), expr.IntConst(1)),
			expr.Eq(expr.Column("a"), expr.IntConst(2)))},
		{`a IS NULL`, &expr.IsNull{E: expr.Column("a")}},
		{`a IS NOT NULL`, &expr.Not{E: &expr.IsNull{E: expr.Column("a")}}},
		{`NOT a = 1`, &expr.Not{E: expr.Eq(expr.Column("a"), expr.IntConst(1))}},
		{`a <> 1`, expr.Ne(expr.Column("a"), expr.IntConst(1))},
		{`a != 1`, expr.Ne(expr.Column("a"), expr.IntConst(1))},
		{`tab.col = 1`, expr.Eq(expr.Column("col"), expr.IntConst(1))},
	}
	for _, c := range cases {
		got, err := ParseCondition(c.src)
		if err != nil {
			t.Errorf("%s: %v", c.src, err)
			continue
		}
		if !expr.Equal(got, c.want) {
			t.Errorf("ParseCondition(%q) = %s, want %s", c.src, got, c.want)
		}
	}
}

func TestParseCase(t *testing.T) {
	e := mustCond(t, `x = CASE WHEN a >= 50 THEN 0 WHEN a >= 20 THEN 1 ELSE 2 END`)
	cmp := e.(*expr.Cmp)
	outer, ok := cmp.R.(*expr.If)
	if !ok {
		t.Fatalf("got %T", cmp.R)
	}
	if _, ok := outer.Else.(*expr.If); !ok {
		t.Errorf("nested WHEN arms must chain into else: %s", outer)
	}
}

func TestParseStringEscapes(t *testing.T) {
	e := mustCond(t, `s = 'it''s'`)
	cmp := e.(*expr.Cmp)
	c := cmp.R.(*expr.Const)
	if c.V.AsString() != "it's" {
		t.Errorf("escaped string = %q", c.V.AsString())
	}
}

func TestParseQuotedIdentifier(t *testing.T) {
	st := MustParseStatement(`UPDATE "my table" SET "the col" = 1`)
	u := st.(*history.Update)
	if u.Rel != "my table" || u.Set[0].Col != "the col" {
		t.Errorf("quoted identifiers: %s / %s", u.Rel, u.Set[0].Col)
	}
}

func TestParseErrors(t *testing.T) {
	cases := []string{
		``,
		`SELECT a FROM t`,                    // bare SELECT is not a statement
		`UPDATE t SET`,                       // missing assignment
		`UPDATE t SET a = WHERE b = 1`,       // missing expression
		`DELETE t WHERE a = 1`,               // missing FROM
		`INSERT INTO t VALUES (a)`,           // non-constant value
		`INSERT INTO t`,                      // missing VALUES/SELECT
		`UPDATE t SET a = 1 WHERE a = 'open`, // unterminated string
		`UPDATE t SET a = 1 extra`,           // trailing garbage
		`UPDATE t SET a = CASE WHEN 1=1 THEN 2 END`, // CASE without ELSE
		`UPDATE t SET a = 1 WHERE a ~ 2`,            // unknown operator
	}
	for _, src := range cases {
		if _, err := ParseStatement(src); err == nil {
			t.Errorf("ParseStatement(%q): expected error", src)
		}
	}
}

func TestParseErrorMentionsOffset(t *testing.T) {
	_, err := ParseStatement(`UPDATE t SET a = WHERE`)
	if err == nil || !strings.Contains(err.Error(), "offset") {
		t.Errorf("error should carry an offset: %v", err)
	}
}

func TestRoundTripThroughString(t *testing.T) {
	// Statement → String() → parse again → same structure.
	srcs := []string{
		`UPDATE orders SET fee = 0 WHERE price >= 50`,
		`DELETE FROM orders WHERE price < 10 AND country = 'US'`,
		`INSERT INTO t VALUES (1, 'a')`,
	}
	for _, src := range srcs {
		st1 := MustParseStatement(src)
		st2, err := ParseStatement(st1.String())
		if err != nil {
			t.Errorf("re-parsing %q: %v", st1.String(), err)
			continue
		}
		if st1.String() != st2.String() {
			t.Errorf("round trip changed statement:\n  %s\n  %s", st1, st2)
		}
	}
}

func TestLexerNumberForms(t *testing.T) {
	e := mustCond(t, `x = .5`)
	c := e.(*expr.Cmp).R.(*expr.Const)
	if c.V.Kind() != types.KindFloat || c.V.AsFloat() != 0.5 {
		t.Errorf(".5 parsed as %v", c.V)
	}
}

// mustCond parses a standalone condition or fails the test.
func mustCond(t *testing.T, src string) expr.Expr {
	t.Helper()
	e, err := ParseCondition(src)
	if err != nil {
		t.Fatal(err)
	}
	return e
}
