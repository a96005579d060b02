package expr

import (
	"strings"

	"github.com/mahif/mahif/internal/types"
)

// SubstCols returns e with every attribute reference A replaced by
// repl[A] (case-insensitive). Attributes without a mapping are kept.
// This is the substitution e[A⃗ ← e⃗] used when pushing data-slicing
// conditions through updates (§6) and when binding statement
// expressions to a symbolic tuple (§8.2).
func SubstCols(e Expr, repl map[string]Expr) Expr {
	if len(repl) == 0 {
		return e
	}
	return rewrite(e, func(n Expr) (Expr, bool) {
		c, ok := n.(*Col)
		if !ok {
			return nil, false
		}
		r, ok := repl[strings.ToLower(c.Name)]
		return r, ok
	})
}

// SubstParams returns e with every template parameter $p replaced by
// the constant repl[p]. Parameters without a binding are kept — callers
// that require a closed expression should check Params first.
func SubstParams(e Expr, repl map[string]types.Value) Expr {
	if len(repl) == 0 {
		return e
	}
	return rewrite(e, func(n Expr) (Expr, bool) {
		p, ok := n.(*Param)
		if !ok {
			return nil, false
		}
		v, ok := repl[p.Name]
		if !ok {
			return nil, false
		}
		return Constant(v), true
	})
}

// RenameCols returns e with attribute names mapped through ren
// (case-insensitive); used for θ[Sch(Q1) ← Sch(Q2)] when pushing
// conditions through unions.
func RenameCols(e Expr, ren map[string]string) Expr {
	if len(ren) == 0 {
		return e
	}
	return rewrite(e, func(n Expr) (Expr, bool) {
		c, ok := n.(*Col)
		if !ok {
			return nil, false
		}
		to, ok := ren[strings.ToLower(c.Name)]
		if !ok {
			return nil, false
		}
		return Column(to), true
	})
}

// rewrite applies f bottom-up-ish: if f replaces a node the replacement
// is taken as-is (not re-visited); otherwise children are rewritten.
func rewrite(e Expr, f func(Expr) (Expr, bool)) Expr {
	if e == nil {
		return nil
	}
	if r, ok := f(e); ok {
		return r
	}
	switch x := e.(type) {
	case *Const, *Col, *Var, *Param:
		return e
	case *Arith:
		l, r := rewrite(x.L, f), rewrite(x.R, f)
		if l == x.L && r == x.R {
			return e
		}
		return &Arith{Op: x.Op, L: l, R: r}
	case *Cmp:
		l, r := rewrite(x.L, f), rewrite(x.R, f)
		if l == x.L && r == x.R {
			return e
		}
		return &Cmp{Op: x.Op, L: l, R: r}
	case *And:
		l, r := rewrite(x.L, f), rewrite(x.R, f)
		if l == x.L && r == x.R {
			return e
		}
		return &And{L: l, R: r}
	case *Or:
		l, r := rewrite(x.L, f), rewrite(x.R, f)
		if l == x.L && r == x.R {
			return e
		}
		return &Or{L: l, R: r}
	case *Not:
		n := rewrite(x.E, f)
		if n == x.E {
			return e
		}
		return &Not{E: n}
	case *IsNull:
		n := rewrite(x.E, f)
		if n == x.E {
			return e
		}
		return &IsNull{E: n}
	case *If:
		c, t, el := rewrite(x.Cond, f), rewrite(x.Then, f), rewrite(x.Else, f)
		if c == x.Cond && t == x.Then && el == x.Else {
			return e
		}
		return &If{Cond: c, Then: t, Else: el}
	}
	return e
}
