package algebra

import (
	"github.com/mahif/mahif/internal/expr"
	"github.com/mahif/mahif/internal/types"
)

// Params returns the set of template parameter names ($name slots, see
// expr.Param) appearing anywhere in the query's conditions and
// projection expressions.
func Params(q Query) map[string]bool {
	out := map[string]bool{}
	collectParams(q, out)
	return out
}

func collectParams(q Query, out map[string]bool) {
	addExpr := func(e expr.Expr) {
		for name := range expr.Params(e) {
			out[name] = true
		}
	}
	switch x := q.(type) {
	case *Select:
		addExpr(x.Cond)
		collectParams(x.In, out)
	case *Project:
		for _, ne := range x.Exprs {
			addExpr(ne.E)
		}
		collectParams(x.In, out)
	case *Union:
		collectParams(x.L, out)
		collectParams(x.R, out)
	case *Join:
		addExpr(x.Cond)
		collectParams(x.L, out)
		collectParams(x.R, out)
	case *Aggregate:
		for _, ne := range x.GroupBy {
			addExpr(ne.E)
		}
		for _, a := range x.Aggs {
			if a.Arg != nil {
				addExpr(a.Arg)
			}
		}
		collectParams(x.In, out)
	}
}

// SubstParams returns q with every template parameter replaced by its
// bound constant (see expr.SubstParams). Subtrees without parameters
// are shared, not copied, so substituting into a large reenactment
// query skeleton allocates only along param-bearing paths.
func SubstParams(q Query, b map[string]types.Value) Query {
	if len(b) == 0 {
		return q
	}
	switch x := q.(type) {
	case *Select:
		cond := expr.SubstParams(x.Cond, b)
		in := SubstParams(x.In, b)
		if cond == x.Cond && in == x.In {
			return q
		}
		return &Select{Cond: cond, In: in}
	case *Project:
		in := SubstParams(x.In, b)
		var exprs []NamedExpr
		for i, ne := range x.Exprs {
			e := expr.SubstParams(ne.E, b)
			if e != ne.E && exprs == nil {
				exprs = append([]NamedExpr(nil), x.Exprs...)
			}
			if exprs != nil {
				exprs[i] = NamedExpr{Name: ne.Name, E: e}
			}
		}
		if exprs == nil {
			if in == x.In {
				return q
			}
			exprs = x.Exprs
		}
		return &Project{Exprs: exprs, In: in}
	case *Union:
		l, r := SubstParams(x.L, b), SubstParams(x.R, b)
		if l == x.L && r == x.R {
			return q
		}
		return &Union{L: l, R: r}
	case *Join:
		cond := expr.SubstParams(x.Cond, b)
		l, r := SubstParams(x.L, b), SubstParams(x.R, b)
		if cond == x.Cond && l == x.L && r == x.R {
			return q
		}
		return &Join{L: l, R: r, Cond: cond}
	case *Aggregate:
		in := SubstParams(x.In, b)
		var groups []NamedExpr
		for i, ne := range x.GroupBy {
			e := expr.SubstParams(ne.E, b)
			if e != ne.E && groups == nil {
				groups = append([]NamedExpr(nil), x.GroupBy...)
			}
			if groups != nil {
				groups[i] = NamedExpr{Name: ne.Name, E: e}
			}
		}
		var aggs []AggExpr
		for i, a := range x.Aggs {
			if a.Arg == nil {
				continue
			}
			e := expr.SubstParams(a.Arg, b)
			if e != a.Arg && aggs == nil {
				aggs = append([]AggExpr(nil), x.Aggs...)
			}
			if aggs != nil {
				aggs[i] = AggExpr{Name: a.Name, Fn: a.Fn, Arg: e}
			}
		}
		if groups == nil && aggs == nil && in == x.In {
			return q
		}
		if groups == nil {
			groups = x.GroupBy
		}
		if aggs == nil {
			aggs = x.Aggs
		}
		return &Aggregate{GroupBy: groups, Aggs: aggs, In: in}
	}
	return q
}
