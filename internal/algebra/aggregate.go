package algebra

import (
	"fmt"
	"strings"

	"github.com/mahif/mahif/internal/expr"
	"github.com/mahif/mahif/internal/schema"
	"github.com/mahif/mahif/internal/storage"
	"github.com/mahif/mahif/internal/types"
)

// AggFunc enumerates the aggregate functions of γ.
type AggFunc uint8

const (
	AggCount AggFunc = iota // COUNT(*) when Arg is nil, else COUNT(e) over non-NULL e
	AggSum
	AggAvg
	AggMin
	AggMax
)

func (f AggFunc) String() string {
	switch f {
	case AggCount:
		return "COUNT"
	case AggSum:
		return "SUM"
	case AggAvg:
		return "AVG"
	case AggMin:
		return "MIN"
	case AggMax:
		return "MAX"
	}
	return fmt.Sprintf("AggFunc(%d)", uint8(f))
}

// AggExpr is one aggregate output column. A nil Arg is COUNT(*).
type AggExpr struct {
	Name string
	Fn   AggFunc
	Arg  expr.Expr
}

// Aggregate is grouped aggregation (γ_{G; F}). Output columns are the
// grouping expressions followed by the aggregates, and groups are
// emitted in first-appearance order of the input — deterministic
// because every executor produces interpreter-exact input order.
// With no GroupBy the node is a global aggregate: exactly one output
// row, even over empty input (COUNT = 0, other aggregates NULL).
type Aggregate struct {
	GroupBy []NamedExpr
	Aggs    []AggExpr
	In      Query
}

func (*Aggregate) isQuery() {}

func (q *Aggregate) String() string {
	var b strings.Builder
	b.WriteString("γ[")
	for i, ne := range q.GroupBy {
		if i > 0 {
			b.WriteString(", ")
		}
		if c, ok := ne.E.(*expr.Col); ok && strings.EqualFold(c.Name, ne.Name) {
			b.WriteString(ne.Name)
			continue
		}
		fmt.Fprintf(&b, "%s→%s", ne.E, ne.Name)
	}
	if len(q.GroupBy) > 0 {
		b.WriteString("; ")
	}
	for i, a := range q.Aggs {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "%s→%s", a.CallString(), a.Name)
	}
	b.WriteString("](")
	b.WriteString(q.In.String())
	b.WriteByte(')')
	return b.String()
}

// CallString renders the aggregate call itself, e.g. "SUM(price)".
func (a AggExpr) CallString() string {
	if a.Arg == nil {
		return a.Fn.String() + "(*)"
	}
	return a.Fn.String() + "(" + a.Arg.String() + ")"
}

// ResultKind gives the static output type of the aggregate over the
// input schema. COUNT is always integer and AVG always float; SUM,
// MIN, and MAX inherit the argument's kind. Like ExprKind this is a
// best-effort hint — the typed executor lanes fall back per batch when
// runtime values disagree.
func (a AggExpr) ResultKind(in *schema.Schema) types.Kind {
	switch a.Fn {
	case AggCount:
		return types.KindInt
	case AggAvg:
		return types.KindFloat
	}
	if a.Arg == nil {
		return types.KindNull
	}
	return ExprKind(a.Arg, in)
}

// AggAcc accumulates one aggregate over its argument values in input
// order. It is the single definition of aggregate semantics, shared by
// the interpreter and the vectorized executor so the two cannot drift:
//
//   - COUNT(*) counts rows (AddRow); COUNT(e) counts non-NULL e.
//   - SUM and AVG skip NULLs, reject non-numeric values, and fold with
//     types.Arith(OpAdd, …) in input order — integer sums stay integer
//     (with wraparound), any float promotes, and a non-finite running
//     float sum is an error at the step that produces it.
//   - AVG divides the final sum by the non-NULL count via
//     types.Arith(OpDiv, …), so the result is always float.
//   - MIN/MAX use Value.Compare, keep the first-seen value on ties, and
//     error on incomparable kinds.
//   - Over zero accumulated values COUNT yields 0 and the rest NULL.
type AggAcc struct {
	fn    AggFunc
	count int64
	acc   types.Value // running SUM, or current MIN/MAX extremum
}

// NewAggAcc returns an empty accumulator for fn.
func NewAggAcc(fn AggFunc) AggAcc { return AggAcc{fn: fn} }

// AddRow accumulates one input row for COUNT(*); it is a no-op for
// every other function (their Add is driven by the argument value).
func (a *AggAcc) AddRow() {
	if a.fn == AggCount {
		a.count++
	}
}

// Add accumulates one argument value. Not used for COUNT(*).
func (a *AggAcc) Add(v types.Value) error {
	if v.IsNull() {
		return nil
	}
	switch a.fn {
	case AggCount:
		a.count++
		return nil
	case AggSum, AggAvg:
		if !v.IsNumeric() {
			return fmt.Errorf("algebra: %s over %s value", a.fn, v.Kind())
		}
		a.count++
		if a.count == 1 {
			a.acc = v
			return nil
		}
		s, err := types.Arith(types.OpAdd, a.acc, v)
		if err != nil {
			return fmt.Errorf("algebra: %s: %w", a.fn, err)
		}
		a.acc = s
		return nil
	case AggMin, AggMax:
		if a.count == 0 {
			a.count = 1
			a.acc = v
			return nil
		}
		c, err := v.Compare(a.acc)
		if err != nil {
			return fmt.Errorf("algebra: %s: %w", a.fn, err)
		}
		if (a.fn == AggMin && c < 0) || (a.fn == AggMax && c > 0) {
			a.acc = v
		}
		return nil
	}
	return fmt.Errorf("algebra: unknown aggregate %s", a.fn)
}

// AddInt accumulates an int64 from a typed lane; semantically identical
// to Add(types.Int(i)) but without constructing the boxed value on the
// common monomorphic paths.
func (a *AggAcc) AddInt(i int64) error {
	switch a.fn {
	case AggCount:
		a.count++
		return nil
	case AggSum, AggAvg:
		if a.count == 0 {
			a.count = 1
			a.acc = types.Int(i)
			return nil
		}
		if a.acc.Kind() == types.KindInt {
			a.count++
			a.acc = types.Int(a.acc.AsInt() + i) // wraparound, same as Arith int+int
			return nil
		}
		// Promoted to float: fall through to the boxed path (which
		// counts this value itself).
	case AggMin, AggMax:
		if a.count == 0 {
			a.count = 1
			a.acc = types.Int(i)
			return nil
		}
		if a.acc.Kind() == types.KindInt {
			cur := a.acc.AsInt()
			if (a.fn == AggMin && i < cur) || (a.fn == AggMax && i > cur) {
				a.acc = types.Int(i)
			}
			return nil
		}
	}
	return a.Add(types.Int(i))
}

// AddFloat accumulates a float64 from a typed lane; semantically
// identical to Add(types.Float(f)).
func (a *AggAcc) AddFloat(f float64) error { return a.Add(types.Float(f)) }

// Result finalizes the accumulator.
func (a *AggAcc) Result() (types.Value, error) {
	switch a.fn {
	case AggCount:
		return types.Int(a.count), nil
	case AggSum, AggMin, AggMax:
		if a.count == 0 {
			return types.Null(), nil
		}
		return a.acc, nil
	case AggAvg:
		if a.count == 0 {
			return types.Null(), nil
		}
		v, err := types.Arith(types.OpDiv, a.acc, types.Int(a.count))
		if err != nil {
			return types.Null(), fmt.Errorf("algebra: AVG: %w", err)
		}
		return v, nil
	}
	return types.Null(), fmt.Errorf("algebra: unknown aggregate %s", a.fn)
}

// GroupIndex assigns dense group ordinals to key tuples in
// first-appearance order. Identity is Tuple.Hash + Tuple.Equal (NULL
// keys form one group, and cross-kind numeric keys like 1 and 1.0
// collide) — every executor must group through this index so the
// equivalence relation cannot diverge.
type GroupIndex struct {
	buckets map[uint64][]int
	keys    []schema.Tuple
}

// NewGroupIndex returns an empty index.
func NewGroupIndex() *GroupIndex {
	return &GroupIndex{buckets: make(map[uint64][]int)}
}

// Lookup finds key's group ordinal, or -1. The hash must be key.Hash()
// (callers on the vectorized path compute it column-wise).
func (g *GroupIndex) Lookup(h uint64, key schema.Tuple) int {
	for _, i := range g.buckets[h] {
		if g.keys[i].Equal(key) {
			return i
		}
	}
	return -1
}

// Add inserts key (which must not already be present) and returns its
// new ordinal. The key tuple is retained; callers pass an owned tuple.
func (g *GroupIndex) Add(h uint64, key schema.Tuple) int {
	i := len(g.keys)
	g.keys = append(g.keys, key)
	g.buckets[h] = append(g.buckets[h], i)
	return i
}

// Len returns the number of distinct groups seen.
func (g *GroupIndex) Len() int { return len(g.keys) }

// Key returns the representative key tuple of group i (the first-seen
// values, which matters when cross-kind numeric keys collide).
func (g *GroupIndex) Key(i int) schema.Tuple { return g.keys[i] }

// evalAggregate executes the γ node over a materialized input.
func evalAggregate(x *Aggregate, in *storage.Relation, outSchema *schema.Schema) (*storage.Relation, error) {
	groups := NewGroupIndex()
	var accs [][]AggAcc
	newAccs := func() []AggAcc {
		row := make([]AggAcc, len(x.Aggs))
		for j, a := range x.Aggs {
			row[j] = NewAggAcc(a.Fn)
		}
		return row
	}
	global := len(x.GroupBy) == 0
	if global {
		accs = append(accs, newAccs())
	}
	for _, t := range in.Tuples {
		env := expr.TupleEnv(in.Schema, t)
		gi := 0
		if !global {
			key := make(schema.Tuple, len(x.GroupBy))
			for i, ne := range x.GroupBy {
				v, err := expr.Eval(ne.E, env)
				if err != nil {
					return nil, fmt.Errorf("algebra: γ[%s]: %w", ne.E, err)
				}
				key[i] = v
			}
			h := key.Hash()
			gi = groups.Lookup(h, key)
			if gi < 0 {
				gi = groups.Add(h, key)
				accs = append(accs, newAccs())
			}
		}
		for j, a := range x.Aggs {
			if a.Arg == nil {
				accs[gi][j].AddRow()
				continue
			}
			v, err := expr.Eval(a.Arg, env)
			if err != nil {
				return nil, fmt.Errorf("algebra: γ[%s]: %w", a.CallString(), err)
			}
			if err := accs[gi][j].Add(v); err != nil {
				return nil, err
			}
		}
	}
	out := storage.NewRelation(outSchema)
	out.Tuples = make([]schema.Tuple, 0, len(accs))
	for gi := range accs {
		row := make(schema.Tuple, 0, len(x.GroupBy)+len(x.Aggs))
		if !global {
			row = append(row, groups.Key(gi)...)
		}
		for j := range x.Aggs {
			v, err := accs[gi][j].Result()
			if err != nil {
				return nil, err
			}
			row = append(row, v)
		}
		out.Tuples = append(out.Tuples, row)
	}
	return out, nil
}
