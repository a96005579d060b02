// Package algebra defines the relational algebra fragment used by
// reenactment (Def. 3): table scans, selection σ, (generalized)
// projection Π with conditional expressions, union ∪, join ⋈, and
// constant singleton relations; plus an executor over
// package storage and the condition push-down operators (θ)↓Q and
// (θ)[R]↓Q of §6.
package algebra

import (
	"fmt"
	"strings"

	"github.com/mahif/mahif/internal/expr"
	"github.com/mahif/mahif/internal/schema"
	"github.com/mahif/mahif/internal/storage"
	"github.com/mahif/mahif/internal/types"
)

// Query is a relational algebra expression.
type Query interface {
	// String renders the query tree.
	String() string
	isQuery()
}

// Scan reads a base relation.
type Scan struct{ Rel string }

// Select filters tuples by a condition (σ_θ).
type Select struct {
	Cond expr.Expr
	In   Query
}

// NamedExpr is one output column of a projection.
type NamedExpr struct {
	Name string
	E    expr.Expr
}

// Project computes one expression per output column (Π_e1,…,en). The
// generalized projection with if-then-else expressions is how updates
// are reenacted.
type Project struct {
	Exprs []NamedExpr
	In    Query
}

// Union is bag union (∪).
type Union struct{ L, R Query }

// Join is an inner theta-join; output schema is the concatenation of
// both input schemas (column names must be distinct).
type Join struct {
	L, R Query
	Cond expr.Expr
}

// Singleton is a constant relation with an explicit schema; it
// reenacts INSERT … VALUES.
type Singleton struct {
	Sch    *schema.Schema
	Tuples []schema.Tuple
}

func (*Scan) isQuery()      {}
func (*Select) isQuery()    {}
func (*Project) isQuery()   {}
func (*Union) isQuery()     {}
func (*Join) isQuery()      {}
func (*Singleton) isQuery() {}

func (q *Scan) String() string { return q.Rel }

func (q *Select) String() string {
	return "σ[" + q.Cond.String() + "](" + q.In.String() + ")"
}

func (q *Project) String() string {
	var b strings.Builder
	b.WriteString("Π[")
	for i, ne := range q.Exprs {
		if i > 0 {
			b.WriteString(", ")
		}
		if c, ok := ne.E.(*expr.Col); ok && strings.EqualFold(c.Name, ne.Name) {
			b.WriteString(ne.Name)
			continue
		}
		fmt.Fprintf(&b, "%s→%s", ne.E, ne.Name)
	}
	b.WriteString("](")
	b.WriteString(q.In.String())
	b.WriteByte(')')
	return b.String()
}

func (q *Union) String() string { return "(" + q.L.String() + " ∪ " + q.R.String() + ")" }

func (q *Join) String() string {
	return "(" + q.L.String() + " ⋈[" + q.Cond.String() + "] " + q.R.String() + ")"
}

func (q *Singleton) String() string {
	var b strings.Builder
	b.WriteByte('{')
	for i, t := range q.Tuples {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(t.String())
	}
	b.WriteByte('}')
	return b.String()
}

// OutputSchema computes the schema of a query against db. The relation
// name of derived schemas is inherited from the left/input branch.
func OutputSchema(q Query, db *storage.Database) (*schema.Schema, error) {
	switch x := q.(type) {
	case *Scan:
		r, err := db.Relation(x.Rel)
		if err != nil {
			return nil, err
		}
		return r.Schema, nil
	case *Select:
		return OutputSchema(x.In, db)
	case *Project:
		in, err := OutputSchema(x.In, db)
		if err != nil {
			return nil, err
		}
		cols := make([]schema.Column, len(x.Exprs))
		for i, ne := range x.Exprs {
			cols[i] = schema.Col(ne.Name, ExprKind(ne.E, in))
		}
		return schema.New(in.Relation, cols...), nil
	case *Union:
		return OutputSchema(x.L, db)
	case *Join:
		ls, err := OutputSchema(x.L, db)
		if err != nil {
			return nil, err
		}
		rs, err := OutputSchema(x.R, db)
		if err != nil {
			return nil, err
		}
		cols := make([]schema.Column, 0, ls.Arity()+rs.Arity())
		cols = append(cols, ls.Columns...)
		cols = append(cols, rs.Columns...)
		return schema.New(ls.Relation, cols...), nil
	case *Singleton:
		return x.Sch, nil
	case *Aggregate:
		in, err := OutputSchema(x.In, db)
		if err != nil {
			return nil, err
		}
		cols := make([]schema.Column, 0, len(x.GroupBy)+len(x.Aggs))
		for _, ne := range x.GroupBy {
			cols = append(cols, schema.Col(ne.Name, ExprKind(ne.E, in)))
		}
		for _, a := range x.Aggs {
			cols = append(cols, schema.Col(a.Name, a.ResultKind(in)))
		}
		return schema.New(in.Relation, cols...), nil
	}
	return nil, fmt.Errorf("algebra: unknown query node %T", q)
}

// ExprKind gives a best-effort static type for a projection expression
// over the input schema (shared with the compiled executor).
func ExprKind(e expr.Expr, in *schema.Schema) types.Kind {
	switch x := e.(type) {
	case *expr.Const:
		return x.V.Kind()
	case *expr.Col:
		if i := in.ColIndex(x.Name); i >= 0 {
			return in.Columns[i].Type
		}
	case *expr.Arith:
		if x.Op == types.OpDiv {
			return types.KindFloat
		}
		lk, rk := ExprKind(x.L, in), ExprKind(x.R, in)
		if lk == types.KindFloat || rk == types.KindFloat {
			return types.KindFloat
		}
		return types.KindInt
	case *expr.Cmp, *expr.And, *expr.Or, *expr.Not, *expr.IsNull:
		return types.KindBool
	case *expr.If:
		return ExprKind(x.Then, in)
	}
	return types.KindNull
}

// Eval executes q against db and materializes the result.
func Eval(q Query, db *storage.Database) (*storage.Relation, error) {
	switch x := q.(type) {
	case *Scan:
		r, err := db.Relation(x.Rel)
		if err != nil {
			return nil, err
		}
		// INVARIANT (shared-scan aliasing): the returned relation shares
		// the live store's tuple slice and the tuples themselves. Every
		// operator — here and in the compiled executor (internal/exec) —
		// treats tuples as immutable: selections and set operations pass
		// tuples through by reference, projections build fresh rows. The
		// batch engine's shared read-only snapshots rely on this
		// invariant; mutation must go through Relation.Clone (the
		// copy-on-write boundary). See
		// TestEvalDoesNotMutateSharedTuples.
		out := &storage.Relation{Schema: r.Schema, Tuples: r.Tuples}
		return out, nil
	case *Select:
		in, err := Eval(x.In, db)
		if err != nil {
			return nil, err
		}
		out := storage.NewRelation(in.Schema)
		for _, t := range in.Tuples {
			ok, err := expr.Satisfied(x.Cond, in.Schema, t)
			if err != nil {
				return nil, fmt.Errorf("algebra: σ[%s]: %w", x.Cond, err)
			}
			if ok {
				out.Tuples = append(out.Tuples, t)
			}
		}
		return out, nil
	case *Project:
		in, err := Eval(x.In, db)
		if err != nil {
			return nil, err
		}
		outSchema, err := OutputSchema(x, db)
		if err != nil {
			return nil, err
		}
		out := storage.NewRelation(outSchema)
		out.Tuples = make([]schema.Tuple, 0, len(in.Tuples))
		for _, t := range in.Tuples {
			env := expr.TupleEnv(in.Schema, t)
			row := make(schema.Tuple, len(x.Exprs))
			for i, ne := range x.Exprs {
				v, err := expr.Eval(ne.E, env)
				if err != nil {
					return nil, fmt.Errorf("algebra: Π[%s]: %w", ne.E, err)
				}
				row[i] = v
			}
			out.Tuples = append(out.Tuples, row)
		}
		return out, nil
	case *Union:
		l, err := Eval(x.L, db)
		if err != nil {
			return nil, err
		}
		r, err := Eval(x.R, db)
		if err != nil {
			return nil, err
		}
		if l.Schema.Arity() != r.Schema.Arity() {
			return nil, fmt.Errorf("algebra: union arity mismatch %d vs %d", l.Schema.Arity(), r.Schema.Arity())
		}
		out := storage.NewRelation(l.Schema)
		out.Tuples = make([]schema.Tuple, 0, len(l.Tuples)+len(r.Tuples))
		out.Tuples = append(out.Tuples, l.Tuples...)
		out.Tuples = append(out.Tuples, r.Tuples...)
		return out, nil
	case *Join:
		l, err := Eval(x.L, db)
		if err != nil {
			return nil, err
		}
		r, err := Eval(x.R, db)
		if err != nil {
			return nil, err
		}
		outSchema, err := OutputSchema(x, db)
		if err != nil {
			return nil, err
		}
		out := storage.NewRelation(outSchema)
		for _, lt := range l.Tuples {
			for _, rt := range r.Tuples {
				joined := make(schema.Tuple, 0, len(lt)+len(rt))
				joined = append(joined, lt...)
				joined = append(joined, rt...)
				ok, err := expr.Satisfied(x.Cond, outSchema, joined)
				if err != nil {
					return nil, fmt.Errorf("algebra: ⋈[%s]: %w", x.Cond, err)
				}
				if ok {
					out.Tuples = append(out.Tuples, joined)
				}
			}
		}
		return out, nil
	case *Singleton:
		out := storage.NewRelation(x.Sch)
		out.Tuples = append(out.Tuples, x.Tuples...)
		return out, nil
	case *Aggregate:
		in, err := Eval(x.In, db)
		if err != nil {
			return nil, err
		}
		outSchema, err := OutputSchema(x, db)
		if err != nil {
			return nil, err
		}
		return evalAggregate(x, in, outSchema)
	}
	return nil, fmt.Errorf("algebra: unknown query node %T", q)
}

// SubstituteScans replaces every Scan node with repl[rel] when present.
// Reenactment uses it to wire the query of an INSERT…SELECT against the
// reenacted state of its input relations.
func SubstituteScans(q Query, repl map[string]Query) Query {
	switch x := q.(type) {
	case *Scan:
		if r, ok := repl[strings.ToLower(x.Rel)]; ok {
			return r
		}
		return q
	case *Select:
		return &Select{Cond: x.Cond, In: SubstituteScans(x.In, repl)}
	case *Project:
		return &Project{Exprs: x.Exprs, In: SubstituteScans(x.In, repl)}
	case *Union:
		return &Union{L: SubstituteScans(x.L, repl), R: SubstituteScans(x.R, repl)}
	case *Join:
		return &Join{L: SubstituteScans(x.L, repl), R: SubstituteScans(x.R, repl), Cond: x.Cond}
	case *Aggregate:
		return &Aggregate{GroupBy: x.GroupBy, Aggs: x.Aggs, In: SubstituteScans(x.In, repl)}
	case *Singleton:
		return q
	}
	return q
}

// BaseRelations returns the set of base relation names scanned by q.
func BaseRelations(q Query) map[string]bool {
	out := map[string]bool{}
	var walk func(Query)
	walk = func(q Query) {
		switch x := q.(type) {
		case *Scan:
			out[strings.ToLower(x.Rel)] = true
		case *Select:
			walk(x.In)
		case *Project:
			walk(x.In)
		case *Union:
			walk(x.L)
			walk(x.R)
		case *Join:
			walk(x.L)
			walk(x.R)
		case *Aggregate:
			walk(x.In)
		}
	}
	walk(q)
	return out
}
