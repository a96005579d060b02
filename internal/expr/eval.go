package expr

import (
	"fmt"
	"strings"

	"github.com/mahif/mahif/internal/schema"
	"github.com/mahif/mahif/internal/types"
)

// Env supplies bindings for attribute references and symbolic variables
// during evaluation. Either part may be absent.
type Env struct {
	Schema *schema.Schema
	Tuple  schema.Tuple
	// Vars binds symbolic variable names to concrete values; it is how
	// an assignment λ (Def. 5) is applied to a symbolic expression.
	Vars map[string]types.Value
}

// TupleEnv builds an environment binding attribute references against
// one tuple of the given schema.
func TupleEnv(s *schema.Schema, t schema.Tuple) *Env {
	return &Env{Schema: s, Tuple: t}
}

func (env *Env) col(name string) (types.Value, error) {
	if env.Schema == nil {
		return types.Null(), fmt.Errorf("expr: unbound attribute %q (no tuple in scope)", name)
	}
	idx := env.Schema.ColIndex(name)
	if idx < 0 {
		return types.Null(), fmt.Errorf("expr: attribute %q not in schema %s", name, env.Schema)
	}
	if idx >= len(env.Tuple) {
		return types.Null(), fmt.Errorf("expr: tuple arity %d below attribute index %d", len(env.Tuple), idx)
	}
	return env.Tuple[idx], nil
}

// Eval evaluates e under env using SQL three-valued logic: comparisons
// and boolean connectives involving NULL follow the SQL truth tables
// and arithmetic over NULL yields NULL.
func Eval(e Expr, env *Env) (types.Value, error) {
	switch x := e.(type) {
	case *Const:
		return x.V, nil
	case *Col:
		return env.col(x.Name)
	case *Var:
		if env.Vars != nil {
			if v, ok := env.Vars[x.Name]; ok {
				return v, nil
			}
		}
		return types.Null(), fmt.Errorf("expr: unbound variable %q", x.Name)
	case *Arith:
		l, err := Eval(x.L, env)
		if err != nil {
			return types.Null(), err
		}
		r, err := Eval(x.R, env)
		if err != nil {
			return types.Null(), err
		}
		return types.Arith(x.Op, l, r)
	case *Cmp:
		l, err := Eval(x.L, env)
		if err != nil {
			return types.Null(), err
		}
		r, err := Eval(x.R, env)
		if err != nil {
			return types.Null(), err
		}
		return EvalCmp(x.Op, l, r)
	case *And:
		return evalAndOr(x.L, x.R, env, true)
	case *Or:
		return evalAndOr(x.L, x.R, env, false)
	case *Not:
		v, err := Eval(x.E, env)
		if err != nil {
			return types.Null(), err
		}
		if v.IsNull() {
			return types.Null(), nil
		}
		if v.Kind() != types.KindBool {
			return types.Null(), fmt.Errorf("expr: NOT applied to %s", v.Kind())
		}
		return types.Bool(!v.AsBool()), nil
	case *IsNull:
		v, err := Eval(x.E, env)
		if err != nil {
			return types.Null(), err
		}
		return types.Bool(v.IsNull()), nil
	case *If:
		c, err := Eval(x.Cond, env)
		if err != nil {
			return types.Null(), err
		}
		if c.IsTrue() {
			return Eval(x.Then, env)
		}
		return Eval(x.Else, env)
	}
	return types.Null(), fmt.Errorf("expr: cannot evaluate %T", e)
}

// EvalCmp applies a comparison operator to two values under SQL
// three-valued semantics (NULL operands yield NULL). It is exported so
// the compiled executor (internal/exec) shares the interpreter's
// comparison semantics exactly.
func EvalCmp(op CmpOp, l, r types.Value) (types.Value, error) {
	if l.IsNull() || r.IsNull() {
		return types.Null(), nil
	}
	switch op {
	case CmpEq:
		if bothComparable(l, r) {
			c, err := l.Compare(r)
			if err != nil {
				return types.Null(), err
			}
			return types.Bool(c == 0), nil
		}
		return types.Bool(l.Equal(r)), nil
	case CmpNe:
		v, err := EvalCmp(CmpEq, l, r)
		if err != nil || v.IsNull() {
			return v, err
		}
		return types.Bool(!v.AsBool()), nil
	}
	c, err := l.Compare(r)
	if err != nil {
		return types.Null(), err
	}
	switch op {
	case CmpLt:
		return types.Bool(c < 0), nil
	case CmpLe:
		return types.Bool(c <= 0), nil
	case CmpGt:
		return types.Bool(c > 0), nil
	case CmpGe:
		return types.Bool(c >= 0), nil
	}
	return types.Null(), fmt.Errorf("expr: unknown comparison")
}

func bothComparable(l, r types.Value) bool {
	if l.IsNumeric() && r.IsNumeric() {
		return true
	}
	return l.Kind() == r.Kind()
}

// evalAndOr implements SQL three-valued AND (isAnd) / OR semantics.
func evalAndOr(le, re Expr, env *Env, isAnd bool) (types.Value, error) {
	l, err := Eval(le, env)
	if err != nil {
		return types.Null(), err
	}
	// Short circuit on the dominating value.
	if !l.IsNull() {
		if l.Kind() != types.KindBool {
			return types.Null(), fmt.Errorf("expr: boolean connective applied to %s", l.Kind())
		}
		if isAnd && !l.AsBool() {
			return types.False, nil
		}
		if !isAnd && l.AsBool() {
			return types.True, nil
		}
	}
	r, err := Eval(re, env)
	if err != nil {
		return types.Null(), err
	}
	if !r.IsNull() && r.Kind() != types.KindBool {
		return types.Null(), fmt.Errorf("expr: boolean connective applied to %s", r.Kind())
	}
	switch {
	case l.IsNull() && r.IsNull():
		return types.Null(), nil
	case l.IsNull():
		if isAnd {
			if !r.AsBool() {
				return types.False, nil
			}
			return types.Null(), nil
		}
		if r.AsBool() {
			return types.True, nil
		}
		return types.Null(), nil
	case r.IsNull():
		if isAnd {
			// l must be true here (false short-circuited above).
			return types.Null(), nil
		}
		return types.Null(), nil
	}
	if isAnd {
		return types.Bool(l.AsBool() && r.AsBool()), nil
	}
	return types.Bool(l.AsBool() || r.AsBool()), nil
}

// Satisfied evaluates a condition over a tuple and reports whether it
// holds; NULL results count as not satisfied (SQL WHERE semantics).
func Satisfied(cond Expr, s *schema.Schema, t schema.Tuple) (bool, error) {
	v, err := Eval(cond, TupleEnv(s, t))
	if err != nil {
		return false, err
	}
	return v.IsTrue(), nil
}

// Validate checks that every attribute reference in e resolves in s,
// returning a descriptive error otherwise. It is used to reject
// malformed statements before execution.
func Validate(e Expr, s *schema.Schema) error {
	var bad []string
	Walk(e, func(n Expr) {
		if c, ok := n.(*Col); ok {
			if s.ColIndex(c.Name) < 0 {
				bad = append(bad, c.Name)
			}
		}
	})
	if len(bad) > 0 {
		return fmt.Errorf("expr: unknown attribute(s) %s in schema %s", strings.Join(bad, ", "), s)
	}
	return nil
}
