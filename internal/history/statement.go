// Package history implements the update statement classes of the paper
// (§2, Eq. 1–4) — updates U_{Set,θ}, deletes D_θ, inserts of constant
// tuples I_t, and inserts with query I_Q — together with transactional
// histories, the hypothetical modifications of §3, and the no-op
// padding rewrite of §6 that reduces statement insertion/deletion to
// same-type replacement.
package history

import (
	"fmt"
	"strings"

	"github.com/mahif/mahif/internal/algebra"
	"github.com/mahif/mahif/internal/expr"
	"github.com/mahif/mahif/internal/schema"
	"github.com/mahif/mahif/internal/storage"
)

// Statement is one element of a transactional history. Statements are
// storage.Mutators, so a VersionedDatabase can log and replay them.
type Statement interface {
	storage.Mutator
	// Table returns the relation the statement modifies.
	Table() string
	// TupleIndependent reports the property of Def. 1: the statement
	// processes each input tuple in isolation. Everything but inserts
	// with query is tuple independent (Lemma 1).
	TupleIndependent() bool
	// IsNoOp reports whether the statement syntactically cannot change
	// any database (condition false / empty insert).
	IsNoOp() bool
	isStatement()
}

// SetClause assigns one attribute; attributes without a clause keep
// their value (the identity convention of §2).
type SetClause struct {
	Col string
	E   expr.Expr
}

// Update is U_{Set,θ}(R): tuples satisfying Where are rewritten by Set,
// all others pass through (Eq. 1). Updates are used through pointers
// (the memo embeds a lock).
type Update struct {
	Rel   string
	Set   []SetClause
	Where expr.Expr

	memo planMemo // apply-plan cache, see apply.go
}

// Delete is D_θ(R): removes the tuples satisfying Where (Eq. 2).
// Deletes are used through pointers (the memo embeds a lock).
type Delete struct {
	Rel   string
	Where expr.Expr

	memo planMemo
}

// InsertValues is I_t(R) generalized to a batch of constant tuples
// (Eq. 3).
type InsertValues struct {
	Rel  string
	Rows []schema.Tuple
}

// InsertQuery is I_Q(R): appends the result of Query evaluated over the
// current database state (Eq. 4). It is the one statement class that is
// not tuple independent.
type InsertQuery struct {
	Rel   string
	Query algebra.Query
}

func (*Update) isStatement()       {}
func (*Delete) isStatement()       {}
func (*InsertValues) isStatement() {}
func (*InsertQuery) isStatement()  {}

// Table implementations.
func (u *Update) Table() string       { return u.Rel }
func (d *Delete) Table() string       { return d.Rel }
func (i *InsertValues) Table() string { return i.Rel }
func (i *InsertQuery) Table() string  { return i.Rel }

// TupleIndependent implementations (Lemma 1).
func (u *Update) TupleIndependent() bool       { return true }
func (d *Delete) TupleIndependent() bool       { return true }
func (i *InsertValues) TupleIndependent() bool { return true }
func (i *InsertQuery) TupleIndependent() bool  { return false }

// IsNoOp implementations.
func (u *Update) IsNoOp() bool       { return expr.IsTriviallyFalse(u.Where) || len(u.Set) == 0 }
func (d *Delete) IsNoOp() bool       { return expr.IsTriviallyFalse(d.Where) }
func (i *InsertValues) IsNoOp() bool { return len(i.Rows) == 0 }
func (i *InsertQuery) IsNoOp() bool  { return false }

func (u *Update) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "UPDATE %s SET ", u.Rel)
	for i, sc := range u.Set {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "%s = %s", sc.Col, sc.E)
	}
	fmt.Fprintf(&b, " WHERE %s", u.Where)
	return b.String()
}

func (d *Delete) String() string {
	return fmt.Sprintf("DELETE FROM %s WHERE %s", d.Rel, d.Where)
}

func (i *InsertValues) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "INSERT INTO %s VALUES ", i.Rel)
	for j, t := range i.Rows {
		if j > 0 {
			b.WriteString(", ")
		}
		b.WriteString(t.String())
	}
	return b.String()
}

func (i *InsertQuery) String() string {
	return fmt.Sprintf("INSERT INTO %s (%s)", i.Rel, i.Query)
}

// setVector expands the sparse Set clauses into one expression per
// column of s, defaulting to the identity (§2's notational shortcut).
func (u *Update) setVector(s *schema.Schema) ([]expr.Expr, error) {
	out := make([]expr.Expr, s.Arity())
	for i, c := range s.Columns {
		out[i] = expr.Column(c.Name)
	}
	for _, sc := range u.Set {
		idx := s.ColIndex(sc.Col)
		if idx < 0 {
			return nil, fmt.Errorf("history: SET column %q not in %s", sc.Col, s)
		}
		out[idx] = sc.E
	}
	return out, nil
}

// SetVector exposes the dense per-column update expressions for
// reenactment and symbolic execution.
func (u *Update) SetVector(s *schema.Schema) ([]expr.Expr, error) { return u.setVector(s) }

// Apply implements Eq. 1. The condition must evaluate to true for a
// tuple to be rewritten; NULL counts as not satisfied. Application runs
// the scan plan of apply.go: the batch kernels evaluate θ and the SET
// vector over every row, every value is staged, and the satisfied rows
// are rewritten in place — or replaced by fresh rows while the relation
// shares its rows with a published snapshot
// (storage.Relation.PrepareRewrite).
func (u *Update) Apply(db *storage.Database) error { return u.apply(db, nil) }

// applyNaive is the reference tuple-at-a-time loop for Eq. 1 (kept as
// the oracle of the application property tests and as the fallback for
// statements outside the kernel compiler's subset).
func (u *Update) applyNaive(rel *storage.Relation, vec []expr.Expr) error {
	for ti, t := range rel.Tuples {
		ok, err := expr.Satisfied(u.Where, rel.Schema, t)
		if err != nil {
			return err
		}
		if !ok {
			continue
		}
		env := expr.TupleEnv(rel.Schema, t)
		row := make(schema.Tuple, len(vec))
		for i, e := range vec {
			v, err := expr.Eval(e, env)
			if err != nil {
				return err
			}
			row[i] = v
		}
		rel.Tuples[ti] = row
	}
	return nil
}

// Apply implements Eq. 2: a tuple survives iff ¬θ evaluates to true.
// This matches the reenactment query σ_{¬θ}(R) exactly; a condition
// evaluating to NULL therefore removes the tuple (documented deviation
// from SQL, irrelevant for NULL-free workloads). Application runs the
// scan plan of apply.go, with the naive loop as fallback.
func (d *Delete) Apply(db *storage.Database) error { return d.apply(db, nil) }

// applyNaive is the reference per-tuple loop for Eq. 2.
func (d *Delete) applyNaive(rel *storage.Relation) error {
	keep := rel.Tuples[:0:0]
	neg := expr.Negation(d.Where)
	for _, t := range rel.Tuples {
		ok, err := expr.Satisfied(neg, rel.Schema, t)
		if err != nil {
			return err
		}
		if ok {
			keep = append(keep, t)
		}
	}
	rel.Tuples = keep
	return nil
}

// Apply implements Eq. 3. Every row's arity is checked before any row
// is appended, so a rejected statement leaves the relation untouched.
func (i *InsertValues) Apply(db *storage.Database) error {
	rel, err := db.Relation(i.Rel)
	if err != nil {
		return err
	}
	for _, t := range i.Rows {
		if len(t) != rel.Schema.Arity() {
			return fmt.Errorf("history: INSERT arity %d does not match %s", len(t), rel.Schema)
		}
	}
	for _, t := range i.Rows {
		rel.Tuples = append(rel.Tuples, t.Clone())
	}
	return nil
}

// Apply implements Eq. 4: the query is evaluated by the interpreter
// (algebra.Eval) over the database state before the insert. No
// workload applies an INSERT…SELECT, so the statement keeps the one
// path its naive replay (Alg. 1) takes too.
func (i *InsertQuery) Apply(db *storage.Database) error {
	rel, err := db.Relation(i.Rel)
	if err != nil {
		return err
	}
	res, err := algebra.Eval(i.Query, db)
	if err != nil {
		return fmt.Errorf("history: INSERT…SELECT into %s: %w", i.Rel, err)
	}
	if res.Schema.Arity() != rel.Schema.Arity() {
		return fmt.Errorf("history: INSERT…SELECT arity %d does not match %s", res.Schema.Arity(), rel.Schema)
	}
	for _, t := range res.Tuples {
		rel.Tuples = append(rel.Tuples, t.Clone())
	}
	return nil
}

// NoOpFor builds a no-op statement of the same class and relation as
// st, used to pad histories (§6): an insertion modification becomes
// no-op←u and a deletion becomes u←no-op.
func NoOpFor(st Statement) Statement {
	switch x := st.(type) {
	case *Update:
		return &Update{Rel: x.Rel, Set: []SetClause{}, Where: expr.False}
	case *Delete:
		return &Delete{Rel: x.Rel, Where: expr.False}
	case *InsertValues:
		return &InsertValues{Rel: x.Rel}
	case *InsertQuery:
		// An insert of the empty query result; pairs with I_Q in the
		// insert-split optimization.
		return &InsertValues{Rel: x.Rel}
	}
	return nil
}

// SameClass reports whether two statements are of the same statement
// class on the same relation (inserts of either flavor form one class).
func SameClass(a, b Statement) bool {
	if !strings.EqualFold(a.Table(), b.Table()) {
		return false
	}
	class := func(s Statement) int {
		switch s.(type) {
		case *Update:
			return 0
		case *Delete:
			return 1
		case *InsertValues, *InsertQuery:
			return 2
		}
		return -1
	}
	return class(a) == class(b)
}
