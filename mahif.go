// Package mahif is a middleware for answering historical what-if
// queries, reproducing the system of "Efficient Answering of Historical
// What-if Queries" (SIGMOD 2022).
//
// A historical what-if query asks how the current database state would
// differ had the transactional history been different: a statement
// replaced, inserted, or deleted. Mahif answers such queries without
// copying the database, by reenacting the original and the hypothetical
// history as queries over the time-travel state before the first
// modified statement and diffing the two results. Two optimizations —
// program slicing (proving statements irrelevant with symbolic
// execution and an MILP solver) and data slicing (filtering tuples that
// provably cannot appear in the answer) — keep that cheap.
//
// # Quick start
//
//	db := mahif.NewDatabase()
//	db.AddRelation(ordersRelation)
//	vdb := mahif.NewVersioned(db)
//	vdb.Apply(mahif.MustParseStatement(
//	    `UPDATE orders SET fee = 0 WHERE price >= 50`))
//	// ... more history ...
//	engine := mahif.NewEngine(vdb)
//	delta, stats, err := engine.WhatIf([]mahif.Modification{
//	    mahif.ReplaceSQL(0, `UPDATE orders SET fee = 0 WHERE price >= 60`),
//	}, mahif.DefaultOptions())
//
// The result is the symmetric difference between the actual current
// state and the hypothetical one, annotated − (only in the actual
// state) and + (only in the hypothetical state).
//
// # Batch evaluation
//
// Analysts rarely ask one hypothetical: they sweep a family of related
// scenarios over the same history. Engine.WhatIfBatch answers N
// independent modification sets concurrently over a worker pool,
// sharing the work that is common to the family — the time-travel
// state before each distinct first-modified statement is materialized
// once and used read-only by all workers, and program-slicing solver
// runs whose formulas coincide across scenarios are answered once from
// a memo. Results arrive in submission order with per-scenario deltas,
// stats, and errors (no fail-fast):
//
//	results, bstats, err := engine.WhatIfBatch([]mahif.Scenario{
//	    {Label: "fee55", Mods: []mahif.Modification{mahif.ReplaceSQL(0,
//	        `UPDATE orders SET fee = 0 WHERE price >= 55`)}},
//	    {Label: "fee60", Mods: []mahif.Modification{mahif.ReplaceSQL(0,
//	        `UPDATE orders SET fee = 0 WHERE price >= 60`)}},
//	}, mahif.BatchOptions{Options: mahif.DefaultOptions()})
//
// The same capability is exposed as the `batch` subcommand of
// cmd/mahif, which reads scenarios from a JSON file.
//
// # Contexts and cancellation
//
// Every evaluation entry point has a ctx-threaded form — WhatIfCtx,
// NaiveCtx, WhatIfBatchCtx, ProveEquivalentCtx — and the plain forms
// are wrappers over context.Background(). Cancellation and deadlines
// are observed deep inside the long-running phases: at every branch &
// bound node of the MILP solver, between the per-statement
// satisfiability tests of program slicing, between the row batches of
// compiled query execution, and between statements of time-travel
// replay. A cancelled query therefore stops doing work within
// milliseconds and returns ctx.Err():
//
//	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
//	defer cancel()
//	delta, stats, err := engine.WhatIfCtx(ctx, mods, mahif.DefaultOptions())
//
// Invalid modification positions are reported with the sentinel errors
// ErrPosOutOfRange and ErrEmptyHistory (test with errors.Is).
//
// # Sessions
//
// A Session pins the engine's current history version and keeps the
// caches that a single batch call builds and discards — time-travel
// snapshots, solver memo, compiled reenactment programs — alive across
// calls, so iterating related hypotheticals reuses almost all work:
//
//	sess := engine.NewSession()
//	d1, _, _ := sess.WhatIfCtx(ctx, modsFee55, opts)
//	d2, _, _ := sess.WhatIfCtx(ctx, modsFee56, opts) // warm snapshots & programs
//	fmt.Println(sess.Stats().SnapshotHits)
//
// Sessions are safe for concurrent use and invalidate themselves when
// the underlying history advances. cmd/mahifd serves the engine over
// HTTP through a session pool; DeltaSet, Stats, and BatchStats carry a
// stable JSON wire format (MarshalJSON/UnmarshalJSON, pinned by golden
// tests) for that boundary.
//
// # Scenario templates
//
// When the family of hypotheticals shares one shape and differs only
// in constants — "what if the threshold had been X?" for 10k values of
// X — compile the shape once and bind per question. A template's
// statements carry $name parameter slots (SQL: `... WHERE price >=
// $cut`); CompileTemplate runs history alignment, time travel, and
// program slicing once, with the slots as free solver variables (sound
// for every later binding), and Template.Eval answers each binding by
// evaluating only the retained modified-side query:
//
//	tpl, err := engine.CompileTemplate([]mahif.Modification{
//	    mahif.ReplaceSQL(0, `UPDATE orders SET fee = 0 WHERE price >= $cut`),
//	}, mahif.DefaultOptions())
//	d55, err := tpl.Eval(map[string]mahif.Value{"cut": mahif.Int(55)})
//	d60, err := tpl.Eval(map[string]mahif.Value{"cut": mahif.Int(60)})
//
// Every Eval returns exactly what a fresh WhatIf over the substituted
// modifications would (pinned by differential tests). Templates
// recompile transparently when the history advances; sessions cache
// compiled templates by constant-abstracted shape (see
// Session.CompileTemplate), and cmd/mahifd exposes the subsystem as
// POST /v1/template and POST /v1/template/{id}/eval.
package mahif

import (
	"context"

	"github.com/mahif/mahif/internal/compile"
	"github.com/mahif/mahif/internal/core"
	"github.com/mahif/mahif/internal/delta"
	"github.com/mahif/mahif/internal/expr"
	"github.com/mahif/mahif/internal/history"
	"github.com/mahif/mahif/internal/progslice"
	"github.com/mahif/mahif/internal/schema"
	"github.com/mahif/mahif/internal/sql"
	"github.com/mahif/mahif/internal/storage"
	"github.com/mahif/mahif/internal/types"
)

// Re-exported core types. The implementation lives in internal
// packages; these aliases are the supported public surface.
type (
	// Value is an attribute value (int, float, string, bool, or NULL).
	Value = types.Value
	// Kind enumerates value types.
	Kind = types.Kind
	// Schema describes a relation's columns.
	Schema = schema.Schema
	// Column is one schema column.
	Column = schema.Column
	// Tuple is one row.
	Tuple = schema.Tuple
	// Relation is a bag of tuples with a schema.
	Relation = storage.Relation
	// Database is a set of named relations.
	Database = storage.Database
	// VersionedDatabase adds statement-granularity time travel.
	VersionedDatabase = storage.VersionedDatabase
	// Statement is one history element (UPDATE/DELETE/INSERT).
	Statement = history.Statement
	// History is a sequence of statements.
	History = history.History
	// Modification hypothetically alters a history (see Replace,
	// InsertStmt, DeleteStmt).
	Modification = history.Modification
	// Replace substitutes the statement at a position.
	Replace = history.Replace
	// InsertStmt inserts a new statement at a position.
	InsertStmt = history.InsertStmt
	// DeleteStmt removes the statement at a position.
	DeleteStmt = history.DeleteStmt
	// Engine answers historical what-if queries.
	Engine = core.Engine
	// Options selects optimizations and tuning knobs.
	Options = core.Options
	// ExecutorKind selects the query evaluation backend.
	ExecutorKind = core.ExecutorKind
	// Variant names a paper evaluation configuration (N, R, R+PS, …).
	Variant = core.Variant
	// Stats is the per-phase breakdown for the reenactment algorithm.
	Stats = core.Stats
	// NaiveStats is the breakdown for the naive algorithm.
	NaiveStats = core.NaiveStats
	// Scenario is one modification set in a batch what-if query.
	Scenario = core.Scenario
	// BatchOptions tunes Engine.WhatIfBatch (parallelism, sharing).
	BatchOptions = core.BatchOptions
	// BatchResult is the per-scenario outcome of a batch query.
	BatchResult = core.BatchResult
	// BatchStats aggregates batch timing and work sharing.
	BatchStats = core.BatchStats
	// Session is a long-lived evaluation context that reuses
	// time-travel snapshots, solver memos, and compiled reenactment
	// programs across calls (see Engine.NewSession).
	Session = core.Session
	// SessionStats reports a session's cache effectiveness.
	SessionStats = core.SessionStats
	// Template is a compiled parameterized what-if scenario: compile
	// once with $name slots, answer many bindings fast (see
	// Engine.CompileTemplate and Session.CompileTemplate).
	Template = core.Template
	// TemplateStats profiles a template's one-time compilation and
	// lifetime eval/recompile counters.
	TemplateStats = core.TemplateStats
	// TemplateEvalResult is one binding's outcome in Template.EvalBatch.
	TemplateEvalResult = core.TemplateEvalResult
	// AggregateQuery is a validated GROUP BY/aggregate query attached
	// to a what-if (see Engine.WhatIfAggregates and
	// Template.EvalAggregates).
	AggregateQuery = core.AggregateQuery
	// AggregateReport is one attached query's per-group
	// historical/hypothetical/delta rows.
	AggregateReport = core.AggregateReport
	// AggregateRow is one group's values in an AggregateReport.
	AggregateRow = core.AggregateRow
	// ReportRoutes counts aggregate reports by route (merged into the
	// historical state, or patched, by reason); SessionStats.Reports and
	// TemplateStats.Reports carry one.
	ReportRoutes = core.ReportRoutes
	// Delta is the annotated symmetric difference for one relation.
	Delta = delta.Result
	// DeltaSet maps relation names to their deltas.
	DeltaSet = delta.Set
	// Expr is a scalar expression or condition.
	Expr = expr.Expr
)

// Value kind constants.
const (
	KindNull   = types.KindNull
	KindInt    = types.KindInt
	KindFloat  = types.KindFloat
	KindString = types.KindString
	KindBool   = types.KindBool
)

// Query evaluation backends: the vectorized batch executor (the
// default) and the tree-walking interpreter kept as reference oracle.
const (
	ExecVectorized  = core.ExecVectorized
	ExecInterpreter = core.ExecInterpreter
)

// Evaluation variants of §13.3.
const (
	VariantNaive = core.VariantNaive
	VariantR     = core.VariantR
	VariantRPS   = core.VariantRPS
	VariantRDS   = core.VariantRDS
	VariantRFull = core.VariantRFull
)

// Value constructors.
var (
	// Int builds an integer value.
	Int = types.Int
	// Float builds a float value.
	Float = types.Float
	// Str builds a string value.
	Str = types.String
	// Bool builds a boolean value.
	Bool = types.Bool
	// Null builds the NULL value.
	Null = types.Null
)

// NewDatabase returns an empty database.
func NewDatabase() *Database { return storage.NewDatabase() }

// NewRelation returns an empty relation with the given schema.
func NewRelation(s *Schema) *Relation { return storage.NewRelation(s) }

// NewSchema builds a schema for relation rel.
func NewSchema(rel string, cols ...Column) *Schema { return schema.New(rel, cols...) }

// Col builds a schema column.
func Col(name string, t Kind) Column { return schema.Col(name, t) }

// NewTuple builds a tuple from values.
func NewTuple(vs ...Value) Tuple { return schema.NewTuple(vs...) }

// NewVersioned starts time-travel tracking from an initial state.
func NewVersioned(initial *Database) *VersionedDatabase { return storage.NewVersioned(initial) }

// NewEngine builds a what-if engine over a versioned database whose
// redo log is the transactional history.
func NewEngine(vdb *VersionedDatabase) *Engine { return core.New(vdb) }

// NewDurableEngine builds an engine over a durable history store
// (internal/persist via cmd/mahifd, or any core.DurableStore): appends
// commit to the store's write-ahead log before they become visible,
// so a restarted process recovers the exact acknowledged history.
func NewDurableEngine(store core.DurableStore) *Engine { return core.NewDurable(store) }

// Sentinel errors for invalid what-if queries, returned (wrapped) by
// WhatIf/Naive and the other evaluation entry points; test with
// errors.Is.
var (
	// ErrPosOutOfRange reports a modification position outside the
	// history.
	ErrPosOutOfRange = history.ErrPosOutOfRange
	// ErrEmptyHistory reports a replace or delete against an empty
	// history.
	ErrEmptyHistory = history.ErrEmptyHistory
)

// DefaultOptions enables all optimizations (R+PS+DS).
func DefaultOptions() Options { return core.DefaultOptions() }

// OptionsFor maps an evaluation variant to options.
func OptionsFor(v Variant) Options { return core.OptionsFor(v) }

// ParseStatement parses one SQL UPDATE/DELETE/INSERT statement.
func ParseStatement(src string) (Statement, error) { return sql.ParseStatement(src) }

// MustParseStatement is ParseStatement panicking on error.
func MustParseStatement(src string) Statement { return sql.MustParseStatement(src) }

// ParseStatements parses a ';'-separated script into a history.
func ParseStatements(src string) (History, error) { return sql.ParseStatements(src) }

// ParseCondition parses a standalone SQL condition.
func ParseCondition(src string) (Expr, error) { return sql.ParseCondition(src) }

// ParseAggregateQuery parses and validates a SQL aggregate query
// (SELECT [group cols,] aggs FROM rel [WHERE …] [GROUP BY cols]) for
// attachment to a what-if.
func ParseAggregateQuery(src string) (AggregateQuery, error) {
	q, err := sql.ParseQuery(src)
	if err != nil {
		return AggregateQuery{}, err
	}
	return core.NewAggregateQuery(src, q)
}

// ReplaceSQL builds a Replace modification from SQL (zero-based
// position).
func ReplaceSQL(pos int, src string) Modification {
	return history.Replace{Pos: pos, Stmt: sql.MustParseStatement(src)}
}

// InsertSQL builds an InsertStmt modification from SQL (zero-based
// position).
func InsertSQL(pos int, src string) Modification {
	return history.InsertStmt{Pos: pos, Stmt: sql.MustParseStatement(src)}
}

// DeleteAt builds a DeleteStmt modification (zero-based position).
func DeleteAt(pos int) Modification { return history.DeleteStmt{Pos: pos} }

// Parameter builds a $name template parameter slot for use in
// statement expressions (SQL spells it `$name`). Statements carrying
// slots compile into reusable templates via Engine.CompileTemplate;
// they cannot be appended to a history or answered by plain WhatIf
// until every slot is bound.
func Parameter(name string) Expr { return expr.Parameter(name) }

// EquivalenceResult reports a history equivalence proof (see
// ProveEquivalent).
type EquivalenceResult = progslice.EquivalenceResult

// ProveEquivalent checks whether two histories of updates and deletes
// over the relation described by s produce the same final state for
// every possible input — the application of the symbolic evaluation
// machinery that the paper proposes as future work (§14). A nil
// constraint checks all databases; pass a condition over variables
// x0_<column> to restrict the claim (e.g. to the value ranges of an
// actual instance).
//
// The verdict is conservative: Definitive=false means "not proven
// within budget", never a wrong answer.
func ProveEquivalent(h1, h2 History, s *Schema, constraint Expr) (*EquivalenceResult, error) {
	return progslice.ProveEquivalent(h1, h2, s, constraint, compile.Options{})
}

// ProveEquivalentCtx is ProveEquivalent under a context: the solver
// search observes cancellation at every branch & bound node.
func ProveEquivalentCtx(ctx context.Context, h1, h2 History, s *Schema, constraint Expr) (*EquivalenceResult, error) {
	return progslice.ProveEquivalentCtx(ctx, h1, h2, s, constraint, compile.Options{})
}
