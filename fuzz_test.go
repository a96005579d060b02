package mahif_test

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"github.com/mahif/mahif"
	"github.com/mahif/mahif/internal/algebra"
	"github.com/mahif/mahif/internal/exec"
	"github.com/mahif/mahif/internal/sql"
	"github.com/mahif/mahif/internal/storage"
)

// TestRandomizedCrossValidation is the repository's highest-level
// correctness net: random two-relation databases, random histories
// (updates, deletes, constant inserts, INSERT…SELECT across relations),
// and random modifications of every kind, answered by every variant and
// compared against the naive algorithm.
func TestRandomizedCrossValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(1234))
	trials := 60
	if testing.Short() {
		trials = 10
	}
	for trial := 0; trial < trials; trial++ {
		vdb, hist := randomScenario(t, rng)
		mod := randomModificationFor(rng, hist)
		engine := mahif.NewEngine(vdb)

		want, _, err := engine.Naive([]mahif.Modification{mod})
		if err != nil {
			t.Fatalf("trial %d: naive: %v\nhistory:\n%s\nmod: %s", trial, err, hist, mod)
		}
		for _, v := range []mahif.Variant{mahif.VariantR, mahif.VariantRPS, mahif.VariantRDS, mahif.VariantRFull} {
			got, _, err := engine.WhatIf([]mahif.Modification{mod}, mahif.OptionsFor(v))
			if err != nil {
				t.Fatalf("trial %d %s: %v\nhistory:\n%s\nmod: %s", trial, v, err, hist, mod)
			}
			for rel, wd := range want {
				gd := got[rel]
				if gd == nil {
					if wd.Empty() {
						continue
					}
					t.Fatalf("trial %d %s: missing delta for %s\nhistory:\n%s\nmod: %s\nwant:\n%s",
						trial, v, rel, hist, mod, wd)
				}
				if !gd.Equal(wd) {
					t.Fatalf("trial %d %s: delta mismatch for %s\nhistory:\n%s\nmod: %s\nnaive:\n%s\ngot:\n%s",
						trial, v, rel, hist, mod, wd, gd)
				}
			}
		}
	}
}

// randomScenario builds a fresh versioned database with relations r and
// w (same schema, w initially empty) and applies a random history. The
// size of r is drawn from a distribution that includes the vectorized
// executor's batch boundaries (0, 1, ~1023–1025 rows) alongside the
// small fast sizes, so the end-to-end differential also crosses batch
// edges, not only the unit tests.
//
// A quarter of scenarios run in "wide" mode, which stresses the typed
// columnar lanes specifically: NULL-heavy columns (typed lanes with
// null bitmaps), all-NULL columns, float cells inside the int-declared
// k/v columns (per-cell kind deviation drops the column to the boxed
// fallback lane), and integers around the 2^53 float-precision
// boundary and the int64 extremes (where the executor's integer
// comparison plans diverge from a float round-trip).
func randomScenario(t *testing.T, rng *rand.Rand) (*mahif.VersionedDatabase, mahif.History) {
	t.Helper()
	cols := []mahif.Column{
		mahif.Col("k", mahif.KindInt),
		mahif.Col("v", mahif.KindInt),
		mahif.Col("g", mahif.KindString),
	}
	db := mahif.NewDatabase()
	r := mahif.NewRelation(mahif.NewSchema("r", cols...))
	groups := []string{"a", "b", "c"}
	wide := rng.Intn(4) == 0
	allNull := wide && rng.Intn(6) == 0
	intCell := func() mahif.Value {
		if allNull {
			return mahif.Null()
		}
		if !wide {
			return mahif.Int(int64(rng.Intn(50)))
		}
		switch rng.Intn(12) {
		case 0, 1:
			return mahif.Null()
		case 2:
			return mahif.Int(1 << 53) // first float64 rounding plateau
		case 3:
			return mahif.Int(1<<53 + 1)
		case 4:
			return mahif.Int(-(1<<53 + 1))
		case 5:
			return mahif.Int(9223372036854775807)
		case 6:
			return mahif.Float(float64(rng.Intn(50)) + 0.5) // kind deviation → boxed lane
		default:
			return mahif.Int(int64(rng.Intn(50)))
		}
	}
	strCell := func() mahif.Value {
		if allNull || (wide && rng.Intn(5) == 0) {
			return mahif.Null()
		}
		return mahif.Str(groups[rng.Intn(len(groups))])
	}
	var rows int
	switch rng.Intn(8) {
	case 0:
		rows = rng.Intn(2) // empty and single-row relations
	case 1:
		rows = 1023 + rng.Intn(3) // straddle one batch
	default:
		rows = 30 + rng.Intn(30)
	}
	for i := 0; i < rows; i++ {
		r.Add(mahif.NewTuple(intCell(), intCell(), strCell()))
	}
	db.AddRelation(r)
	db.AddRelation(mahif.NewRelation(mahif.NewSchema("w", cols...)))
	vdb := mahif.NewVersioned(db)

	var hist mahif.History
	n := 1 + rng.Intn(6)
	for i := 0; i < n; i++ {
		st := randomStatement(rng, i)
		if err := vdb.Apply(st); err != nil {
			t.Fatalf("applying %s: %v", st, err)
		}
		hist = append(hist, st)
	}
	return vdb, hist
}

// randomCondConst draws a comparison constant: usually small (so
// conditions select something), occasionally at the 2^53 boundary or
// negative-huge, where an integer column compared through float64
// could misorder if the executor's comparison plan were built from a
// lossy round-trip.
func randomCondConst(rng *rand.Rand) string {
	switch rng.Intn(16) {
	case 0:
		return "9007199254740992" // 2^53
	case 1:
		return "9007199254740993"
	case 2:
		return "-9007199254740993"
	case 3:
		return "9223372036854775807"
	default:
		return fmt.Sprint(rng.Intn(50))
	}
}

func randomCondSQL(rng *rand.Rand) string {
	col := []string{"k", "v"}[rng.Intn(2)]
	op := []string{">=", "<", "="}[rng.Intn(3)]
	base := fmt.Sprintf("%s %s %s", col, op, randomCondConst(rng))
	switch rng.Intn(3) {
	case 0:
		return base + fmt.Sprintf(" AND g = '%s'", []string{"a", "b", "c"}[rng.Intn(3)])
	case 1:
		return base + fmt.Sprintf(" OR v < %d", rng.Intn(20))
	}
	return base
}

func randomStatement(rng *rand.Rand, i int) mahif.Statement {
	rel := "r"
	if rng.Intn(4) == 0 {
		rel = "w"
	}
	switch rng.Intn(8) {
	case 0:
		return mahif.MustParseStatement(fmt.Sprintf(
			`DELETE FROM %s WHERE %s`, rel, randomCondSQL(rng)))
	case 1:
		v1 := fmt.Sprint(rng.Intn(50))
		if rng.Intn(8) == 0 {
			v1 = "NULL" // NULL through the full INSERT → reenact → delta path
		}
		return mahif.MustParseStatement(fmt.Sprintf(
			`INSERT INTO %s VALUES (%d, %s, 'a'), (%d, %d, 'b')`,
			rel, 100+i, v1, 200+i, rng.Intn(50)))
	case 2:
		// Cross-relation INSERT…SELECT (w fed from r or vice versa).
		src := "r"
		if rel == "r" {
			src = "w"
		}
		return mahif.MustParseStatement(fmt.Sprintf(
			`INSERT INTO %s SELECT k, v, g FROM %s WHERE %s`, rel, src, randomCondSQL(rng)))
	default:
		set := fmt.Sprintf("v = v + %d", 1+rng.Intn(5))
		switch rng.Intn(6) {
		case 0, 1:
			set = fmt.Sprintf("v = %d, k = k + 1", rng.Intn(30))
		case 2:
			// A later clause reads a column an earlier one assigns: it
			// must read the old value, as every SET expression does.
			set = fmt.Sprintf("k = k + %d, v = k", 1+rng.Intn(5))
		}
		return mahif.MustParseStatement(fmt.Sprintf(
			`UPDATE %s SET %s WHERE %s`, rel, set, randomCondSQL(rng)))
	}
}

func randomModificationFor(rng *rand.Rand, hist mahif.History) mahif.Modification {
	pos := rng.Intn(len(hist))
	switch rng.Intn(4) {
	case 0:
		return mahif.DeleteAt(pos)
	case 1:
		return mahif.InsertStmt{Pos: pos, Stmt: randomStatement(rng, 50)}
	default:
		return mahif.Replace{Pos: pos, Stmt: randomStatement(rng, 60)}
	}
}

// differentialTrial answers one random scenario with the vectorized
// executor and the tree-walking interpreter under every variant and
// requires both to produce identical deltas (interpreter ≡ vectorized). Deltas are
// sorted and multiset-aware (delta.Compute sorts by canonical key;
// Result.Equal compares the annotated multisets position-wise), so this
// is an exact equivalence check of the executors end to end —
// reenactment, slicing, filters, joins, difference, everything. It
// returns how many query evaluations asked for the vectorized executor
// and silently ran through the interpreter instead (the oracle would then
// have been compared with itself).
func differentialTrial(t *testing.T, rng *rand.Rand) int64 {
	t.Helper()
	vdb, hist := randomScenario(t, rng)
	mod := randomModificationFor(rng, hist)
	engine := mahif.NewEngine(vdb)
	aggregateDifferentialTrial(t, rng, vdb)
	for _, v := range []mahif.Variant{mahif.VariantR, mahif.VariantRPS, mahif.VariantRDS, mahif.VariantRFull} {
		optsI := mahif.OptionsFor(v)
		optsI.Executor = mahif.ExecInterpreter
		want, stI, errI := engine.WhatIf([]mahif.Modification{mod}, optsI)

		opts := mahif.OptionsFor(v)
		opts.Executor = mahif.ExecVectorized
		got, stX, errX := engine.WhatIf([]mahif.Modification{mod}, opts)
		if (errI == nil) != (errX == nil) {
			t.Fatalf("%s: error divergence: interpreter=%v vectorized=%v\nhistory:\n%s\nmod: %s",
				v, errI, errX, hist, mod)
		}
		if errI != nil {
			continue
		}
		// Both executors diff the same rows in the same order, whether
		// the vectorized one cancels positions in a pair scan or after
		// running each side: the delta's work is the same.
		if stI.RowsCompared != stX.RowsCompared || stI.RowsHashed != stX.RowsHashed || stI.RowsBoxed != stX.RowsBoxed {
			t.Fatalf("%s: delta work divergence: interpreter compared/hashed/boxed %d/%d/%d, vectorized %d/%d/%d\nhistory:\n%s\nmod: %s",
				v, stI.RowsCompared, stI.RowsHashed, stI.RowsBoxed, stX.RowsCompared, stX.RowsHashed, stX.RowsBoxed, hist, mod)
		}
		rels := map[string]bool{}
		for rel := range want {
			rels[rel] = true
		}
		for rel := range got {
			rels[rel] = true
		}
		for rel := range rels {
			wd, gd := want[rel], got[rel]
			switch {
			case wd == nil && gd == nil:
			case wd == nil:
				if !gd.Empty() {
					t.Fatalf("%s: extra delta for %s\nhistory:\n%s\nmod: %s\ngot:\n%s",
						v, rel, hist, mod, gd)
				}
			case gd == nil:
				if !wd.Empty() {
					t.Fatalf("%s: missing delta for %s\nhistory:\n%s\nmod: %s\nwant:\n%s",
						v, rel, hist, mod, wd)
				}
			case !gd.Equal(wd):
				t.Fatalf("%s: executor divergence for %s\nhistory:\n%s\nmod: %s\ninterpreter:\n%s\nvectorized:\n%s",
					v, rel, hist, mod, wd, gd)
			}
		}
	}
	return engine.InterpreterFallbacks()
}

// randomAggregateSQL draws a grouped or global aggregate query over r:
// 0–2 grouping columns (including computed keys, so NULL groups and
// cross-kind numeric keys arise from the wide generator), 1–3 aggregate
// calls over every function, an optional WHERE, and occasionally a
// deliberately ill-typed SUM over the string column so error behavior
// is differentially checked too.
func randomAggregateSQL(rng *rand.Rand) string {
	groupPool := []string{"g", "k", "v", "k + 1"}
	var groups []string
	for _, g := range groupPool {
		if rng.Intn(4) == 0 && len(groups) < 2 {
			groups = append(groups, g)
		}
	}
	aggPool := []string{"COUNT(*)", "COUNT(v)", "SUM(v)", "AVG(v)", "MIN(v)", "MAX(k)", "SUM(k + v)", "MIN(g)", "MAX(g)"}
	if rng.Intn(10) == 0 {
		aggPool = append(aggPool, "SUM(g)") // ill-typed: all executors must error alike
	}
	n := 1 + rng.Intn(3)
	var items []string
	for i, g := range groups {
		item := g
		if g == "k + 1" {
			item = fmt.Sprintf("%s AS gk%d", g, i)
		}
		items = append(items, item)
	}
	for i := 0; i < n; i++ {
		items = append(items, fmt.Sprintf("%s AS a%d", aggPool[rng.Intn(len(aggPool))], i))
	}
	q := "SELECT "
	for i, it := range items {
		if i > 0 {
			q += ", "
		}
		q += it
	}
	q += " FROM r"
	if rng.Intn(2) == 0 {
		q += " WHERE " + randomCondSQL(rng)
	}
	if len(groups) > 0 {
		q += " GROUP BY "
		for i, g := range groups {
			if i > 0 {
				q += ", "
			}
			q += g
		}
	}
	return q
}

// aggregateDifferentialTrial evaluates random aggregate plans over the
// scenario's tip state with both executors and requires identical
// materialized relations — same schema, same tuples, same order (group
// first-appearance order is part of the contract) — or that both fail
// together.
func aggregateDifferentialTrial(t *testing.T, rng *rand.Rand, vdb *mahif.VersionedDatabase) {
	t.Helper()
	_, db := vdb.TipSnapshot()
	for i := 0; i < 2; i++ {
		src := randomAggregateSQL(rng)
		q, err := sql.ParseQuery(src)
		if err != nil {
			t.Fatalf("parse %q: %v", src, err)
		}
		want, errI := algebra.Eval(q, db)
		var got *storage.Relation
		prog, errX := exec.CompileVec(q, db, exec.VecOptions{})
		if errX == nil {
			got, errX = prog.RunCtx(context.Background(), db)
		}
		if (errI == nil) != (errX == nil) {
			t.Fatalf("aggregate error divergence on %q: interpreter=%v vectorized=%v", src, errI, errX)
		}
		if errI != nil {
			continue
		}
		if !want.Schema.Equal(got.Schema) {
			t.Fatalf("aggregate schema divergence on %q: %s vs %s", src, want.Schema, got.Schema)
		}
		if len(want.Tuples) != len(got.Tuples) {
			t.Fatalf("aggregate row-count divergence on %q: %d vs %d", src, len(want.Tuples), len(got.Tuples))
		}
		for j := range want.Tuples {
			if !want.Tuples[j].Equal(got.Tuples[j]) {
				t.Fatalf("aggregate row divergence on %q at %d: %s vs %s", src, j, want.Tuples[j], got.Tuples[j])
			}
		}
	}
}

// TestDifferentialExecutor cross-validates the vectorized executor
// against the interpreter oracle over random histories and
// modifications.
func TestDifferentialExecutor(t *testing.T) {
	rng := rand.New(rand.NewSource(4321))
	trials := 40
	if testing.Short() {
		trials = 10
	}
	for trial := 0; trial < trials; trial++ {
		// Every reenactment query of these histories is inside the
		// compilable subset: a fallback is a lowering regression that no
		// answer would show.
		if n := differentialTrial(t, rng); n != 0 {
			t.Fatalf("trial %d: %d evaluations fell back to the interpreter", trial, n)
		}
	}
}

// FuzzDifferentialExecutor is the native-fuzzing entry point for the
// same two-way property; the seed corpus runs on every plain
// `go test` (including -short in CI), and
// `go test -fuzz=FuzzDifferentialExecutor` explores further. The seeds
// past 987654321 were added with the vectorized executor: under the
// enlarged size distribution they cover batch-boundary relations
// (0/1/1023–1025 rows), all-filtered histories, INSERT…SELECT-heavy
// logs, and every modification kind. The third group was added with
// the typed columnar lanes and lands in the generator's wide mode:
// NULL-heavy and all-NULL columns, kind-deviant cells forcing the
// boxed fallback lane, 2^53-boundary and int64-extreme values, and
// comparison constants at the same boundaries.
func FuzzDifferentialExecutor(f *testing.F) {
	// The fourth group was added with the aggregate operators: each
	// trial now also runs grouped/global aggregate plans through both
	// executors, and these seeds land on NULL groups, empty
	// inputs, ill-typed aggregate arguments, and batch-boundary group
	// cardinalities.
	for _, seed := range []int64{1, 2, 3, 42, 1234, 987654321,
		7, 99, 2024, 31337, 55555, 424242, 8675309, 1 << 40,
		11, 13, 31, 47, 1415, 2021, 4096, 271828,
		17, 23, 61, 101, 733, 3141, 16384, 650000} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		differentialTrial(t, rand.New(rand.NewSource(seed)))
	})
}
