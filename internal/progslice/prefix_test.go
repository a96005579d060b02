package progslice

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"github.com/mahif/mahif/internal/compile"
	"github.com/mahif/mahif/internal/expr"
	"github.com/mahif/mahif/internal/history"
	"github.com/mahif/mahif/internal/schema"
	"github.com/mahif/mahif/internal/sql"
	"github.com/mahif/mahif/internal/storage"
	"github.com/mahif/mahif/internal/symbolic"
	"github.com/mahif/mahif/internal/types"
)

// dependencyPerTest is the §9 dependency test as it ran before the
// run-wide prefix, kept as the oracle DependencyCtx is pinned to: every
// test builds its whole formula Φ_D ∧ affected ∧ touched_i, prunes the
// definitions with a table rebuilt per call, and compiles the formula
// on its own. It returns the keep set and each test's outcome.
func dependencyPerTest(in *Input) ([]int, []*compile.Outcome, error) {
	if err := in.validate(); err != nil {
		return nil, nil, err
	}
	base := symbolic.NewBaseState(in.Schema)
	orig, err := symbolic.Exec(base, in.Pair.Orig, "h")
	if err != nil {
		return nil, nil, err
	}
	mod, err := symbolic.Exec(base, in.Pair.Mod, "m")
	if err != nil {
		return nil, nil, err
	}
	touched := func(i int) expr.Expr {
		return expr.OrOf(
			expr.AndOf(orig.Steps[i].LocalBefore, orig.Steps[i].Theta),
			expr.AndOf(mod.Steps[i].LocalBefore, mod.Steps[i].Theta))
	}
	modified := map[int]bool{}
	var modConds []expr.Expr
	for _, p := range in.Pair.ModifiedPos {
		modified[p] = true
		modConds = append(modConds, touched(p))
	}
	affected := expr.OrOf(modConds...)
	var keep []int
	var outs []*compile.Outcome
	for i := range in.Pair.Orig {
		if modified[i] {
			keep = append(keep, i)
			continue
		}
		if noop(in.Pair.Orig[i]) && noop(in.Pair.Mod[i]) {
			continue
		}
		core := expr.AndOf(in.PhiD, affected, touched(i))
		formula := expr.AndOf(append([]expr.Expr{core}, pruneGlobalsPerCall(core, orig, mod)...)...)
		out, err := compile.SatisfiableCtx(context.Background(), formula, symbolic.MergeKinds(orig, mod), in.Compile)
		if err != nil {
			return nil, nil, err
		}
		outs = append(outs, out)
		if out.Sat || !out.Definitive {
			keep = append(keep, i)
		}
	}
	return keep, outs, nil
}

// checkedDependency runs Dependency and pins it to the per-test oracle:
// the same keep set and effort, and per test the same question — the
// oracle's whole formulas, asked through the memo Dependency filled,
// must all hit it (the memo keys agree) — with the same outcome as a
// compilation of the whole formula without any memo.
func checkedDependency(t *testing.T, in *Input) (*Result, error) {
	t.Helper()
	memo := compile.NewMemoCap(0)
	run := *in
	run.Compile.Memo = memo
	res, err := DependencyCtx(context.Background(), &run)

	oracle := *in
	oracle.Compile.Memo = nil
	keep, fresh, oerr := dependencyPerTest(&oracle)
	if (err == nil) != (oerr == nil) || (err != nil && err.Error() != oerr.Error()) {
		t.Fatalf("Dependency err=%v, per-test oracle err=%v", err, oerr)
	}
	if err != nil {
		return nil, err
	}
	_, missesBefore := memo.Stats()
	viaMemo := *in
	viaMemo.Compile.Memo = memo
	_, memoed, _ := dependencyPerTest(&viaMemo)
	if _, misses := memo.Stats(); misses != missesBefore {
		t.Fatalf("%d of the oracle's %d whole formulas missed the memo the prefix run filled: keys differ", misses-missesBefore, len(fresh))
	}
	nodes, indefinite := 0, 0
	for i := range fresh {
		// A prefix check's pass goes on from the prefix's fixpoint: it
		// makes fewer propagation visits and may be a fallback, and
		// answers exactly as the whole formula does.
		got, want := *memoed[i], *fresh[i]
		got.Visits, got.Fallback, want.Visits = 0, false, 0
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("test %d: prefix outcome %+v, whole-formula outcome %+v", i, *memoed[i], *fresh[i])
		}
		nodes += fresh[i].Nodes
		if !fresh[i].Definitive {
			indefinite++
		}
	}
	if fmt.Sprint(res.Keep) != fmt.Sprint(keep) || res.Stats.Tests != len(fresh) ||
		res.Stats.SolverNodes != nodes || res.Stats.Indefinite != indefinite {
		t.Fatalf("Dependency kept %v after %d tests (%d nodes, %d indefinite); the oracle %v, %d (%d, %d)",
			res.Keep, res.Stats.Tests, res.Stats.SolverNodes, res.Stats.Indefinite, keep, len(fresh), nodes, indefinite)
	}
	return res, nil
}

// fuzzSchema and the two draws below follow the statement grammar of the
// root package's differential fuzz generator (FuzzDifferentialExecutor)
// for the update/delete part of a history over one relation: conditions
// on k and v with constants at the 2^53 and int64 boundaries, string
// conjuncts and disjunctive tails, increments and multi-column SETs.
var fuzzSchema = schema.New("r",
	schema.Col("k", types.KindInt), schema.Col("v", types.KindInt), schema.Col("g", types.KindString))

func fuzzCondSQL(rng *rand.Rand) string {
	var c string
	switch rng.Intn(16) {
	case 0:
		c = "9007199254740992"
	case 1:
		c = "9007199254740993"
	case 2:
		c = "-9007199254740993"
	case 3:
		c = "9223372036854775807"
	default:
		c = fmt.Sprint(rng.Intn(50))
	}
	base := fmt.Sprintf("%s %s %s", []string{"k", "v"}[rng.Intn(2)], []string{">=", "<", "="}[rng.Intn(3)], c)
	switch rng.Intn(3) {
	case 0:
		return base + fmt.Sprintf(" AND g = '%s'", []string{"a", "b", "c"}[rng.Intn(3)])
	case 1:
		return base + fmt.Sprintf(" OR v < %d", rng.Intn(20))
	}
	return base
}

func fuzzStatement(rng *rand.Rand) history.Statement {
	if rng.Intn(6) == 0 {
		return sql.MustParseStatement("DELETE FROM r WHERE " + fuzzCondSQL(rng))
	}
	set := fmt.Sprintf("v = v + %d", 1+rng.Intn(5))
	if rng.Intn(3) == 0 {
		set = fmt.Sprintf("v = %d, k = k + 1", rng.Intn(30))
	}
	return sql.MustParseStatement("UPDATE r SET " + set + " WHERE " + fuzzCondSQL(rng))
}

// fuzzInput draws one slicing problem: a history of 1–8 statements, one
// modification of any kind, and Φ_D compressed from a random relation
// (or true).
func fuzzInput(t *testing.T, rng *rand.Rand) *Input {
	t.Helper()
	h := make(history.History, 1+rng.Intn(8))
	for i := range h {
		h[i] = fuzzStatement(rng)
	}
	var m history.Modification
	switch pos := rng.Intn(len(h)); rng.Intn(4) {
	case 0:
		m = history.DeleteStmt{Pos: pos}
	case 1:
		m = history.InsertStmt{Pos: pos, Stmt: fuzzStatement(rng)}
	default:
		m = history.Replace{Pos: pos, Stmt: fuzzStatement(rng)}
	}
	pair, err := history.ApplyModifications(h, []history.Modification{m})
	if err != nil {
		t.Fatal(err)
	}
	in := &Input{Pair: pair, Schema: fuzzSchema, PhiD: expr.True}
	if rng.Intn(3) > 0 {
		rel := storage.NewRelation(fuzzSchema)
		for i := 5 + rng.Intn(40); i > 0; i-- {
			rel.Add(schema.Tuple{types.Int(int64(rng.Intn(50))), types.Int(int64(rng.Intn(50))), types.String([]string{"a", "b", "c"}[rng.Intn(3)])})
		}
		if in.PhiD, err = symbolic.Compress(rel, symbolic.CompressOptions{}); err != nil {
			t.Fatal(err)
		}
	}
	return in
}

// TestDependencyPrefixMatchesPerTestOracle runs the prefix-sharing
// dependency test against the per-test oracle over histories drawn by
// the differential fuzz grammar, first under the fuzz target's seed
// corpus and then under further random seeds.
func TestDependencyPrefixMatchesPerTestOracle(t *testing.T) {
	seeds := []int64{1, 2, 3, 42, 1234, 987654321,
		7, 99, 2024, 31337, 55555, 424242, 8675309, 1 << 40,
		11, 13, 31, 47, 1415, 2021, 4096, 271828,
		17, 23, 61, 101, 733, 3141, 16384, 650000}
	extra := 1000
	if testing.Short() {
		extra = 150
	}
	rng := rand.New(rand.NewSource(2022))
	for i := 0; i < extra; i++ {
		seeds = append(seeds, rng.Int63())
	}
	tests, kept := 0, 0
	for _, seed := range seeds {
		res, err := checkedDependency(t, fuzzInput(t, rand.New(rand.NewSource(seed))))
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		tests += res.Stats.Tests
		kept += res.Stats.Kept
	}
	t.Logf("%d histories, %d solver tests, %d statements kept", len(seeds), tests, kept)
	if tests < 2*len(seeds) {
		t.Errorf("only %d solver tests over %d histories: the grammar tests too little", tests, len(seeds))
	}
}
