// Package progslice implements program slicing for historical what-if
// queries (§7): it determines the statements of a history pair a query
// answer depends on with the dependency test of §9 (Thm. 5), by
// symbolically executing both histories over a single-tuple VC-table
// constrained by the compressed database Φ_D and asking the MILP
// solver, per statement, whether a tuple a modification affects can
// reach it.
package progslice

import (
	"context"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"github.com/mahif/mahif/internal/compile"
	"github.com/mahif/mahif/internal/expr"
	"github.com/mahif/mahif/internal/history"
	"github.com/mahif/mahif/internal/schema"
	"github.com/mahif/mahif/internal/symbolic"
)

// Input is a slicing problem for one relation: an aligned history pair
// containing only tuple-independent statements (updates/deletes; the
// engine strips inserts via the §10 split beforehand), the relation
// schema, and the compressed database constraint.
type Input struct {
	Pair   *history.PaddedPair
	Schema *schema.Schema
	// PhiD is Φ_D over the base variables (symbolic.BaseVar); use
	// expr.True to slice without compression.
	PhiD expr.Expr
	// Compile configures the MILP backend.
	Compile compile.Options
}

// Stats reports slicing effort.
type Stats struct {
	// Tests is the number of solver checks performed.
	Tests int `json:"tests"`
	// SolverNodes, SolverVisits and SolverLPs accumulate the solver's
	// effort across tests (compile.Outcome's Nodes, Visits and LPs, memo
	// hits included): branch & bound nodes, constraint evaluations of
	// interval propagation, and LP solves. SolverVisits also holds the
	// one root pass over the shared prefix (compile.Prefix.Visits) that
	// every test's pass starts from.
	SolverNodes  int `json:"solver_nodes"`
	SolverVisits int `json:"-"`
	SolverLPs    int `json:"-"`
	// Fallbacks counts tests whose shared prefix had run out of
	// propagation budget, so each propagated every row itself.
	Fallbacks int `json:"-"`
	// Indefinite counts tests that hit a solver budget (treated as
	// "keep").
	Indefinite int `json:"indefinite"`
	// Lowered counts the expression nodes lowered into solver models.
	// A dependency run lowers Φ_D ∧ affected once and each test only
	// its own conjuncts (see compile.Prefix), so this grows with the
	// formulas' distinct parts, not with tests × formula size; tests the
	// solver memo answered lower nothing.
	Lowered int `json:"-"`
	// Duration is wall-clock time spent slicing.
	Duration time.Duration `json:"duration_ns"`
	// Kept and Removed count statement positions.
	Kept    int `json:"kept"`
	Removed int `json:"removed"`
}

// Result is the outcome of slicing: the positions (into Pair) to keep.
type Result struct {
	Keep  []int
	Stats Stats
}

// validate rejects inputs the symbolic machinery cannot handle.
func (in *Input) validate() error {
	if len(in.Pair.Orig) != len(in.Pair.Mod) {
		return fmt.Errorf("progslice: unaligned history pair (%d vs %d)", len(in.Pair.Orig), len(in.Pair.Mod))
	}
	for i := range in.Pair.Orig {
		for _, st := range []history.Statement{in.Pair.Orig[i], in.Pair.Mod[i]} {
			switch st.(type) {
			case *history.Update, *history.Delete:
			default:
				return fmt.Errorf("progslice: statement %d (%s) is not an update/delete; strip inserts first", i+1, st)
			}
		}
	}
	if in.PhiD == nil {
		in.PhiD = expr.True
	}
	return nil
}

func noop(s history.Statement) bool { return s.IsNoOp() }

// DependencyCtx runs the §9 dependency test: statement u_i is kept iff
// some possible world contains a tuple affected both by a modified
// statement (original or replacement condition, Def. 7) and by u_i. The
// check is one satisfiability query per statement over the symbolic
// execution of the two full histories, so its cost is independent of
// the database size and linear in the history length.
//
// Thm. 5 states the soundness for a single modification; the same
// argument extends to modification sequences: a tuple unaffected by
// every modified pair evolves identically in both histories, and an
// affected tuple never satisfies an independent statement's condition
// along either chain, so excluding independent statements preserves the
// delta. The disjunction over all modified positions in `affected`
// implements exactly that.
//
// Cancellation of ctx is observed between per-statement tests and at
// every solver node inside each one. The tests are independent given
// the run's shared prefix, and they are
// solved on min(GOMAXPROCS, tests) workers; the keep set, the Stats
// counts and the error returned are those of solving them in order.
func DependencyCtx(ctx context.Context, in *Input) (*Result, error) {
	if err := in.validate(); err != nil {
		return nil, err
	}
	start := time.Now()
	st := Stats{}

	base := symbolic.NewBaseState(in.Schema)
	orig, err := symbolic.ExecCtx(ctx, base, in.Pair.Orig, "h")
	if err != nil {
		return nil, err
	}
	mod, err := symbolic.ExecCtx(ctx, base, in.Pair.Mod, "m")
	if err != nil {
		return nil, err
	}
	kinds := symbolic.MergeKinds(orig, mod)
	defs := newGlobalDefs(orig, mod)
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	modified := map[int]bool{}
	// modCond: a tuple is affected by some modified statement pair when
	// it satisfies the original condition in H or the new condition in
	// H[M], each over the symbolic state before that position.
	var modConds []expr.Expr
	for _, p := range in.Pair.ModifiedPos {
		modified[p] = true
		modConds = append(modConds,
			expr.AndOf(orig.Steps[p].LocalBefore, orig.Steps[p].Theta),
			expr.AndOf(mod.Steps[p].LocalBefore, mod.Steps[p].Theta),
		)
	}
	affected := expr.OrOf(modConds...)

	// Every test shares Φ_D ∧ affected: it is simplified, hashed, lowered
	// and reached through the definitions once per run, and each test
	// adds only touched_i and the definitions touched_i reaches beyond it.
	shared := expr.AndOf(in.PhiD, affected)
	prefix := compile.NewPrefix(shared, kinds, in.Compile)
	sharedReach := defs.reach(nil, shared)
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	// The tests are built here, in position order; runTests solves them.
	n := len(in.Pair.Orig)
	var keepPos []int
	var tests []depTest
	for i := 0; i < n; i++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if modified[i] {
			keepPos = append(keepPos, i)
			continue
		}
		if noop(in.Pair.Orig[i]) && noop(in.Pair.Mod[i]) {
			continue
		}
		// Dependent iff a world lets a tuple reach u_i (alive) matching
		// its condition in either history while also being affected by a
		// modified statement: Φ_D ∧ affected ∧ touched ∧ globals.
		touched := expr.OrOf(
			expr.AndOf(orig.Steps[i].LocalBefore, orig.Steps[i].Theta),
			expr.AndOf(mod.Steps[i].LocalBefore, mod.Steps[i].Theta),
		)
		globals := defs.conjuncts(defs.reach(sharedReach, touched))
		tests = append(tests, depTest{pos: i, conj: append([]expr.Expr{touched}, globals...)})
	}
	if err := runTests(ctx, prefix, tests); err != nil {
		return nil, err
	}
	for _, t := range tests {
		out := t.out
		st.Tests++
		st.SolverNodes += out.Nodes
		st.SolverVisits += out.Visits
		st.SolverLPs += out.LPs
		if out.Fallback {
			st.Fallbacks++
		}
		if !out.Definitive {
			st.Indefinite++
		}
		if out.Sat || !out.Definitive {
			keepPos = append(keepPos, t.pos)
		}
	}
	slices.Sort(keepPos)

	st.Lowered = prefix.Lowered()
	st.SolverVisits += prefix.Visits()
	st.Kept = len(keepPos)
	st.Removed = n - st.Kept
	st.Duration = time.Since(start)
	return &Result{Keep: keepPos, Stats: st}, nil
}

// depTest is one statement's dependency check: its position, its own
// conjuncts beyond the shared prefix, and the solver's outcome.
type depTest struct {
	pos  int
	conj []expr.Expr
	out  *compile.Outcome
}

// runTests solves every test on prefix over min(GOMAXPROCS, tests)
// workers, filling each test's outcome. Workers take tests in order and
// stop taking new ones once one has failed, and the failure of the
// earliest failing test is returned: every test before it has run, so
// that is the error a sequential run returns (ctx.Err() when the run
// was cancelled).
func runTests(ctx context.Context, prefix *compile.Prefix, tests []depTest) error {
	errs := make([]error, len(tests))
	var next atomic.Int64
	var failed atomic.Bool
	work := func() {
		for !failed.Load() {
			i := int(next.Add(1)) - 1
			if i >= len(tests) {
				return
			}
			if err := ctx.Err(); err != nil {
				errs[i] = err
			} else {
				tests[i].out, errs[i] = prefix.SatisfiableCtx(ctx, tests[i].conj...)
			}
			if errs[i] != nil {
				failed.Store(true)
			}
		}
	}
	workers := min(runtime.GOMAXPROCS(0), len(tests))
	var wg sync.WaitGroup
	for w := 1; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			work()
		}()
	}
	work()
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
