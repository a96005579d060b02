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
	Tests int
	// SolverNodes accumulates branch & bound nodes across tests.
	SolverNodes int
	// Indefinite counts tests that hit a solver budget (treated as
	// "keep").
	Indefinite int
	// Lowered counts the expression nodes lowered into solver models.
	// A dependency run lowers Φ_D ∧ affected once and each test only
	// its own conjuncts (see compile.Prefix), so this grows with the
	// formulas' distinct parts, not with tests × formula size; tests the
	// solver memo answered lower nothing.
	Lowered int
	// Duration is wall-clock time spent slicing.
	Duration time.Duration
	// Kept and Removed count statement positions.
	Kept, Removed int
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

// Dependency runs the §9 dependency test: statement u_i is kept iff
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
func Dependency(in *Input) (*Result, error) {
	return DependencyCtx(context.Background(), in)
}

// DependencyCtx is Dependency under a context: cancellation is observed
// between per-statement tests and at every solver node inside each one.
func DependencyCtx(ctx context.Context, in *Input) (*Result, error) {
	if err := in.validate(); err != nil {
		return nil, err
	}
	start := time.Now()
	st := Stats{}

	base := symbolic.NewBaseState(in.Schema)
	orig, err := symbolic.Exec(base, in.Pair.Orig, "h")
	if err != nil {
		return nil, err
	}
	mod, err := symbolic.Exec(base, in.Pair.Mod, "m")
	if err != nil {
		return nil, err
	}
	kinds := symbolic.MergeKinds(orig, mod)
	defs := newGlobalDefs(orig, mod)

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

	n := len(in.Pair.Orig)
	var keepPos []int
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
		out, err := prefix.SatisfiableCtx(ctx, append([]expr.Expr{touched}, globals...)...)
		if err != nil {
			return nil, err
		}
		st.Tests++
		st.SolverNodes += out.Nodes
		if !out.Definitive {
			st.Indefinite++
		}
		if out.Sat || !out.Definitive {
			keepPos = append(keepPos, i)
		}
	}

	st.Lowered = prefix.Lowered()
	st.Kept = len(keepPos)
	st.Removed = n - st.Kept
	st.Duration = time.Since(start)
	return &Result{Keep: keepPos, Stats: st}, nil
}
