package progslice

import (
	"context"
	"fmt"
	"strings"

	"github.com/mahif/mahif/internal/compile"
	"github.com/mahif/mahif/internal/expr"
	"github.com/mahif/mahif/internal/history"
	"github.com/mahif/mahif/internal/schema"
	"github.com/mahif/mahif/internal/symbolic"
)

// EquivalenceResult is the outcome of a history equivalence proof.
type EquivalenceResult struct {
	// Equivalent is the verdict; meaningful only when Definitive.
	Equivalent bool
	// Definitive is false when a solver budget was exhausted.
	Definitive bool
	// Counterexample, when not Equivalent, assigns the base attributes
	// of a tuple the two histories treat differently (values are from
	// the solver's real relaxation and may be fractional).
	Counterexample map[string]string
}

// ProveEquivalent checks whether two histories of tuple-independent
// updates/deletes over one relation produce the same result for every
// database admitted by phiD (use expr.True for all databases). This is
// the novel application of the symbolic evaluation technique the paper
// proposes as future work (§14): both histories are executed over a
// shared single-tuple VC-table and the solver searches for a world
// where the results differ — unsatisfiability proves equivalence for
// every tuple-independent input.
//
// Like program slicing, the verdict errs conservatively: budget
// overruns or unsupported constructs report "not proven" rather than a
// wrong "equivalent".
func ProveEquivalent(h1, h2 history.History, s *schema.Schema, phiD expr.Expr, opts compile.Options) (*EquivalenceResult, error) {
	return ProveEquivalentCtx(context.Background(), h1, h2, s, phiD, opts)
}

// ProveEquivalentCtx is ProveEquivalent under a context: the solver
// search observes cancellation at every branch & bound node and the
// call returns ctx.Err() promptly.
func ProveEquivalentCtx(ctx context.Context, h1, h2 history.History, s *schema.Schema, phiD expr.Expr, opts compile.Options) (*EquivalenceResult, error) {
	for i, h := range []history.History{h1, h2} {
		for _, st := range h {
			switch st.(type) {
			case *history.Update, *history.Delete:
			default:
				return nil, fmt.Errorf("progslice: history %d contains %T; equivalence proving supports updates and deletes", i+1, st)
			}
			if !strings.EqualFold(st.Table(), s.Relation) {
				return nil, fmt.Errorf("progslice: statement %q targets %s, not %s", st, st.Table(), s.Relation)
			}
		}
	}
	if phiD == nil {
		phiD = expr.True
	}

	base := symbolic.NewBaseState(s)
	a, err := symbolic.Exec(base, h1, "l")
	if err != nil {
		return nil, err
	}
	b, err := symbolic.Exec(base, h2, "r")
	if err != nil {
		return nil, err
	}

	// A world distinguishes the histories iff the single-tuple results
	// differ (Eq. 19 negated).
	same := symbolic.SameResult(a, b)
	core := expr.AndOf(phiD, expr.Negation(same))
	globals := newGlobalDefs(a, b).prune(core)
	formula := expr.AndOf(append([]expr.Expr{core}, globals...)...)

	out, err := compile.SatisfiableCtx(ctx, formula, symbolic.MergeKinds(a, b), opts)
	if err != nil {
		return nil, err
	}
	res := &EquivalenceResult{Definitive: out.Definitive}
	if !out.Definitive {
		return res, nil
	}
	res.Equivalent = !out.Sat
	if out.Sat {
		res.Counterexample = map[string]string{}
		for _, c := range s.Columns {
			name := symbolic.BaseVar(c.Name)
			if v, ok := out.Model[name]; ok {
				res.Counterexample[strings.ToLower(c.Name)] = v.String()
			}
		}
	}
	return res, nil
}
