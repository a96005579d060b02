// Package howto answers historical how-to queries: the inverse of a
// what-if. A what-if fixes the hypothetical change and asks for its
// effect; a how-to fixes the desired effect — a condition over an
// aggregate delta, "regional revenue down by at most 500" — and
// searches a parameterized scenario's binding space for the
// minimal-magnitude parameter values that achieve it.
//
// The search compiles the scenario once (core.Template), probes the
// aggregate delta's response to each parameter, and then:
//
//   - when the response is linear in the parameters (the common case
//     for SET col = col + $p style scenarios over SUM/COUNT targets),
//     solves one small MILP — minimize Σ|xᵢ| subject to the linearized
//     target condition and the search bounds — via the same solver that
//     backs program slicing;
//   - otherwise falls back to a bounded grid sweep over the template's
//     batch evaluator, refined by bisection toward the smallest
//     satisfying magnitude (single-parameter scenarios only; non-linear
//     multi-slot search is out of scope).
//
// Every answer carries a differential certificate: the claimed delta is
// reproduced with a fresh WhatIf over the substituted modifications —
// bypassing the template machinery that produced the candidate — and
// the answer is certified only if the reproduction matches exactly and
// the target condition holds on it.
package howto

import (
	"context"
	"fmt"
	"math"
	"sort"

	"github.com/mahif/mahif/internal/compile"
	"github.com/mahif/mahif/internal/core"
	"github.com/mahif/mahif/internal/history"
	"github.com/mahif/mahif/internal/milp"
	"github.com/mahif/mahif/internal/schema"
	"github.com/mahif/mahif/internal/sql"
	"github.com/mahif/mahif/internal/types"
)

// Target is the desired effect: a condition over one cell of an
// aggregate delta report.
type Target struct {
	// Query is the aggregate SQL (GROUP BY or a global aggregate).
	Query string `json:"query"`
	// Group selects the row by its grouping-column values; empty
	// selects the global aggregate's single row.
	Group []types.Value `json:"group,omitempty"`
	// Column names the aggregate output column whose delta is
	// constrained.
	Column string `json:"column"`
	// Op is the condition relation: "<=", ">=", or "==".
	Op string `json:"op"`
	// Value is the right-hand side of the condition.
	Value float64 `json:"value"`
}

// Range bounds one parameter's search interval.
type Range struct {
	Lo float64 `json:"lo"`
	Hi float64 `json:"hi"`
}

// Options tunes a search.
type Options struct {
	// Bounds gives each parameter's search interval (default ±1e6).
	Bounds map[string]Range
	// Engine selects the evaluation options (default DefaultOptions).
	Engine *core.Options
}

const (
	defaultBound = 1e6
	// tolerance is the linearity-verification and "==" slack, relative
	// to the magnitude of the delta.
	tolerance = 1e-6
	// gridPoints is the fallback sweep's resolution.
	gridPoints = 33
	// maxBisection caps the fallback's refinement steps.
	maxBisection = 24
	// resolution is the answer quantum: bisection stops once it has
	// localized the predicate boundary this tightly, and the answer is
	// snapped outward to this grid. It is the slicing compiler's
	// strict-inequality epsilon — answers closer than that to a
	// threshold sit in the encoding's blind zone, where program slicing
	// may judge the boundary differently than direct evaluation and the
	// certificate would fail.
	resolution = compile.Eps
)

func (o Options) withDefaults() Options {
	if o.Engine == nil {
		eng := core.DefaultOptions()
		o.Engine = &eng
	}
	return o
}

// Certificate is the differential proof attached to every answer: the
// claimed delta cell, its reproduction by a fresh what-if over the
// substituted modifications, and whether they match.
type Certificate struct {
	// Certified is true iff the fresh reproduction equals the claimed
	// delta exactly and the target condition holds on it.
	Certified bool `json:"certified"`
	// Claimed is the delta cell the search observed at the answer
	// binding; Reproduced is the fresh what-if's value for it.
	Claimed    types.Value `json:"claimed"`
	Reproduced types.Value `json:"reproduced"`
	// Holds reports the target condition on the reproduced value.
	Holds bool `json:"holds"`
}

// Result is one answered how-to query.
type Result struct {
	// Binding is the minimal-magnitude satisfying parameter assignment.
	Binding map[string]types.Value `json:"binding"`
	// Delta is the target cell's achieved value at the binding.
	Delta types.Value `json:"delta"`
	// Magnitude is Σ|xᵢ| over the binding, the quantity minimized.
	Magnitude float64 `json:"magnitude"`
	// Method is "milp" (linear response, solved exactly) or "grid"
	// (bounded sweep + bisection).
	Method string `json:"method"`
	// Evals counts template evaluations spent searching.
	Evals int `json:"evals"`
	// Certificate is the differential proof (see Certificate).
	Certificate Certificate `json:"certificate"`
}

// searcher carries one search's compiled state.
type searcher struct {
	e      *core.Engine
	tpl    *core.Template
	target Target
	query  core.AggregateQuery
	groups schema.Tuple
	opts   Options
	names  []string // sorted parameter names
	lo, hi []float64
	evals  int
}

// Search answers a how-to query: find the minimal-magnitude binding of
// mods' $parameters whose aggregate delta satisfies target, certified
// by a fresh what-if. All parameters must be numeric.
func Search(ctx context.Context, e *core.Engine, mods []history.Modification, target Target, opts Options) (*Result, error) {
	opts = opts.withDefaults()
	switch target.Op {
	case "<=", ">=", "==":
	default:
		return nil, fmt.Errorf("howto: unsupported op %q (want <=, >=, ==)", target.Op)
	}
	q, err := sql.ParseQuery(target.Query)
	if err != nil {
		return nil, fmt.Errorf("howto: target query: %w", err)
	}
	aq, err := core.NewAggregateQuery(target.Query, q)
	if err != nil {
		return nil, err
	}
	tpl, err := e.CompileTemplateCtx(ctx, mods, *opts.Engine)
	if err != nil {
		return nil, err
	}
	params := tpl.Params()
	if len(params) == 0 {
		return nil, fmt.Errorf("howto: scenario has no $parameters to search over")
	}
	s := &searcher{e: e, tpl: tpl, target: target, query: aq, groups: schema.Tuple(target.Group), opts: opts}
	for name, class := range params {
		if class != "numeric" && class != "any" {
			return nil, fmt.Errorf("howto: parameter $%s is %s; only numeric parameters are searchable", name, class)
		}
		s.names = append(s.names, name)
	}
	sort.Strings(s.names)
	for _, name := range s.names {
		r, ok := opts.Bounds[name]
		if !ok {
			r = Range{Lo: -defaultBound, Hi: defaultBound}
		}
		if !(r.Lo < r.Hi) || math.IsNaN(r.Lo) || math.IsInf(r.Lo, 0) || math.IsNaN(r.Hi) || math.IsInf(r.Hi, 0) {
			return nil, fmt.Errorf("howto: bad bounds [%v, %v] for $%s", r.Lo, r.Hi, name)
		}
		s.lo = append(s.lo, r.Lo)
		s.hi = append(s.hi, r.Hi)
	}
	return s.run(ctx)
}

// binding materializes a candidate point as engine values.
func (s *searcher) binding(x []float64) map[string]types.Value {
	b := make(map[string]types.Value, len(s.names))
	for i, name := range s.names {
		b[name] = types.Float(x[i])
	}
	return b
}

// cell extracts the target delta cell from a report set; defined=false
// when the target group is absent from one world (its delta is NULL).
func (s *searcher) cell(reps []core.AggregateReport) (float64, bool, error) {
	if len(reps) != 1 {
		return 0, false, fmt.Errorf("howto: expected 1 report, got %d", len(reps))
	}
	rep := reps[0]
	col := -1
	for j, name := range rep.AggColumns {
		if name == s.target.Column {
			col = j
			break
		}
	}
	if col < 0 {
		return 0, false, fmt.Errorf("howto: target column %q not in aggregate outputs %v", s.target.Column, rep.AggColumns)
	}
	if len(rep.GroupColumns) != len(s.groups) {
		return 0, false, fmt.Errorf("howto: target group has %d values, query groups by %d columns", len(s.groups), len(rep.GroupColumns))
	}
	for _, row := range rep.Rows {
		if !row.Group.Equal(s.groups) {
			continue
		}
		v := row.Delta[col]
		if v.IsNull() || !v.IsNumeric() {
			return 0, false, nil
		}
		return v.AsFloat(), true, nil
	}
	return 0, false, nil // group absent in both worlds at this binding
}

// measure evaluates the template at x and reads the target cell.
func (s *searcher) measure(ctx context.Context, x []float64) (float64, bool, error) {
	s.evals++
	_, reps, err := s.tpl.EvalAggregatesCtx(ctx, s.binding(x), []core.AggregateQuery{s.query})
	if err != nil {
		return 0, false, err
	}
	return s.cell(reps)
}

// holds tests the target condition on a delta value.
func (s *searcher) holds(f float64) bool {
	switch s.target.Op {
	case "<=":
		return f <= s.target.Value
	case ">=":
		return f >= s.target.Value
	default: // ==
		return math.Abs(f-s.target.Value) <= tolerance*math.Max(1, math.Abs(s.target.Value))
	}
}

func magnitude(x []float64) float64 {
	m := 0.0
	for _, v := range x {
		m += math.Abs(v)
	}
	return m
}

// run drives probe → MILP → grid fallback → certificate.
func (s *searcher) run(ctx context.Context) (*Result, error) {
	if x, ok, err := s.solveLinear(ctx); err != nil {
		return nil, err
	} else if ok {
		return s.finish(ctx, x, "milp")
	}
	x, err := s.solveGrid(ctx)
	if err != nil {
		return nil, err
	}
	return s.finish(ctx, x, "grid")
}

// solveLinear probes the delta's response at the box midpoint, fits a
// linear model, verifies it at the box corners, and minimizes Σ|xᵢ|
// under the linearized condition. ok=false (without error) means the
// response is not linear — or not even defined — over the box, and the
// caller should fall back.
func (s *searcher) solveLinear(ctx context.Context) ([]float64, bool, error) {
	n := len(s.names)
	x0 := make([]float64, n)
	for i := range x0 {
		x0[i] = (s.lo[i] + s.hi[i]) / 2
	}
	f0, def, err := s.measure(ctx, x0)
	if err != nil || !def {
		return nil, false, err
	}
	coef := make([]float64, n)
	for i := range coef {
		h := (s.hi[i] - s.lo[i]) / 4
		xp := append([]float64(nil), x0...)
		xp[i] += h
		fi, def, err := s.measure(ctx, xp)
		if err != nil || !def {
			return nil, false, err
		}
		coef[i] = (fi - f0) / h
	}
	// Verify the fit where it is worst for a linear model: the corners.
	for _, corner := range [][]float64{s.lo, s.hi} {
		pred := f0
		for i := range corner {
			pred += coef[i] * (corner[i] - x0[i])
		}
		got, def, err := s.measure(ctx, corner)
		if err != nil {
			return nil, false, err
		}
		if !def || math.Abs(got-pred) > tolerance*math.Max(1, math.Abs(got)) {
			return nil, false, nil
		}
	}

	// Minimize Σ(xpᵢ+xnᵢ) with xᵢ = xpᵢ − xnᵢ subject to
	// Σ coefᵢ·xᵢ ∘ rhs and the box bounds.
	m := milp.NewModel()
	var terms []milp.Term
	obj := make([]float64, 0, 2*n)
	for i := range coef {
		xp, err := m.AddVar(0, math.Max(0, s.hi[i]), false)
		if err != nil {
			return nil, false, err
		}
		xn, err := m.AddVar(0, math.Max(0, -s.lo[i]), false)
		if err != nil {
			return nil, false, err
		}
		terms = append(terms, milp.Term{Var: xp, Coef: coef[i]}, milp.Term{Var: xn, Coef: -coef[i]})
		obj = append(obj, 1, 1)
		// Keep xᵢ inside its box even when the split allows excursions.
		box := []milp.Term{{Var: xp, Coef: 1}, {Var: xn, Coef: -1}}
		if err := m.AddConstraint(box, milp.GE, s.lo[i]); err != nil {
			return nil, false, err
		}
		if err := m.AddConstraint(box, milp.LE, s.hi[i]); err != nil {
			return nil, false, err
		}
	}
	rhs := s.target.Value - f0
	for i := range coef {
		rhs += coef[i] * x0[i]
	}
	var sense milp.Sense
	switch s.target.Op {
	case "<=":
		sense = milp.LE
	case ">=":
		sense = milp.GE
	default:
		sense = milp.EQ
	}
	if err := m.AddConstraint(terms, sense, rhs); err != nil {
		return nil, false, err
	}
	res, err := m.Optimize(obj, 5000)
	if err != nil {
		return nil, false, err
	}
	if res.Status != milp.Feasible {
		// The linear model says no binding in the box satisfies the
		// target; the grid fallback gets the final word.
		return nil, false, nil
	}
	x := make([]float64, n)
	for i := range x {
		x[i] = clamp(res.X[2*i]-res.X[2*i+1], s.lo[i], s.hi[i])
		// Snap near-integers: workloads are integer-heavy and the exact
		// answer is usually integral.
		if r := math.Round(x[i]); math.Abs(x[i]-r) < 1e-9 {
			x[i] = r
		}
	}
	// The model is linear to tolerance, not exactly; accept only if the
	// real evaluation confirms the condition.
	got, def, err := s.measure(ctx, x)
	if err != nil {
		return nil, false, err
	}
	if !def || !s.holds(got) {
		return nil, false, nil
	}
	return x, true, nil
}

func clamp(v, lo, hi float64) float64 { return math.Min(hi, math.Max(lo, v)) }

// solveGrid is the non-linear fallback: sweep a bounded grid through
// the template's batch evaluator, keep the smallest-magnitude
// satisfying point, and bisect toward the predicate boundary. Only
// single-parameter scenarios are supported.
func (s *searcher) solveGrid(ctx context.Context) ([]float64, error) {
	if len(s.names) != 1 {
		return nil, fmt.Errorf("howto: non-linear search over %d parameters is not supported (single $slot only)", len(s.names))
	}
	lo, hi := s.lo[0], s.hi[0]
	n := gridPoints
	pts := make([]float64, n)
	bindings := make([]map[string]types.Value, n)
	for i := range pts {
		pts[i] = lo + (hi-lo)*float64(i)/float64(n-1)
		bindings[i] = s.binding([]float64{pts[i]})
	}
	results, err := s.tpl.EvalAggregatesBatchCtx(ctx, bindings, []core.AggregateQuery{s.query}, 0)
	if err != nil {
		return nil, err
	}
	s.evals += n
	sat := make([]bool, n)
	best := -1
	for i, r := range results {
		if r.Err != nil {
			return nil, fmt.Errorf("howto: grid point %v: %w", pts[i], r.Err)
		}
		f, def, err := s.cell(r.Aggregates)
		if err != nil {
			return nil, err
		}
		sat[i] = def && s.holds(f)
		if sat[i] && (best < 0 || math.Abs(pts[i]) < math.Abs(pts[best])) {
			best = i
		}
	}
	if best < 0 {
		return nil, fmt.Errorf("howto: no satisfying binding in [%v, %v] (%d grid points)", lo, hi, n)
	}
	// Bisect between the best satisfying point and its unsatisfying
	// neighbor on the zero-ward side, shrinking the magnitude while the
	// condition keeps holding.
	good := pts[best]
	var bad float64
	switch {
	case best > 0 && !sat[best-1] && math.Abs(pts[best-1]) < math.Abs(good):
		bad = pts[best-1]
	case best < n-1 && !sat[best+1] && math.Abs(pts[best+1]) < math.Abs(good):
		bad = pts[best+1]
	default:
		return []float64{good}, nil // neighbors satisfy too (or none is zero-ward): grid already minimal
	}
	for i := 0; i < maxBisection && math.Abs(good-bad) > resolution; i++ {
		mid := (good + bad) / 2
		f, def, err := s.measure(ctx, []float64{mid})
		if err != nil {
			return nil, err
		}
		if def && s.holds(f) {
			good = mid
		} else {
			bad = mid
		}
	}
	// Snap outward (away from zero, deeper into the satisfying side) to
	// the resolution grid, so the answer keeps a full quantum of margin
	// from the predicate boundary; keep the raw point if snapping
	// somehow left the satisfying region.
	if snapped := snapOut(good, resolution); snapped != good {
		f, def, err := s.measure(ctx, []float64{snapped})
		if err != nil {
			return nil, err
		}
		if def && s.holds(f) {
			good = snapped
		}
	}
	return []float64{good}, nil
}

// snapOut rounds v away from zero to the next multiple of quantum.
func snapOut(v, quantum float64) float64 {
	if quantum <= 0 || v == 0 {
		return v
	}
	n := math.Ceil(math.Abs(v)/quantum - 1e-9)
	return math.Copysign(n*quantum, v)
}

// finish re-measures the answer, certifies it with a fresh what-if
// over the substituted modifications, and assembles the result.
func (s *searcher) finish(ctx context.Context, x []float64, method string) (*Result, error) {
	binding := s.binding(x)
	claimedF, def, err := s.measure(ctx, x)
	if err != nil {
		return nil, err
	}
	if !def {
		return nil, fmt.Errorf("howto: answer binding lost the target group")
	}
	claimed := types.Float(claimedF)

	// The certificate bypasses the template: fresh alignment, fresh
	// reenactment, fresh aggregation over the substituted constants.
	_, reps, _, err := s.e.WhatIfAggregatesCtx(ctx, s.tpl.SubstitutedMods(binding), []core.AggregateQuery{s.query}, *s.opts.Engine)
	if err != nil {
		return nil, fmt.Errorf("howto: certificate what-if: %w", err)
	}
	cert := Certificate{Claimed: claimed, Reproduced: types.Null()}
	if f, def, err := s.cell(reps); err != nil {
		return nil, fmt.Errorf("howto: certificate: %w", err)
	} else if def {
		cert.Reproduced = types.Float(f)
		cert.Holds = s.holds(f)
		if c, err := claimed.Compare(cert.Reproduced); err == nil && c == 0 {
			cert.Certified = cert.Holds
		}
	}
	return &Result{
		Binding:     binding,
		Delta:       claimed,
		Magnitude:   magnitude(x),
		Method:      method,
		Evals:       s.evals,
		Certificate: cert,
	}, nil
}
