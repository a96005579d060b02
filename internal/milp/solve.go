package milp

import (
	"context"
	"math"
)

// SolveOptions bounds the branch & bound search.
type SolveOptions struct {
	// MaxNodes caps explored branch & bound nodes (default 20000).
	MaxNodes int
	// MaxIter caps simplex iterations per LP (default 5000).
	MaxIter int
}

// propagationRounds caps bound-tightening sweeps per node.
const propagationRounds = 64

func (o SolveOptions) withDefaults() SolveOptions {
	if o.MaxNodes == 0 {
		o.MaxNodes = 20000
	}
	if o.MaxIter == 0 {
		o.MaxIter = 5000
	}
	return o
}

// SolveCtx decides feasibility of the MILP by depth-first branch &
// bound over the integer variables, with feasibility-based bound
// tightening (interval constraint propagation) at every node. Big-M
// indicator encodings — the shape produced by the condition compiler —
// are resolved almost entirely by propagation, so the LP and branching
// only handle the residual continuous reasoning. The result is exact
// (Feasible with a witness, or Infeasible) unless a budget runs out, in
// which case Status is Limit and callers must fall back conservatively.
//
// Cancellation or deadline expiry is checked at every branch & bound
// node, so a cancelled solve stops within one node's work (one
// propagation sweep or LP). A cancelled search reports Status
// Canceled; callers surface ctx.Err().
//
// A fork (see Fork) starts its root pass from its base's root fixpoint
// and adds its own rows only: a row of the base is evaluated again only
// when a bound it reads moved. A root pass adds rows one at a time (see
// propagate), so the pass over the whole model stands at that very box,
// having made the base's visits, when it has added the base's rows: the
// fork's pass goes on as that pass does, and the search, witness
// included, is the one a model built whole gets. A base proven
// infeasible answers Infeasible at the first node, as that pass would;
// a base whose pass ran out of budget has no fixpoint to start from,
// and the fork propagates every row (Result.Fallback).
func (m *Model) SolveCtx(ctx context.Context, opts SolveOptions) *Result {
	opts = opts.withDefaults()
	res := &Result{}
	var status Status
	var x []float64
	switch b := m.base; {
	case b != nil && b.infeasible:
		status = enter(ctx, opts, res)
		if status == Feasible {
			status = Infeasible
		}
	case b != nil && !b.exhausted:
		lo := append(append(make([]float64, 0, len(m.lo)), b.lo...), m.lo[len(b.lo):]...)
		hi := append(append(make([]float64, 0, len(m.hi)), b.hi...), m.hi[len(b.hi):]...)
		status, x = m.branchCtx(ctx, lo, hi, len(b.cons), -1, m.propVisits()-b.visits, opts, res)
	default:
		res.Fallback = b != nil
		lo := append([]float64(nil), m.lo...)
		hi := append([]float64(nil), m.hi...)
		status, x = m.branchCtx(ctx, lo, hi, 0, -1, m.propVisits(), opts, res)
	}
	res.Status = status
	res.X = x
	return res
}

// propVisits converts the rounds cap into a worklist budget.
func (m *Model) propVisits() int {
	return propagationRounds * (m.NumConstraints() + 1)
}

const propTol = 1e-7

// checkEps is the exact-verification tolerance for accepting integral
// points (see the big-M note in branch).
const checkEps = 1e-5

// propagate tightens lo/hi in place by interval propagation. seed < 0
// is a root pass: it adds the constraints from index first on one at a
// time, in index order, and propagates each to fixpoint over the
// constraints added so far before it adds the next; those below first
// are taken to be at their fixpoint in lo/hi already (a fork's base,
// see SolveCtx). seed ≥ 0 starts from the constraints containing that
// just-branched variable, all constraints added. Either way the
// worklist follows the dependency cone, which keeps interior branch &
// bound nodes proportional to the affected part of the model.
//
// A bound that would move by less than propTol stays where it is, so
// where a pass stops depends on the order it visits rows in. Adding
// rows one at a time makes that order prefix-closed: the pass over a
// model stands, after its first k rows, where the pass over those k
// rows alone stops, so a fork starting from its base's box goes on
// exactly as the pass over the whole model does.
//
// It returns feasible = false when some constraint is proven
// unsatisfiable over the box, the constraint evaluations it made, and
// whether it reached a fixpoint within budget evaluations (a safety
// net).
func (m *Model) propagate(lo, hi []float64, first, seed, budget int) (feasible bool, visits int, fixpoint bool) {
	var below [][]int
	if m.base != nil {
		below = m.base.occurs
	}
	occ := m.occurrences()
	n := m.NumConstraints()
	queue := make([]int, 0, 64)
	inQueue := make([]bool, n)
	// added is the number of constraints the pass propagates over.
	added := n
	push := func(ci int) {
		if !inQueue[ci] {
			inQueue[ci] = true
			queue = append(queue, ci)
		}
	}
	// pushOccurrences pushes the added constraints containing v; both
	// lists ascend, the base's below the model's own.
	pushOccurrences := func(v int) {
		if v < len(below) {
			for _, ci := range below[v] {
				if ci >= added {
					break
				}
				push(ci)
			}
		}
		for _, ci := range occ[v] {
			if ci >= added {
				break
			}
			push(ci)
		}
	}
	next := n
	if seed < 0 {
		added, next = first, first
	} else {
		pushOccurrences(seed)
	}
	changedVars := make([]int, 0, 16)
	// queue[head:] is the worklist; it restarts at the front of its
	// array once drained, so adding rows one at a time allocates nothing.
	head := 0
	for visits < budget {
		if head == len(queue) {
			if next == n {
				return true, visits, true
			}
			queue, head = queue[:0], 0
			added = next + 1
			push(next)
			next++
		}
		ci := queue[head]
		head++
		inQueue[ci] = false
		visits++

		con := m.row(ci)
		changedVars = changedVars[:0]
		if con.Sense == LE || con.Sense == EQ {
			if !m.tighten(con.Terms, 1, con.RHS, lo, hi, &changedVars) {
				return false, visits, true
			}
		}
		if con.Sense == GE || con.Sense == EQ {
			// Σ aᵢxᵢ ≥ rhs as Σ (−aᵢ)xᵢ ≤ −rhs.
			if !m.tighten(con.Terms, -1, -con.RHS, lo, hi, &changedVars) {
				return false, visits, true
			}
		}
		for _, v := range changedVars {
			pushOccurrences(v)
		}
	}
	return true, visits, head == len(queue) && next == n
}

// branchWorthy marks the variables that occur in at least one
// constraint that some point of the box still violates. Variables
// outside the set cannot influence feasibility and need no branching.
func (m *Model) branchWorthy(lo, hi []float64) []bool {
	worthy := make([]bool, len(lo))
	for _, run := range m.rows() {
		for ci := range run {
			con := &run[ci]
			minAct, maxAct := 0.0, 0.0
			for _, t := range con.Terms {
				if t.Coef > 0 {
					minAct += t.Coef * lo[t.Var]
					maxAct += t.Coef * hi[t.Var]
				} else {
					minAct += t.Coef * hi[t.Var]
					maxAct += t.Coef * lo[t.Var]
				}
			}
			vacuous := false
			switch con.Sense {
			case LE:
				vacuous = maxAct <= con.RHS+feasEps
			case GE:
				vacuous = minAct >= con.RHS-feasEps
			case EQ:
				vacuous = maxAct <= con.RHS+feasEps && minAct >= con.RHS-feasEps
			}
			if vacuous {
				continue
			}
			for _, t := range con.Terms {
				worthy[t.Var] = true
			}
		}
	}
	return worthy
}

// tighten handles Σ (sign·aᵢ)xᵢ ≤ rhs for sign ±1: it prunes using the
// minimum activity and derives per-variable bound updates, appending
// tightened variables to changed. A coefficient is negated as it is
// read — exactly, so a ≥ row costs no negated copy of its terms and
// runs the very arithmetic one would.
func (m *Model) tighten(terms []Term, sign, rhs float64, lo, hi []float64, changed *[]int) bool {
	minAct := 0.0
	for _, t := range terms {
		if c := sign * t.Coef; c > 0 {
			minAct += c * lo[t.Var]
		} else {
			minAct += c * hi[t.Var]
		}
	}
	if minAct > rhs+feasEps {
		return false
	}
	for _, t := range terms {
		c := sign * t.Coef
		if c == 0 {
			continue
		}
		var contrib float64
		if c > 0 {
			contrib = c * lo[t.Var]
		} else {
			contrib = c * hi[t.Var]
		}
		slack := rhs - (minAct - contrib)
		bound := slack / c
		if c > 0 {
			// x ≤ bound.
			if m.isInt[t.Var] {
				bound = math.Floor(bound + propTol)
			}
			if bound < hi[t.Var]-propTol {
				hi[t.Var] = bound
				*changed = append(*changed, t.Var)
				if lo[t.Var] > hi[t.Var]+feasEps {
					return false
				}
			}
		} else {
			// x ≥ bound.
			if m.isInt[t.Var] {
				bound = math.Ceil(bound - propTol)
			}
			if bound > lo[t.Var]+propTol {
				lo[t.Var] = bound
				*changed = append(*changed, t.Var)
				if lo[t.Var] > hi[t.Var]+feasEps {
					return false
				}
			}
		}
	}
	return true
}

// enter counts a branch & bound node and returns the status that ends
// it before any work — Limit past the node budget, Canceled once ctx is
// done — or Feasible when the node may go on.
func enter(ctx context.Context, opts SolveOptions, res *Result) Status {
	res.Nodes++
	if res.Nodes > opts.MaxNodes {
		return Limit
	}
	if ctx.Err() != nil {
		return Canceled
	}
	return Feasible
}

// branchCtx explores one node. The search is propagation-driven: exact
// interval propagation prunes and fixes variables at every node, and
// the (dense, comparatively expensive) LP runs only at leaves where all
// integer variables are fixed, to certify the residual continuous
// system. Big-M indicator encodings — the shape the condition compiler
// emits — propagate so strongly that interior LPs would rarely prune
// anything propagation does not. lo/hi are owned by the caller and may
// be mutated freely (each recursion copies). first, seed and budget
// are propagate's: the root's pass, or the cone of the branched
// variable.
func (m *Model) branchCtx(ctx context.Context, lo, hi []float64, first, seed, budget int, opts SolveOptions, res *Result) (Status, []float64) {
	if st := enter(ctx, opts, res); st != Feasible {
		return st, nil
	}
	feasible, visits, _ := m.propagate(lo, hi, first, seed, budget)
	res.Visits += visits
	if !feasible {
		return Infeasible, nil
	}

	// Midpoint heuristic: if the box midpoint (integers snapped)
	// already satisfies everything, we are done without an LP.
	cand := make([]float64, len(lo))
	for i := range cand {
		cand[i] = (lo[i] + hi[i]) / 2
		if m.isInt[i] {
			cand[i] = math.Max(lo[i], math.Min(hi[i], math.Round(cand[i])))
		}
	}
	if m.CheckPoint(cand, feasEps) {
		return Feasible, cand
	}

	// Pick the first unfixed integer variable that still matters: a
	// variable all of whose constraints are already vacuous over the
	// box (satisfiable for every point in it) is a don't-care — e.g.
	// the side-selector of a disequality once the equality side is
	// fixed — and branching on it would only duplicate the subtree.
	// Creation order follows the compiled expression structure
	// bottom-up, so comparison indicators — which drive the numeric
	// bounds — branch first.
	worthy := m.branchWorthy(lo, hi)
	pick := -1
	for i := range lo {
		if m.isInt[i] && hi[i]-lo[i] > feasEps && worthy[i] {
			pick = i
			break
		}
	}
	if pick < 0 {
		// Only don't-care integers remain: certify the continuous
		// residual exactly (don't-cares join the LP as continuous and
		// are rounded afterwards — their constraints cannot be violated
		// inside the box).
		res.LPs++
		status, x := lpFeasible(m, lo, hi, opts.MaxIter)
		if status != Feasible {
			return status, nil
		}
		out := append([]float64(nil), x...)
		for i := range out {
			if m.isInt[i] {
				out[i] = math.Max(lo[i], math.Min(hi[i], math.Round(out[i])))
			}
		}
		if m.CheckPoint(out, checkEps) {
			return Feasible, out
		}
		// The LP claims feasibility but the exact check disagrees:
		// numerical failure; answer conservatively.
		return Limit, nil
	}

	// Branch on the two halves of the domain ({0}/{1} for binaries).
	mid := math.Floor((lo[pick] + hi[pick]) / 2)
	type side struct{ lo, hi float64 }
	sides := []side{{lo[pick], mid}, {mid + 1, hi[pick]}}
	sawLimit := false
	for _, s := range sides {
		if s.lo > s.hi {
			continue
		}
		clo := append([]float64(nil), lo...)
		chi := append([]float64(nil), hi...)
		clo[pick], chi[pick] = s.lo, s.hi
		st, pt := m.branchCtx(ctx, clo, chi, 0, pick, m.propVisits(), opts, res)
		switch st {
		case Feasible:
			return Feasible, pt
		case Canceled:
			return Canceled, nil
		case Limit:
			sawLimit = true
		}
	}
	if sawLimit {
		return Limit, nil
	}
	return Infeasible, nil
}
