// Package milp is a small exact mixed-integer linear programming
// solver: a dense tableau simplex (phase 1 feasibility, phase 2
// optimization) with depth-first branch & bound on integer variables.
// It stands in for the CPLEX solver the paper uses (§11) to decide
// satisfiability of compiled slicing conditions. All variables must
// carry finite bounds, which the condition compiler guarantees.
package milp

import (
	"errors"
	"fmt"
	"math"
	"slices"
)

// Sense is the relation of a linear constraint.
type Sense int8

// Constraint senses.
const (
	LE Sense = iota // Σ aᵢxᵢ ≤ rhs
	GE              // Σ aᵢxᵢ ≥ rhs
	EQ              // Σ aᵢxᵢ = rhs
)

// String returns the mathematical spelling of the sense.
func (s Sense) String() string {
	switch s {
	case LE:
		return "<="
	case GE:
		return ">="
	case EQ:
		return "="
	}
	return "?"
}

// Term is one coefficient of a linear expression.
type Term struct {
	Var  int
	Coef float64
}

// Constraint is a linear constraint Σ terms ∘ RHS.
type Constraint struct {
	Terms []Term
	Sense Sense
	RHS   float64
}

// Model is a MILP feasibility/optimization problem.
type Model struct {
	lo, hi []float64 // declared bounds
	isInt  []bool

	// base, on a fork, is the frozen model it was forked from: the
	// model's first len(base.cons) constraints are base.cons, and cons
	// holds only the rows added since (see Fork).
	base *frozen
	cons []Constraint

	// occurs maps variable → indices of the constraints of cons (not of
	// base) containing it; it is built lazily for worklist propagation
	// and invalidated by AddConstraint.
	occurs [][]int

	// frozen is set by Freeze; the model no longer grows from then on.
	frozen *frozen
}

// frozen is a model that no longer grows, propagated once: the rows its
// forks share, their occurrence lists, and the box the root pass of
// interval propagation reaches over those rows alone.
type frozen struct {
	cons   []Constraint
	occurs [][]int // per variable of the frozen model
	// lo, hi is the root fixpoint over cons from the declared bounds.
	lo, hi []float64
	// visits is what that root pass cost in constraint evaluations.
	visits int
	// infeasible: the pass proved cons unsatisfiable within the
	// declared bounds, so every fork is infeasible too.
	infeasible bool
	// exhausted: the pass ran out of its visit budget before reaching a
	// fixpoint, so its box is no fixpoint forks could start from.
	exhausted bool
}

// occurrences returns (building if necessary) the variable→constraints
// adjacency of the model's own rows used by incremental propagation:
// per variable, the constraints of cons mentioning it in ascending
// order, each once however many of its terms name the variable, as
// model-wide indices (a fork's rows come after its base's). All lists
// share one backing array.
func (m *Model) occurrences() [][]int {
	if m.occurs != nil {
		return m.occurs
	}
	off := m.baseRows()
	// last[v] is 1 + the last constraint counted for v, so a variable
	// repeated within one constraint is counted once.
	last := make([]int, len(m.lo))
	count := make([]int, len(m.lo))
	total := 0
	for ci := range m.cons {
		for _, t := range m.cons[ci].Terms {
			if last[t.Var] != ci+1 {
				last[t.Var] = ci + 1
				count[t.Var]++
				total++
			}
		}
	}
	flat := make([]int, total)
	m.occurs = make([][]int, len(m.lo))
	at := 0
	for v, n := range count {
		m.occurs[v] = flat[at : at : at+n]
		at += n
		last[v] = 0
	}
	for ci := range m.cons {
		for _, t := range m.cons[ci].Terms {
			if last[t.Var] != ci+1 {
				last[t.Var] = ci + 1
				m.occurs[t.Var] = append(m.occurs[t.Var], off+ci)
			}
		}
	}
	return m.occurs
}

// NewModel returns an empty model.
func NewModel() *Model { return &Model{} }

// errFrozen is what adding to a frozen model returns.
var errFrozen = errors.New("milp: model is frozen")

// Freeze ends m's growth and runs the root pass of interval propagation
// over its rows once, for its forks to start from (see Fork). It
// returns the constraint evaluations that pass cost, which no fork
// solve counts again; freezing a frozen model does nothing and returns
// 0. m must not be a fork (forks are one level deep), and Freeze must
// not run concurrently with anything else on m.
func (m *Model) Freeze() int {
	if m.base != nil {
		panic("milp: Freeze of a fork")
	}
	if m.frozen != nil {
		return 0
	}
	f := &frozen{cons: m.cons[:len(m.cons):len(m.cons)], occurs: m.occurrences()}
	f.lo = append([]float64(nil), m.lo...)
	f.hi = append([]float64(nil), m.hi...)
	var feasible, fixpoint bool
	feasible, f.visits, fixpoint = m.propagate(f.lo, f.hi, 0, -1, m.propVisits())
	f.infeasible = !feasible
	f.exhausted = feasible && !fixpoint
	m.frozen = f
	return f.visits
}

// Fork returns a model that starts out equal to m and grows on its own:
// what is added to the fork never shows in m or in any other fork. m
// must be frozen (Freeze). The fork points at m's frozen rows and holds
// only what is added to it, and its solve starts from m's root
// propagation fixpoint and propagates from its own rows (see SolveCtx).
// Forks of one frozen model may be built, grown and solved
// concurrently.
func (m *Model) Fork() *Model {
	if m.frozen == nil {
		panic("milp: Fork of a model that is not frozen")
	}
	return &Model{
		lo:    m.lo[:len(m.lo):len(m.lo)],
		hi:    m.hi[:len(m.hi):len(m.hi)],
		isInt: m.isInt[:len(m.isInt):len(m.isInt)],
		base:  m.frozen,
	}
}

// baseRows is the number of constraints m shares with the model it was
// forked from.
func (m *Model) baseRows() int {
	if m.base == nil {
		return 0
	}
	return len(m.base.cons)
}

// row returns constraint ci, counting a fork's base rows first.
func (m *Model) row(ci int) *Constraint {
	nb := m.baseRows()
	if ci < nb {
		return &m.base.cons[ci]
	}
	return &m.cons[ci-nb]
}

// rows returns the model's constraints as two runs, the base's and its
// own, in index order.
func (m *Model) rows() [2][]Constraint {
	if m.base == nil {
		return [2][]Constraint{nil, m.cons}
	}
	return [2][]Constraint{m.base.cons, m.cons}
}

// NumVars returns the number of variables.
func (m *Model) NumVars() int { return len(m.lo) }

// NumConstraints returns the number of constraints.
func (m *Model) NumConstraints() int { return m.baseRows() + len(m.cons) }

// Diff reports the first difference between m and o, variable for
// variable and constraint for constraint, or nil when they are the same
// model however either stores its rows (a fork keeps its base's rows in
// the base).
func (m *Model) Diff(o *Model) error {
	if m.NumVars() != o.NumVars() || m.NumConstraints() != o.NumConstraints() {
		return fmt.Errorf("%d vars, %d constraints vs %d vars, %d constraints",
			m.NumVars(), m.NumConstraints(), o.NumVars(), o.NumConstraints())
	}
	for v := range m.lo {
		if m.lo[v] != o.lo[v] || m.hi[v] != o.hi[v] || m.isInt[v] != o.isInt[v] {
			return fmt.Errorf("variable %d: [%v,%v] int=%v vs [%v,%v] int=%v",
				v, m.lo[v], m.hi[v], m.isInt[v], o.lo[v], o.hi[v], o.isInt[v])
		}
	}
	for ci := 0; ci < m.NumConstraints(); ci++ {
		a, b := m.row(ci), o.row(ci)
		if a.Sense != b.Sense || a.RHS != b.RHS || !slices.Equal(a.Terms, b.Terms) {
			return fmt.Errorf("constraint %d: %+v vs %+v", ci, *a, *b)
		}
	}
	return nil
}

// AddVar adds a variable with finite bounds [lo, hi]; integer variables
// are branch targets. It returns the variable index.
func (m *Model) AddVar(lo, hi float64, integer bool) (int, error) {
	if m.frozen != nil {
		return 0, errFrozen
	}
	if math.IsInf(lo, 0) || math.IsInf(hi, 0) || math.IsNaN(lo) || math.IsNaN(hi) {
		return 0, fmt.Errorf("milp: variable bounds must be finite, got [%v,%v]", lo, hi)
	}
	if lo > hi {
		return 0, fmt.Errorf("milp: empty variable domain [%v,%v]", lo, hi)
	}
	m.lo = append(m.lo, lo)
	m.hi = append(m.hi, hi)
	m.isInt = append(m.isInt, integer)
	return len(m.lo) - 1, nil
}

// AddBinary adds a {0,1} variable.
func (m *Model) AddBinary() (int, error) { return m.AddVar(0, 1, true) }

// AddConstraint appends a linear constraint. Terms on the same variable
// are allowed and summed.
func (m *Model) AddConstraint(terms []Term, sense Sense, rhs float64) error {
	if m.frozen != nil {
		return errFrozen
	}
	for _, t := range terms {
		if t.Var < 0 || t.Var >= len(m.lo) {
			return fmt.Errorf("milp: constraint references unknown variable %d", t.Var)
		}
		if math.IsNaN(t.Coef) || math.IsInf(t.Coef, 0) {
			return fmt.Errorf("milp: non-finite coefficient %v", t.Coef)
		}
	}
	m.cons = append(m.cons, Constraint{Terms: terms, Sense: sense, RHS: rhs})
	m.occurs = nil
	return nil
}

// Status reports the outcome of a solve.
type Status int8

// Solve outcomes.
const (
	// Feasible means an assignment satisfying all constraints and
	// integrality was found.
	Feasible Status = iota
	// Infeasible means the problem provably has no solution.
	Infeasible
	// Limit means a node/iteration budget was exhausted before a
	// definitive answer; callers must treat this conservatively.
	Limit
	// Unbounded is reported by Optimize when the objective diverges.
	Unbounded
	// Canceled means SolveCtx stopped because its context was cancelled
	// or its deadline expired; callers surface ctx.Err().
	Canceled
)

// String names the status.
func (s Status) String() string {
	switch s {
	case Feasible:
		return "feasible"
	case Infeasible:
		return "infeasible"
	case Limit:
		return "limit"
	case Unbounded:
		return "unbounded"
	case Canceled:
		return "canceled"
	}
	return "?"
}

// Result of a solve.
type Result struct {
	Status Status
	// X is a satisfying assignment when Status == Feasible.
	X []float64
	// Objective is the optimum when produced by Optimize.
	Objective float64
	// Nodes is the number of branch & bound nodes explored.
	Nodes int
	// Visits counts the constraint evaluations of interval propagation
	// and LPs the phase-1 LPs solved, over all nodes. A fork's solve
	// does not count its base's root pass (Freeze returns that).
	Visits, LPs int
	// Fallback is set when a fork's base had run out of propagation
	// budget in its root pass, so the fork's root pass propagated every
	// row from the declared bounds instead of starting from the base's.
	Fallback bool
}

// eval computes the left-hand side of c under x.
func (c *Constraint) eval(x []float64) float64 {
	s := 0.0
	for _, t := range c.Terms {
		s += t.Coef * x[t.Var]
	}
	return s
}

// satisfied reports whether x fulfills c within tolerance.
func (c *Constraint) satisfied(x []float64, eps float64) bool {
	v := c.eval(x)
	switch c.Sense {
	case LE:
		return v <= c.RHS+eps
	case GE:
		return v >= c.RHS-eps
	default:
		return math.Abs(v-c.RHS) <= eps
	}
}

// CheckPoint reports whether x satisfies all constraints, bounds, and
// integrality of the model. Used by the rounding heuristic and by
// property tests to validate solver answers.
func (m *Model) CheckPoint(x []float64, eps float64) bool {
	if len(x) != len(m.lo) {
		return false
	}
	for i := range x {
		if x[i] < m.lo[i]-eps || x[i] > m.hi[i]+eps {
			return false
		}
		if m.isInt[i] && math.Abs(x[i]-math.Round(x[i])) > eps {
			return false
		}
	}
	for _, run := range m.rows() {
		for i := range run {
			if !run[i].satisfied(x, eps) {
				return false
			}
		}
	}
	return true
}

// ViolatedConstraints lists the indices of constraints x fails, for
// debugging and tests.
func (m *Model) ViolatedConstraints(x []float64, eps float64) []int {
	var out []int
	for ci := 0; ci < m.NumConstraints(); ci++ {
		if !m.row(ci).satisfied(x, eps) {
			out = append(out, ci)
		}
	}
	return out
}
