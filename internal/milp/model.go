// Package milp is a small exact mixed-integer linear programming
// solver: a dense tableau simplex (phase 1 feasibility, phase 2
// optimization) with depth-first branch & bound on integer variables.
// It stands in for the CPLEX solver the paper uses (§11) to decide
// satisfiability of compiled slicing conditions. All variables must
// carry finite bounds, which the condition compiler guarantees.
package milp

import (
	"fmt"
	"math"
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
	lo, hi []float64
	isInt  []bool
	cons   []Constraint

	// occurs maps variable → indices of constraints containing it; it
	// is built lazily for worklist propagation and invalidated by
	// AddConstraint.
	occurs [][]int
}

// occurrences returns (building if necessary) the variable→constraints
// adjacency used by incremental propagation: per variable, the
// constraints mentioning it in ascending order, each once however many
// of its terms name the variable. All lists share one backing array.
func (m *Model) occurrences() [][]int {
	if m.occurs != nil {
		return m.occurs
	}
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
	off := 0
	for v, n := range count {
		m.occurs[v] = flat[off : off : off+n]
		off += n
		last[v] = 0
	}
	for ci := range m.cons {
		for _, t := range m.cons[ci].Terms {
			if last[t.Var] != ci+1 {
				last[t.Var] = ci + 1
				m.occurs[t.Var] = append(m.occurs[t.Var], ci)
			}
		}
	}
	return m.occurs
}

// NewModel returns an empty model.
func NewModel() *Model { return &Model{} }

// Fork returns a model that starts out equal to m and grows on its own:
// what is added to the fork never shows in m or in any other fork. The
// fork shares m's rows until its first addition copies them, so m must
// not grow while forks of it are in use.
func (m *Model) Fork() *Model {
	return &Model{
		lo:    m.lo[:len(m.lo):len(m.lo)],
		hi:    m.hi[:len(m.hi):len(m.hi)],
		isInt: m.isInt[:len(m.isInt):len(m.isInt)],
		cons:  m.cons[:len(m.cons):len(m.cons)],
	}
}

// NumVars returns the number of variables.
func (m *Model) NumVars() int { return len(m.lo) }

// NumConstraints returns the number of constraints.
func (m *Model) NumConstraints() int { return len(m.cons) }

// AddVar adds a variable with finite bounds [lo, hi]; integer variables
// are branch targets. It returns the variable index.
func (m *Model) AddVar(lo, hi float64, integer bool) (int, error) {
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
	for i := range m.cons {
		if !m.cons[i].satisfied(x, eps) {
			return false
		}
	}
	return true
}

// ViolatedConstraints lists the indices of constraints x fails, for
// debugging and tests.
func (m *Model) ViolatedConstraints(x []float64, eps float64) []int {
	var out []int
	for i := range m.cons {
		if !m.cons[i].satisfied(x, eps) {
			out = append(out, i)
		}
	}
	return out
}
