package milp

import (
	"fmt"
	"math"
)

// epsilons for the numeric kernel.
const (
	pivotEps = 1e-9
	feasEps  = 1e-6
)

// tableau is a dense simplex tableau in canonical form: basis columns
// form an identity, rows carry the constraint coefficients with the
// right-hand side in the last column, and obj is the reduced-cost row.
type tableau struct {
	a     [][]float64 // m rows × (n+1) columns, last column = rhs
	obj   []float64   // n+1 entries, last = -objective value
	basis []int       // basic variable per row
	n     int         // structural+slack+artificial columns
}

// lp is the standard-form translation of a model under (possibly
// tightened) bounds: fixed variables are substituted out entirely,
// remaining variables are shifted to y = x - lo ≥ 0 and column-
// compressed, finite upper bounds are emitted as rows, and slack/
// artificial columns appended. Column compression matters: at branch &
// bound leaves nearly all indicator variables are fixed, shrinking the
// dense tableau from thousands of columns to the few live continuous
// ones.
type lp struct {
	t        *tableau
	shift    []float64 // lo per original variable
	fixed    []bool    // width-zero variables (pinned to lo)
	col      []int     // original variable → compressed column (-1 if fixed)
	vars     []int     // compressed column → original variable
	nOrig    int
	artStart int // first artificial column
}

// buildLP translates m (with override bounds lo/hi) into phase-1
// standard form. It returns nil with ok=false when some variable box is
// empty or a fully-fixed constraint is violated — both immediately
// infeasible.
func buildLP(m *Model, lo, hi []float64) (*lp, bool) {
	nOrig := len(lo)
	shift := make([]float64, nOrig)
	fixed := make([]bool, nOrig)
	col := make([]int, nOrig)
	var vars []int
	for i := range lo {
		if lo[i] > hi[i]+feasEps {
			return nil, false
		}
		shift[i] = lo[i]
		if hi[i]-lo[i] <= pivotEps {
			fixed[i] = true
			col[i] = -1
			continue
		}
		col[i] = len(vars)
		vars = append(vars, i)
	}
	nLive := len(vars)

	type row struct {
		coef  []float64
		sense Sense
		rhs   float64
	}
	var rows []row

	// Constraint rows over shifted, compressed variables. Fully-fixed
	// rows are checked immediately and dropped.
	scratch := make([]float64, nOrig)
	for ci := 0; ci < m.NumConstraints(); ci++ {
		c := m.row(ci)
		for _, t := range c.Terms {
			scratch[t.Var] += t.Coef
		}
		rhs := c.RHS
		coef := make([]float64, nLive)
		live := false
		for _, t := range c.Terms {
			i := t.Var
			if scratch[i] == 0 {
				continue
			}
			rhs -= scratch[i] * shift[i]
			if !fixed[i] {
				coef[col[i]] = scratch[i]
				live = true
			}
			scratch[i] = 0
		}
		if !live {
			// All variables fixed: verify directly.
			ok := true
			switch c.Sense {
			case LE:
				ok = rhs >= -feasEps
			case GE:
				ok = rhs <= feasEps
			case EQ:
				ok = math.Abs(rhs) <= feasEps
			}
			if !ok {
				return nil, false
			}
			continue
		}
		rows = append(rows, row{coef: coef, sense: c.Sense, rhs: rhs})
	}
	// Upper-bound rows y ≤ hi-lo for live variables.
	for ci, i := range vars {
		coef := make([]float64, nLive)
		coef[ci] = 1
		rows = append(rows, row{coef: coef, sense: LE, rhs: hi[i] - lo[i]})
	}

	// Normalize to rhs ≥ 0.
	for ri := range rows {
		if rows[ri].rhs < 0 {
			for i := range rows[ri].coef {
				rows[ri].coef[i] = -rows[ri].coef[i]
			}
			rows[ri].rhs = -rows[ri].rhs
			switch rows[ri].sense {
			case LE:
				rows[ri].sense = GE
			case GE:
				rows[ri].sense = LE
			}
		}
	}

	mRows := len(rows)
	// Count extra columns: slack per LE, surplus per GE, artificial per
	// GE and EQ.
	nSlack, nArt := 0, 0
	for _, r := range rows {
		switch r.sense {
		case LE:
			nSlack++
		case GE:
			nSlack++
			nArt++
		case EQ:
			nArt++
		}
	}
	n := nLive + nSlack + nArt
	t := &tableau{
		a:     make([][]float64, mRows),
		obj:   make([]float64, n+1),
		basis: make([]int, mRows),
		n:     n,
	}
	slackCol := nLive
	artCol := nLive + nSlack
	artStart := artCol
	for ri, r := range rows {
		t.a[ri] = make([]float64, n+1)
		copy(t.a[ri], r.coef)
		t.a[ri][n] = r.rhs
		switch r.sense {
		case LE:
			t.a[ri][slackCol] = 1
			t.basis[ri] = slackCol
			slackCol++
		case GE:
			t.a[ri][slackCol] = -1
			slackCol++
			t.a[ri][artCol] = 1
			t.basis[ri] = artCol
			artCol++
		case EQ:
			t.a[ri][artCol] = 1
			t.basis[ri] = artCol
			artCol++
		}
	}
	// Phase-1 objective: minimize sum of artificials. Reduced costs:
	// start from c (1 on artificials) and eliminate basic artificials.
	for j := artStart; j < n; j++ {
		t.obj[j] = 1
	}
	for ri, b := range t.basis {
		if b >= artStart {
			for j := 0; j <= n; j++ {
				t.obj[j] -= t.a[ri][j]
			}
		}
	}
	return &lp{t: t, shift: shift, fixed: fixed, col: col, vars: vars, nOrig: nOrig, artStart: artStart}, true
}

// pivot performs a Gauss-Jordan pivot on (row, col).
func (t *tableau) pivot(row, col int) {
	p := t.a[row][col]
	inv := 1 / p
	for j := 0; j <= t.n; j++ {
		t.a[row][j] *= inv
	}
	t.a[row][col] = 1 // avoid residual error
	for ri := range t.a {
		if ri == row {
			continue
		}
		f := t.a[ri][col]
		if f == 0 {
			continue
		}
		for j := 0; j <= t.n; j++ {
			t.a[ri][j] -= f * t.a[row][j]
		}
		t.a[ri][col] = 0
	}
	if f := t.obj[col]; f != 0 {
		for j := 0; j <= t.n; j++ {
			t.obj[j] -= f * t.a[row][j]
		}
		t.obj[col] = 0
	}
	t.basis[row] = col
}

// iterate runs simplex until optimal, iteration budget exhaustion, or
// unboundedness. It uses Dantzig pricing with a Bland fallback after
// stalling to guarantee termination.
func (t *tableau) iterate(maxIter int) (optimal bool, unbounded bool) {
	stall := 0
	lastObj := math.Inf(1)
	for it := 0; it < maxIter; it++ {
		useBland := stall > 50
		col := -1
		best := -pivotEps * 10
		for j := 0; j < t.n; j++ {
			rc := t.obj[j]
			if rc < best {
				if useBland {
					col = j
					break
				}
				best = rc
				col = j
			}
		}
		if col < 0 {
			return true, false
		}
		row := -1
		bestRatio := math.Inf(1)
		for ri := range t.a {
			aij := t.a[ri][col]
			if aij <= pivotEps {
				continue
			}
			ratio := t.a[ri][t.n] / aij
			if ratio < bestRatio-pivotEps || (math.Abs(ratio-bestRatio) <= pivotEps && (row < 0 || t.basis[ri] < t.basis[row])) {
				bestRatio = ratio
				row = ri
			}
		}
		if row < 0 {
			return false, true
		}
		t.pivot(row, col)
		obj := -t.obj[t.n]
		if obj >= lastObj-1e-12 {
			stall++
		} else {
			stall = 0
		}
		lastObj = obj
	}
	return false, false
}

// solution extracts the original-variable assignment from the tableau:
// fixed variables sit at their (shifted) bound, non-basic live columns
// at zero offset, basic live columns at their row's rhs.
func (l *lp) solution() []float64 {
	x := make([]float64, l.nOrig)
	copy(x, l.shift)
	for ri, b := range l.t.basis {
		if b < len(l.vars) {
			orig := l.vars[b]
			x[orig] = l.shift[orig] + l.t.a[ri][l.t.n]
		}
	}
	return x
}

// lpFeasible runs phase-1 simplex under the given bounds and returns a
// feasible point for the relaxation if one exists. status Limit means
// the iteration budget ran out.
func lpFeasible(m *Model, lo, hi []float64, maxIter int) (Status, []float64) {
	l, ok := buildLP(m, lo, hi)
	if !ok {
		return Infeasible, nil
	}
	optimal, _ := l.t.iterate(maxIter)
	if !optimal {
		return Limit, nil
	}
	if -l.t.obj[l.t.n] > feasEps {
		return Infeasible, nil
	}
	return Feasible, l.solution()
}

// Optimize minimizes the linear objective Σ obj[i]·x[i] over the LP
// relaxation of the model (integrality is ignored). It is exposed for
// testing the simplex kernel and for cost-model experiments.
func (m *Model) Optimize(objective []float64, maxIter int) (*Result, error) {
	if len(objective) != len(m.lo) {
		return nil, fmt.Errorf("milp: objective has %d coefficients for %d variables", len(objective), len(m.lo))
	}
	l, ok := buildLP(m, m.lo, m.hi)
	if !ok {
		return &Result{Status: Infeasible}, nil
	}
	optimal, _ := l.t.iterate(maxIter)
	if !optimal {
		return &Result{Status: Limit}, nil
	}
	if -l.t.obj[l.t.n] > feasEps {
		return &Result{Status: Infeasible}, nil
	}
	// Phase 2: swap in the real objective, zero out artificial columns
	// so they never re-enter, and re-derive reduced costs.
	t := l.t
	for j := 0; j <= t.n; j++ {
		t.obj[j] = 0
	}
	for i, c := range objective {
		if !l.fixed[i] {
			t.obj[l.col[i]] = c
		}
	}
	// Forbid artificials from re-entering.
	for ri := range t.a {
		if t.basis[ri] >= l.artStart {
			// Pivot the artificial out if possible.
			for j := 0; j < l.artStart; j++ {
				if math.Abs(t.a[ri][j]) > pivotEps {
					t.pivot(ri, j)
					break
				}
			}
		}
	}
	for j := l.artStart; j < t.n; j++ {
		t.obj[j] = math.Inf(1) // sentinel: never negative, never chosen
	}
	// Re-canonicalize the objective row over the basis.
	for ri, b := range t.basis {
		if b < l.artStart && t.obj[b] != 0 {
			f := t.obj[b]
			for j := 0; j <= t.n; j++ {
				if !math.IsInf(t.obj[j], 1) {
					t.obj[j] -= f * t.a[ri][j]
				}
			}
			t.obj[b] = 0
		}
	}
	optimal, unbounded := t.iterate(maxIter)
	if unbounded {
		return &Result{Status: Unbounded}, nil
	}
	if !optimal {
		return &Result{Status: Limit}, nil
	}
	x := l.solution()
	val := 0.0
	for i, c := range objective {
		val += c * x[i]
	}
	return &Result{Status: Feasible, X: x, Objective: val}, nil
}
