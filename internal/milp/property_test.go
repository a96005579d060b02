package milp

import (
	"context"
	"math/rand"
	"testing"
	"testing/quick"
)

// randomBinaryModel builds a random feasibility problem over nBin
// binaries with small integer coefficients, so feasibility can be
// decided by brute force over all assignments.
func randomBinaryModel(rng *rand.Rand, nBin, nCons int) *Model {
	m := NewModel()
	for i := 0; i < nBin; i++ {
		if _, err := m.AddBinary(); err != nil {
			panic(err)
		}
	}
	for c := 0; c < nCons; c++ {
		var terms []Term
		for v := 0; v < nBin; v++ {
			if rng.Intn(2) == 0 {
				terms = append(terms, Term{Var: v, Coef: float64(rng.Intn(7) - 3)})
			}
		}
		if len(terms) == 0 {
			continue
		}
		sense := []Sense{LE, GE, EQ}[rng.Intn(3)]
		rhs := float64(rng.Intn(9) - 4)
		if err := m.AddConstraint(terms, sense, rhs); err != nil {
			panic(err)
		}
	}
	return m
}

// bruteForceFeasible enumerates all binary assignments.
func bruteForceFeasible(m *Model, nBin int) bool {
	x := make([]float64, nBin)
	for mask := 0; mask < 1<<nBin; mask++ {
		for v := 0; v < nBin; v++ {
			x[v] = float64((mask >> v) & 1)
		}
		if m.CheckPoint(x, 1e-9) {
			return true
		}
	}
	return false
}

// TestSolveMatchesBruteForce is the solver's core property: on random
// pure-binary problems the verdict must match exhaustive enumeration,
// and feasible verdicts must come with valid witnesses.
func TestSolveMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	for trial := 0; trial < 400; trial++ {
		nBin := 1 + rng.Intn(8)
		m := randomBinaryModel(rng, nBin, 1+rng.Intn(6))
		want := bruteForceFeasible(m, nBin)
		res := m.SolveCtx(context.Background(), SolveOptions{})
		if res.Status == Limit {
			t.Fatalf("trial %d: unexpected budget overrun on a %d-binary problem", trial, nBin)
		}
		got := res.Status == Feasible
		if got != want {
			t.Fatalf("trial %d: solver=%v bruteforce=%v (%d binaries, %d constraints)",
				trial, res.Status, want, nBin, m.NumConstraints())
		}
		if got && !m.CheckPoint(res.X, 1e-6) {
			t.Fatalf("trial %d: invalid witness %v", trial, res.X)
		}
	}
}

// TestSolveMixedIntegerContinuous adds continuous variables coupled to
// the binaries and cross-checks against brute force over the binaries
// (continuous feasibility per assignment is a tiny interval check here:
// each continuous var is constrained to equal a linear form).
func TestSolveMixedIntegerContinuous(t *testing.T) {
	rng := rand.New(rand.NewSource(67))
	for trial := 0; trial < 200; trial++ {
		nBin := 1 + rng.Intn(6)
		m := randomBinaryModel(rng, nBin, 1+rng.Intn(4))
		// y = Σ cᵢ bᵢ with y ∈ [lo, hi]: feasible iff some admissible
		// assignment lands in the box.
		y, err := m.AddVar(-100, 100, false)
		if err != nil {
			t.Fatal(err)
		}
		coefs := make([]float64, nBin)
		terms := []Term{{Var: y, Coef: -1}}
		for v := 0; v < nBin; v++ {
			coefs[v] = float64(rng.Intn(11) - 5)
			terms = append(terms, Term{Var: v, Coef: coefs[v]})
		}
		if err := m.AddConstraint(terms, EQ, 0); err != nil {
			t.Fatal(err)
		}
		lo := float64(rng.Intn(10) - 5)
		if err := m.AddConstraint([]Term{{Var: y, Coef: 1}}, GE, lo); err != nil {
			t.Fatal(err)
		}

		// Brute force.
		want := false
		x := make([]float64, nBin+1)
		for mask := 0; mask < 1<<nBin && !want; mask++ {
			sum := 0.0
			for v := 0; v < nBin; v++ {
				x[v] = float64((mask >> v) & 1)
				sum += coefs[v] * x[v]
			}
			x[y] = sum
			want = m.CheckPoint(x, 1e-9)
		}

		res := m.SolveCtx(context.Background(), SolveOptions{})
		if res.Status == Limit {
			t.Fatalf("trial %d: budget overrun", trial)
		}
		if (res.Status == Feasible) != want {
			t.Fatalf("trial %d: solver=%v bruteforce=%v", trial, res.Status, want)
		}
		if res.Status == Feasible && !m.CheckPoint(res.X, 1e-6) {
			t.Fatalf("trial %d: invalid witness", trial)
		}
	}
}

// TestCheckPointProperty: CheckPoint accepts exactly the points that
// satisfy all constraints — quick-checked on single-constraint models.
func TestCheckPointProperty(t *testing.T) {
	f := func(coef1, coef2 int8, rhs int8, x1, x2 int8) bool {
		m := NewModel()
		a, _ := m.AddVar(-200, 200, false)
		b, _ := m.AddVar(-200, 200, false)
		if err := m.AddConstraint([]Term{{a, float64(coef1)}, {b, float64(coef2)}}, LE, float64(rhs)); err != nil {
			return false
		}
		pt := []float64{float64(x1), float64(x2)}
		manual := float64(coef1)*pt[0]+float64(coef2)*pt[1] <= float64(rhs)+1e-9
		return m.CheckPoint(pt, 1e-9) == manual
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// TestPropagationNeverCutsSolutions: propagation may only shrink the
// box toward the feasible set, never cut off an integer solution that
// brute force finds.
func TestPropagationNeverCutsSolutions(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	for trial := 0; trial < 300; trial++ {
		nBin := 1 + rng.Intn(7)
		m := randomBinaryModel(rng, nBin, 1+rng.Intn(5))
		lo := append([]float64(nil), m.lo...)
		hi := append([]float64(nil), m.hi...)
		feasibleBox, _, _ := m.propagate(lo, hi, 0, -1, m.propVisits())

		x := make([]float64, nBin)
		for mask := 0; mask < 1<<nBin; mask++ {
			for v := 0; v < nBin; v++ {
				x[v] = float64((mask >> v) & 1)
			}
			if !m.CheckPoint(x, 1e-9) {
				continue
			}
			// A genuine solution: propagation must not have excluded it.
			if !feasibleBox {
				t.Fatalf("trial %d: propagation declared infeasible but %v is a solution", trial, x)
			}
			for v := 0; v < nBin; v++ {
				if x[v] < lo[v]-1e-9 || x[v] > hi[v]+1e-9 {
					t.Fatalf("trial %d: propagation cut solution %v (var %d bounds [%v,%v])",
						trial, x, v, lo[v], hi[v])
				}
			}
		}
	}
}
