package milp

import (
	"context"
	"math"
	"testing"
)

func mustVar(t *testing.T, m *Model, lo, hi float64, integer bool) int {
	t.Helper()
	v, err := m.AddVar(lo, hi, integer)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

func mustCons(t *testing.T, m *Model, terms []Term, s Sense, rhs float64) {
	t.Helper()
	if err := m.AddConstraint(terms, s, rhs); err != nil {
		t.Fatal(err)
	}
}

func solveCheck(t *testing.T, m *Model, wantStatus Status) *Result {
	t.Helper()
	res := m.SolveCtx(context.Background(), SolveOptions{})
	if res.Status != wantStatus {
		t.Fatalf("status = %v, want %v (nodes=%d)", res.Status, wantStatus, res.Nodes)
	}
	if res.Status == Feasible && !m.CheckPoint(res.X, 1e-5) {
		t.Fatalf("returned point violates the model: %v", res.X)
	}
	return res
}

func TestTriviallyFeasible(t *testing.T) {
	m := NewModel()
	mustVar(t, m, 0, 10, false)
	solveCheck(t, m, Feasible)
}

func TestSingleGEConstraint(t *testing.T) {
	m := NewModel()
	x := mustVar(t, m, 0, 10, false)
	mustCons(t, m, []Term{{x, 1}}, GE, 7)
	res := solveCheck(t, m, Feasible)
	if res.X[x] < 7-1e-6 {
		t.Errorf("x = %v, want ≥ 7", res.X[x])
	}
}

func TestSingleGEInfeasible(t *testing.T) {
	m := NewModel()
	x := mustVar(t, m, 0, 1, false)
	mustCons(t, m, []Term{{x, 1}}, GE, 2)
	solveCheck(t, m, Infeasible)
}

func TestEqualitySystem(t *testing.T) {
	// x + y = 1, x − y = 1 → x = 1, y = 0.
	m := NewModel()
	x := mustVar(t, m, -5, 5, false)
	y := mustVar(t, m, -5, 5, false)
	mustCons(t, m, []Term{{x, 1}, {y, 1}}, EQ, 1)
	mustCons(t, m, []Term{{x, 1}, {y, -1}}, EQ, 1)
	res := solveCheck(t, m, Feasible)
	if math.Abs(res.X[x]-1) > 1e-6 || math.Abs(res.X[y]) > 1e-6 {
		t.Errorf("got x=%v y=%v, want 1, 0", res.X[x], res.X[y])
	}
}

func TestNegativeLowerBounds(t *testing.T) {
	// x ∈ [−10, −2], x ≤ −5 → feasible with x ≤ −5.
	m := NewModel()
	x := mustVar(t, m, -10, -2, false)
	mustCons(t, m, []Term{{x, 1}}, LE, -5)
	res := solveCheck(t, m, Feasible)
	if res.X[x] > -5+1e-6 {
		t.Errorf("x = %v, want ≤ −5", res.X[x])
	}
}

func TestBigMDisjunction(t *testing.T) {
	// d ∈ [−100, 100] free; b, s binary; the Ne-style encoding:
	// d ≥ 1 − 200·s, d ≤ −1 + 200·(1−s); and force d = 0 via bounds.
	// With d pinned to 0 the system must be infeasible.
	m := NewModel()
	d := mustVar(t, m, 0, 0, false)
	s := mustVar(t, m, 0, 1, true)
	mustCons(t, m, []Term{{d, 1}, {s, 200}}, GE, 1)
	mustCons(t, m, []Term{{d, 1}, {s, 200}}, LE, 199)
	solveCheck(t, m, Infeasible)
}

func TestBigMDisjunctionFeasibleSides(t *testing.T) {
	// Same encoding with d free: both sides must be reachable.
	for _, want := range []float64{+1, -1} {
		m := NewModel()
		d := mustVar(t, m, -100, 100, false)
		s := mustVar(t, m, 0, 1, true)
		mustCons(t, m, []Term{{d, 1}, {s, 200}}, GE, 1)
		mustCons(t, m, []Term{{d, 1}, {s, 200}}, LE, 199)
		// Force the side: d ≥ 1 (want +) or d ≤ −1 (want −).
		if want > 0 {
			mustCons(t, m, []Term{{d, 1}}, GE, 1)
		} else {
			mustCons(t, m, []Term{{d, 1}}, LE, -1)
		}
		res := solveCheck(t, m, Feasible)
		if want > 0 && res.X[d] < 1-1e-6 {
			t.Errorf("d = %v, want ≥ 1", res.X[d])
		}
		if want < 0 && res.X[d] > -1+1e-6 {
			t.Errorf("d = %v, want ≤ −1", res.X[d])
		}
	}
}

func TestIntegerForcesBranching(t *testing.T) {
	// 2b = 1 has an LP solution (b=0.5) but no integer solution.
	m := NewModel()
	b := mustVar(t, m, 0, 1, true)
	mustCons(t, m, []Term{{b, 2}}, EQ, 1)
	solveCheck(t, m, Infeasible)
}

func TestIntegerKnapsackFeasible(t *testing.T) {
	// 3a + 5b + 7c = 12 over binaries → a=0, b=1, c=1.
	m := NewModel()
	a := mustVar(t, m, 0, 1, true)
	b := mustVar(t, m, 0, 1, true)
	c := mustVar(t, m, 0, 1, true)
	mustCons(t, m, []Term{{a, 3}, {b, 5}, {c, 7}}, EQ, 12)
	res := solveCheck(t, m, Feasible)
	if res.X[a] != 0 || res.X[b] != 1 || res.X[c] != 1 {
		t.Errorf("got (%v,%v,%v), want (0,1,1)", res.X[a], res.X[b], res.X[c])
	}
}

func TestIntegerKnapsackInfeasible(t *testing.T) {
	// 3a + 5b + 7c = 11 over binaries has no solution.
	m := NewModel()
	a := mustVar(t, m, 0, 1, true)
	b := mustVar(t, m, 0, 1, true)
	c := mustVar(t, m, 0, 1, true)
	mustCons(t, m, []Term{{a, 3}, {b, 5}, {c, 7}}, EQ, 11)
	solveCheck(t, m, Infeasible)
}

func TestEmptyVarDomain(t *testing.T) {
	m := NewModel()
	if _, err := m.AddVar(3, 2, false); err == nil {
		t.Error("AddVar(3,2) must fail")
	}
	if _, err := m.AddVar(math.Inf(-1), 0, false); err == nil {
		t.Error("infinite bounds must fail")
	}
}

func TestOptimizeSimple(t *testing.T) {
	// max x+y s.t. x+2y ≤ 4, x ≤ 3, x,y ≥ 0 (min −x−y).
	m := NewModel()
	x := mustVar(t, m, 0, 100, false)
	y := mustVar(t, m, 0, 100, false)
	mustCons(t, m, []Term{{x, 1}, {y, 2}}, LE, 4)
	mustCons(t, m, []Term{{x, 1}}, LE, 3)
	res, err := m.Optimize([]float64{-1, -1}, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != Feasible {
		t.Fatalf("status = %v", res.Status)
	}
	// Optimum: x=3, y=0.5, objective −3.5.
	if math.Abs(res.Objective-(-3.5)) > 1e-6 {
		t.Errorf("objective = %v, want −3.5 (x=%v y=%v)", res.Objective, res.X[x], res.X[y])
	}
}

func TestOptimizeInfeasible(t *testing.T) {
	m := NewModel()
	x := mustVar(t, m, 0, 1, false)
	mustCons(t, m, []Term{{x, 1}}, GE, 5)
	res, err := m.Optimize([]float64{1}, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != Infeasible {
		t.Errorf("status = %v, want infeasible", res.Status)
	}
}

func TestPropagationFixesChain(t *testing.T) {
	// b1=1 forced; b1 ≤ b2; b2 ≤ b3; b3 + x ≤ 1 with x ∈ [1,1] → infeasible
	// purely by propagation.
	m := NewModel()
	b1 := mustVar(t, m, 1, 1, true)
	b2 := mustVar(t, m, 0, 1, true)
	b3 := mustVar(t, m, 0, 1, true)
	x := mustVar(t, m, 1, 1, false)
	mustCons(t, m, []Term{{b1, 1}, {b2, -1}}, LE, 0)
	mustCons(t, m, []Term{{b2, 1}, {b3, -1}}, LE, 0)
	mustCons(t, m, []Term{{b3, 1}, {x, 1}}, LE, 1)
	res := solveCheck(t, m, Infeasible)
	if res.Nodes > 1 {
		t.Errorf("expected pure propagation (1 node), used %d", res.Nodes)
	}
}
