package milp

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
)

// TestOccurrencesListEachConstraintOnce pins the propagation adjacency
// to its definition: per variable, every constraint naming it, once,
// in ascending order — also when a constraint names a variable twice.
func TestOccurrencesListEachConstraintOnce(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 300; trial++ {
		m := NewModel()
		nVars := 1 + rng.Intn(12)
		for i := 0; i < nVars; i++ {
			if _, err := m.AddVar(-5, 5, rng.Intn(2) == 0); err != nil {
				t.Fatal(err)
			}
		}
		for c := rng.Intn(15); c > 0; c-- {
			terms := make([]Term, rng.Intn(6))
			for i := range terms {
				terms[i] = Term{Var: rng.Intn(nVars), Coef: float64(rng.Intn(5) - 2)}
			}
			if err := m.AddConstraint(terms, Sense(rng.Intn(3)), 1); err != nil {
				t.Fatal(err)
			}
		}
		want := make([][]int, nVars)
		for ci, con := range m.cons {
			seen := map[int]bool{}
			for _, term := range con.Terms {
				if !seen[term.Var] {
					seen[term.Var] = true
					want[term.Var] = append(want[term.Var], ci)
				}
			}
		}
		got := m.occurrences()
		for v := range want {
			if fmt.Sprint(got[v]) != fmt.Sprint(want[v]) {
				t.Fatalf("trial %d: variable %d occurs in %v, want %v", trial, v, got[v], want[v])
			}
		}
	}
}

// TestForkGrowsOnItsOwn (run under -race): forks of one model extend it
// independently and concurrently — each sees the shared rows plus its
// own, the model itself sees none of theirs — and solve as the same
// model built from scratch would.
func TestForkGrowsOnItsOwn(t *testing.T) {
	build := func(m *Model, extra int) {
		x, _ := m.AddVar(0, 10, false)
		b, _ := m.AddBinary()
		_ = m.AddConstraint([]Term{{Var: x, Coef: 1}, {Var: b, Coef: -10}}, LE, 0)
		for i := 0; i < extra; i++ {
			y, _ := m.AddVar(0, 10, false)
			_ = m.AddConstraint([]Term{{Var: y, Coef: 1}, {Var: x, Coef: -1}}, GE, float64(i))
		}
	}
	base := NewModel()
	build(base, 0)
	frozen := fmt.Sprintf("%#v", *base)

	var wg sync.WaitGroup
	for extra := 1; extra <= 6; extra++ {
		wg.Add(1)
		go func(extra int) {
			defer wg.Done()
			f := base.Fork()
			y, _ := f.AddVar(0, 10, false)
			for i := 0; i < extra; i++ {
				_ = f.AddConstraint([]Term{{Var: y, Coef: 1}, {Var: 0, Coef: -1}}, GE, float64(i))
			}
			want := NewModel()
			build(want, 0)
			y2, _ := want.AddVar(0, 10, false)
			for i := 0; i < extra; i++ {
				_ = want.AddConstraint([]Term{{Var: y2, Coef: 1}, {Var: 0, Coef: -1}}, GE, float64(i))
			}
			if got, exp := fmt.Sprintf("%#v", *f), fmt.Sprintf("%#v", *want); got != exp {
				t.Errorf("fork with %d rows differs from the model built whole:\n%s\n%s", extra, got, exp)
			}
			if r1, r2 := f.Solve(SolveOptions{}), want.Solve(SolveOptions{}); r1.Status != r2.Status || r1.Nodes != r2.Nodes {
				t.Errorf("fork solved %v/%d, whole model %v/%d", r1.Status, r1.Nodes, r2.Status, r2.Nodes)
			}
		}(extra)
	}
	wg.Wait()
	if fmt.Sprintf("%#v", *base) != frozen {
		t.Fatal("adding to forks changed the model they were forked from")
	}
}
