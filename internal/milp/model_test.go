package milp

import (
	"fmt"
	"math/rand"
	"reflect"
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

// TestForkGrowsOnItsOwn (run under -race): forks of one frozen model
// extend it independently and concurrently — each sees the shared rows
// plus its own, the model itself sees none of theirs — and solve as the
// same model built from scratch would.
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
	base.Freeze()
	frozen := fmt.Sprintf("%#v\n%#v", *base, *base.frozen)

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
			if err := f.Diff(want); err != nil {
				t.Errorf("fork with %d rows differs from the model built whole: %v", extra, err)
			}
			if r1, r2 := f.Solve(SolveOptions{}), want.Solve(SolveOptions{}); r1.Status != r2.Status || r1.Nodes != r2.Nodes {
				t.Errorf("fork solved %v/%d, whole model %v/%d", r1.Status, r1.Nodes, r2.Status, r2.Nodes)
			}
		}(extra)
	}
	wg.Wait()
	if fmt.Sprintf("%#v\n%#v", *base, *base.frozen) != frozen {
		t.Fatal("adding to forks changed the model they were forked from")
	}
	if _, err := base.AddVar(0, 1, true); err == nil {
		t.Error("a frozen model took a variable")
	}
	if err := base.AddConstraint([]Term{{Var: 0, Coef: 1}}, LE, 1); err == nil {
		t.Error("a frozen model took a constraint")
	}
}

// splitModel is a random model cut in two: the prefix's variables and
// rows, then the suffix's, whose rows may name any variable.
type splitModel struct {
	vars       []varSpec
	prefixVars int
	rows       []rowSpec
	prefixRows int
}

type varSpec struct {
	lo, hi  float64
	integer bool
}

type rowSpec struct {
	terms []Term
	sense Sense
	rhs   float64
}

// randomSplit draws a model in the compiler's spirit — binaries,
// bounded integers and continuous variables under small-coefficient and
// big-M rows — and a random place to cut it. Most rows hold at one
// planted point, so models and prefixes are a mix of feasible and
// infeasible ones.
func randomSplit(rng *rand.Rand) splitModel {
	var s splitModel
	nv := 2 + rng.Intn(10)
	s.prefixVars = 1 + rng.Intn(nv)
	for i := 0; i < nv; i++ {
		switch rng.Intn(3) {
		case 0:
			s.vars = append(s.vars, varSpec{0, 1, true})
		case 1:
			s.vars = append(s.vars, varSpec{float64(-rng.Intn(6)), float64(rng.Intn(6)), true})
		default:
			s.vars = append(s.vars, varSpec{float64(-rng.Intn(20)), float64(rng.Intn(20)), false})
		}
	}
	planted := make([]float64, nv)
	for i, v := range s.vars {
		planted[i] = v.lo + float64(rng.Intn(int(v.hi-v.lo)+1))
	}
	nRows := 1 + rng.Intn(12)
	s.prefixRows = rng.Intn(nRows + 1)
	for r := 0; r < nRows; r++ {
		scope := nv
		if r < s.prefixRows {
			scope = s.prefixVars
		}
		terms := make([]Term, 1+rng.Intn(3))
		for i := range terms {
			terms[i] = Term{Var: rng.Intn(scope), Coef: float64(rng.Intn(9) - 4)}
		}
		if rng.Intn(4) == 0 {
			// A big-M indicator row over a binary when there is one.
			for v := 0; v < scope; v++ {
				if s.vars[v] == (varSpec{0, 1, true}) {
					terms = append(terms, Term{Var: v, Coef: float64(10 + rng.Intn(30))})
					break
				}
			}
		}
		row := rowSpec{terms, Sense(rng.Intn(3)), float64(rng.Intn(13) - 6)}
		if rng.Intn(10) < 8 {
			at := (&Constraint{Terms: terms}).eval(planted)
			switch row.sense {
			case LE:
				row.rhs = at + float64(rng.Intn(3))
			case GE:
				row.rhs = at - float64(rng.Intn(3))
			default:
				row.rhs = at
			}
		}
		s.rows = append(s.rows, row)
	}
	return s
}

// build adds the variables [v0, v1) and rows [r0, r1) of s to m.
func (s splitModel) build(t *testing.T, m *Model, v0, v1, r0, r1 int) {
	t.Helper()
	for _, v := range s.vars[v0:v1] {
		if _, err := m.AddVar(v.lo, v.hi, v.integer); err != nil {
			t.Fatal(err)
		}
	}
	for _, r := range s.rows[r0:r1] {
		if err := m.AddConstraint(r.terms, r.sense, r.rhs); err != nil {
			t.Fatal(err)
		}
	}
}

// TestForkSolveMatchesFreshSolve is the frozen prefix's oracle: over
// random models cut at a random place, solving a fork of the frozen
// prefix grown by the suffix gives exactly what solving the whole model
// built from scratch gives: status, Nodes, LPs and the witness, bit for
// bit, and the base's pass plus the fork's visits are the whole
// model's. The corpus holds prefixes the root pass proves infeasible
// and prefixes whose pass runs out of budget (a slow continuous
// descent), which forks answer without a pass and with a full pass
// respectively.
func TestForkSolveMatchesFreshSolve(t *testing.T) {
	trials := 4000
	if testing.Short() {
		trials = 1000
	}
	rng := rand.New(rand.NewSource(34))
	var infeasible, exhausted, started int
	for trial := 0; trial < trials; trial++ {
		s := randomSplit(rng)
		switch trial % 10 {
		case 0:
			// Two contradicting rows on a prefix variable.
			s.rows = append([]rowSpec{{[]Term{{0, 1}}, GE, s.vars[0].hi + 1}}, s.rows...)
			s.prefixRows++
		case 1:
			// x ≤ y − 1 ∧ y ≤ x − 1 over [0, 1000]: each visit moves a bound by
			// one, far past the prefix's visit budget.
			x := len(s.vars)
			s.vars = append(s.vars, varSpec{0, 1000, false}, varSpec{0, 1000, false})
			s.vars[x], s.vars[s.prefixVars] = s.vars[s.prefixVars], s.vars[x]
			s.vars[x+1], s.vars[s.prefixVars+1] = s.vars[s.prefixVars+1], s.vars[x+1]
			for r := s.prefixRows; r < len(s.rows); r++ {
				for i, term := range s.rows[r].terms {
					switch term.Var {
					case s.prefixVars:
						s.rows[r].terms[i].Var = x
					case s.prefixVars + 1:
						s.rows[r].terms[i].Var = x + 1
					case x:
						s.rows[r].terms[i].Var = s.prefixVars
					case x + 1:
						s.rows[r].terms[i].Var = s.prefixVars + 1
					}
				}
			}
			px, py := s.prefixVars, s.prefixVars+1
			s.prefixVars += 2
			s.rows = append([]rowSpec{
				{[]Term{{px, 1}, {py, -1}}, LE, -1},
				{[]Term{{py, 1}, {px, -1}}, LE, -1},
			}, s.rows...)
			s.prefixRows += 2
		}
		nv, nr := len(s.vars), len(s.rows)

		whole := NewModel()
		s.build(t, whole, 0, nv, 0, nr)
		base := NewModel()
		s.build(t, base, 0, s.prefixVars, 0, s.prefixRows)
		base.Freeze()
		fork := base.Fork()
		s.build(t, fork, s.prefixVars, nv, s.prefixRows, nr)
		if err := fork.Diff(whole); err != nil {
			t.Fatalf("trial %d: fork differs from the whole model: %v", trial, err)
		}
		switch f := base.frozen; {
		case f.infeasible:
			infeasible++
		case f.exhausted:
			exhausted++
		default:
			started++
		}

		opts := SolveOptions{MaxNodes: 200}
		got, want := fork.Solve(opts), whole.Solve(opts)
		if got.Status != want.Status || got.Nodes != want.Nodes || got.LPs != want.LPs || !reflect.DeepEqual(got.X, want.X) {
			t.Fatalf("trial %d (%d/%d vars, %d/%d rows in the prefix): fork %v nodes=%d lps=%d x=%v, whole %v nodes=%d lps=%d x=%v",
				trial, s.prefixVars, nv, s.prefixRows, nr,
				got.Status, got.Nodes, got.LPs, got.X, want.Status, want.Nodes, want.LPs, want.X)
		}
		switch f := base.frozen; {
		case f.infeasible:
			if got.Visits != 0 {
				t.Fatalf("trial %d: a fork of an infeasible prefix propagated %d rows", trial, got.Visits)
			}
		case f.exhausted:
			if got.Visits != want.Visits {
				t.Fatalf("trial %d: fallback visits %d, whole model %d", trial, got.Visits, want.Visits)
			}
		default:
			if f.visits+got.Visits != want.Visits {
				t.Fatalf("trial %d: prefix %d + fork %d visits, whole model %d", trial, f.visits, got.Visits, want.Visits)
			}
		}
		if got.Fallback != base.frozen.exhausted {
			t.Fatalf("trial %d: Fallback = %v for a prefix with exhausted = %v", trial, got.Fallback, base.frozen.exhausted)
		}
	}
	t.Logf("%d forks started from the prefix fixpoint, %d from an infeasible prefix, %d fell back",
		started, infeasible, exhausted)
	if infeasible == 0 || exhausted == 0 || started < trials/2 {
		t.Fatalf("corpus lacks a case: %d started, %d infeasible, %d exhausted", started, infeasible, exhausted)
	}
}
