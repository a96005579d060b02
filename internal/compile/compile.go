// Package compile translates expression-language conditions (Fig. 7)
// into mixed-integer linear programs per the rules of Fig. 13, so a
// MILP solver can decide their satisfiability (§11). Design points:
//
//   - Numeric subexpressions compile to linear forms over model
//     variables where possible (+, −, const·x, x/const); only
//     conditional expressions introduce auxiliary variables, selected
//     by big-M constraints.
//   - Every boolean subexpression gets a {0,1} indicator variable whose
//     truth is linked to its operands with big-M constraints; the root
//     indicator is pinned to 1.
//   - Big-M values are derived per constraint from interval analysis of
//     the operand bounds, keeping the encodings numerically tame.
//   - String values are dictionary-coded to integers; each string
//     variable additionally owns a private "unseen value" code so that
//     disequalities between string variables remain satisfiable.
//   - The symbolic path assumes attributes are non-NULL: isnull
//     compiles to false. This matches every paper workload; callers
//     keep statements conservatively when they need NULL reasoning.
//
// Satisfiability is decided with the exact MILP solver; Limit outcomes
// are surfaced so callers can fall back soundly ("not proven, keep the
// statement").
package compile

import (
	"context"
	"fmt"
	"math"

	"github.com/mahif/mahif/internal/expr"
	"github.com/mahif/mahif/internal/milp"
	"github.com/mahif/mahif/internal/types"
)

// Eps is the smallest value difference the encoding distinguishes:
// strict inequalities a < b compile to a ≤ b − Eps. Workload values are
// integers or coarse decimals, far above this resolution.
const Eps = 1e-3

// defaultBound bounds numeric attribute variables when the formula
// itself provides no tighter information. It is kept moderate so the
// derived big-M constants stay numerically tame in the simplex.
const defaultBound = 1e6

// Options configures compilation and solving.
type Options struct {
	// Solve bounds the branch & bound search; zero values use solver
	// defaults.
	Solve milp.SolveOptions
	// NumericBound overrides the default ±1e7 box for numeric
	// variables.
	NumericBound float64
	// Memo, when non-nil, caches satisfiability outcomes across calls
	// keyed by the query's structural hash (see Memo). Batch what-if
	// evaluation shares one memo across scenarios so identical slicing
	// tests are solved once.
	Memo *Memo
	// ParamKinds assigns a kind to each open template parameter ($name
	// slots, see expr.Param) appearing in the condition. The slots
	// compile as free model variables named "$name", which makes the
	// verdict sound for every later binding: UNSAT over the free slot is
	// UNSAT for each concrete constant. Entries are merged into the kind
	// map (keyed "$name") before compiling, so memo keys distinguish
	// templates whose parameters differ in kind.
	ParamKinds map[string]types.Kind
}

// Outcome is the result of a satisfiability check.
type Outcome struct {
	// Sat is the verdict; meaningful only when Definitive.
	Sat bool
	// Definitive is false when a solver budget was exhausted; callers
	// must then assume Sat (conservative direction for slicing).
	Definitive bool
	// Model is the witness assignment (variable name → value) when Sat.
	Model map[string]types.Value
	// Nodes reports branch & bound effort.
	Nodes int
	// Vars and Cons report compiled model size.
	Vars, Cons int
}

// Satisfiable compiles the condition and decides whether some
// assignment to its variables makes it true. kinds assigns a type to
// every free variable (variables missing from kinds are treated as
// floats).
func Satisfiable(cond expr.Expr, kinds map[string]types.Kind, opts Options) (*Outcome, error) {
	return SatisfiableCtx(context.Background(), cond, kinds, opts)
}

// SatisfiableCtx is Satisfiable under a context. Cancellation is
// observed at every branch & bound node of the solver, so a cancelled
// check returns ctx.Err() within one node's work. Cancelled outcomes
// are never memoized.
func SatisfiableCtx(ctx context.Context, cond expr.Expr, kinds map[string]types.Kind, opts Options) (*Outcome, error) {
	if len(opts.ParamKinds) > 0 {
		merged := make(map[string]types.Kind, len(kinds)+len(opts.ParamKinds))
		for n, k := range kinds {
			merged[n] = k
		}
		for n, k := range opts.ParamKinds {
			merged["$"+n] = k
		}
		kinds = merged
	}
	simplified := expr.Simplify(cond)
	if opts.Memo == nil {
		return satisfiable(ctx, simplified, kinds, opts)
	}
	key := hashQuery(simplified, kinds, opts)
	if out, ok := opts.Memo.Lookup(key); ok {
		return out, nil
	}
	out, err := satisfiable(ctx, simplified, kinds, opts)
	if err == nil {
		opts.Memo.Store(key, out)
	}
	return out, err
}

// satisfiable compiles and solves an already-simplified condition.
func satisfiable(ctx context.Context, cond expr.Expr, kinds map[string]types.Kind, opts Options) (*Outcome, error) {
	return newCompiler(kinds, opts).solve(ctx, cond)
}

// solve lowers cond into c's model, pins its indicator to 1 and runs
// the solver.
func (c *compiler) solve(ctx context.Context, cond expr.Expr) (*Outcome, error) {
	root, err := c.compileBool(cond)
	if err != nil {
		return nil, err
	}
	if err := c.model.AddConstraint([]milp.Term{{Var: root, Coef: 1}}, milp.EQ, 1); err != nil {
		return nil, err
	}
	res := c.model.SolveCtx(ctx, c.opts.Solve)
	if res.Status == milp.Canceled {
		return nil, ctx.Err()
	}
	out := &Outcome{
		Nodes: res.Nodes,
		Vars:  c.model.NumVars(),
		Cons:  c.model.NumConstraints(),
	}
	switch res.Status {
	case milp.Feasible:
		out.Sat, out.Definitive = true, true
		out.Model = c.extract(res.X)
	case milp.Infeasible:
		out.Sat, out.Definitive = false, true
	default:
		out.Sat, out.Definitive = true, false
	}
	return out, nil
}

// interval is a closed numeric range used to size big-M constants.
type interval struct{ lo, hi float64 }

func (iv interval) width() float64 { return iv.hi - iv.lo }

func ivUnion(a, b interval) interval {
	return interval{math.Min(a.lo, b.lo), math.Max(a.hi, b.hi)}
}

// lin is a linear form Σ coef·var + k.
type lin struct {
	terms map[int]float64
	k     float64
}

func constLin(k float64) lin { return lin{k: k} }

func varLin(v int) lin { return lin{terms: map[int]float64{v: 1}} }

func (l lin) add(o lin, sign float64) lin {
	out := lin{terms: map[int]float64{}, k: l.k + sign*o.k}
	for v, c := range l.terms {
		out.terms[v] += c
	}
	for v, c := range o.terms {
		out.terms[v] += sign * c
	}
	return out
}

func (l lin) scale(f float64) lin {
	out := lin{terms: map[int]float64{}, k: l.k * f}
	for v, c := range l.terms {
		out.terms[v] = c * f
	}
	return out
}

func (l lin) milpTerms(extra ...milp.Term) []milp.Term {
	out := make([]milp.Term, 0, len(l.terms)+len(extra))
	for v, c := range l.terms {
		if c != 0 {
			out = append(out, milp.Term{Var: v, Coef: c})
		}
	}
	return append(out, extra...)
}

type compiler struct {
	model *milp.Model
	kinds map[string]types.Kind
	opts  Options

	vars     map[string]int     // variable name → model index
	varIv    []interval         // interval per model variable
	strCodes map[string]float64 // string constant → code
	strOther map[string]float64 // string variable → private unseen code
	nextCode float64
	names    map[int]string // model index → source variable name

	// Hash-consing caches: structurally identical subexpressions share
	// one indicator / one linear form. Slicing formulas repeat the same
	// statement conditions across four symbolic chains; merging them
	// collapses the solver's search space from 2^(4U) toward 2^U. Both
	// caches key on the number id gives a subexpression: an interner's
	// (equal structure ⇔ equal number), or in tests the rendered-text
	// numbering that keyed these caches before it.
	id       func(expr.Expr) int32
	boolMemo map[int32]int
	numMemo  map[int32]numEntry
}

type numEntry struct {
	l  lin
	iv interval
}

func newCompiler(kinds map[string]types.Kind, opts Options) *compiler {
	return &compiler{
		model:    milp.NewModel(),
		kinds:    kinds,
		opts:     opts,
		vars:     map[string]int{},
		strCodes: map[string]float64{},
		strOther: map[string]float64{},
		nextCode: 1,
		names:    map[int]string{},
		id:       new(interner).id,
		boolMemo: map[int32]int{},
		numMemo:  map[int32]numEntry{},
	}
}

func (c *compiler) bound() float64 {
	if c.opts.NumericBound > 0 {
		return c.opts.NumericBound
	}
	return defaultBound
}

func (c *compiler) addVar(lo, hi float64, integer bool) (int, error) {
	v, err := c.model.AddVar(lo, hi, integer)
	if err != nil {
		return 0, err
	}
	c.varIv = append(c.varIv, interval{lo, hi})
	return v, nil
}

// code returns the integer code of a string constant, assigning one on
// first use.
func (c *compiler) code(s string) float64 {
	if v, ok := c.strCodes[s]; ok {
		return v
	}
	c.strCodes[s] = c.nextCode
	c.nextCode++
	return c.strCodes[s]
}

// sourceVar materializes a named formula variable in the model.
func (c *compiler) sourceVar(name string) (int, interval, error) {
	if v, ok := c.vars[name]; ok {
		return v, c.varIv[v], nil
	}
	kind := types.KindFloat
	if k, ok := c.kinds[name]; ok {
		kind = k
	}
	var v int
	var err error
	switch kind {
	case types.KindBool:
		v, err = c.model.AddBinary()
		if err == nil {
			c.varIv = append(c.varIv, interval{0, 1})
		}
	case types.KindString:
		// Reserve a private "unseen" code so distinct unseen strings
		// stay representable; its slot is above all constant codes.
		other := 10000 + float64(len(c.strOther))
		c.strOther[name] = other
		v, err = c.addVar(0, 20000, false)
	default:
		b := c.bound()
		v, err = c.addVar(-b, b, false)
	}
	if err != nil {
		return 0, interval{}, err
	}
	c.vars[name] = v
	c.names[v] = name
	return v, c.varIv[v], nil
}

// extract converts a solver point back to named values.
func (c *compiler) extract(x []float64) map[string]types.Value {
	out := map[string]types.Value{}
	rev := map[float64]string{}
	for s, code := range c.strCodes {
		rev[code] = s
	}
	for name, idx := range c.vars {
		val := x[idx]
		switch c.kinds[name] {
		case types.KindBool:
			out[name] = types.Bool(math.Round(val) == 1)
		case types.KindString:
			if s, ok := rev[math.Round(val)]; ok {
				out[name] = types.String(s)
				continue
			}
			out[name] = types.String(fmt.Sprintf("<unseen-%d>", int(math.Round(val))))
		case types.KindInt:
			// Attribute variables are relaxed to reals (see the package
			// comment); report the exact relaxation value unless it is
			// integral, so witnesses stay faithful to the model.
			if math.Abs(val-math.Round(val)) <= 1e-6 {
				out[name] = types.Int(int64(math.Round(val)))
			} else {
				out[name] = types.Float(val)
			}
		default:
			out[name] = types.Float(val)
		}
	}
	return out
}
