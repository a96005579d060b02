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
	"cmp"
	"context"
	"fmt"
	"math"
	"slices"

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
	// Nodes, Visits and LPs report the solver's effort: branch & bound
	// nodes, constraint evaluations of interval propagation, and LP
	// solves. A check on a Prefix counts only its own pass from the
	// prefix's fixpoint; Prefix.Visits holds the prefix's pass.
	Nodes, Visits, LPs int
	// Fallback is set when the check's prefix had run out of
	// propagation budget, so the check propagated every row itself.
	Fallback bool
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
// are never memoized. It is the one-check case of a Prefix — the same
// simplification, memo key and lowering — so a caller asking many
// questions that share a leading conjunct should build the Prefix
// itself.
func SatisfiableCtx(ctx context.Context, cond expr.Expr, kinds map[string]types.Kind, opts Options) (*Outcome, error) {
	return NewPrefix(cond, kinds, opts).SatisfiableCtx(ctx)
}

// withParamKinds returns kinds with every open template parameter of
// params added under its "$name" variable.
func withParamKinds(kinds, params map[string]types.Kind) map[string]types.Kind {
	if len(params) == 0 {
		return kinds
	}
	merged := make(map[string]types.Kind, len(kinds)+len(params))
	for n, k := range kinds {
		merged[n] = k
	}
	for n, k := range params {
		merged["$"+n] = k
	}
	return merged
}

// build lowers cond into c's model and pins its indicator to 1.
func (c *compiler) build(cond expr.Expr) error {
	root, err := c.compileBool(cond)
	if err != nil {
		return err
	}
	return c.model.AddConstraint([]milp.Term{{Var: root, Coef: 1}}, milp.EQ, 1)
}

// solve builds cond's model and runs the solver on it.
func (c *compiler) solve(ctx context.Context, cond expr.Expr) (*Outcome, error) {
	if err := c.build(cond); err != nil {
		return nil, err
	}
	return c.run(ctx)
}

// run solves the model build made.
func (c *compiler) run(ctx context.Context) (*Outcome, error) {
	res := c.model.SolveCtx(ctx, c.opts.Solve)
	if res.Status == milp.Canceled {
		return nil, ctx.Err()
	}
	out := &Outcome{
		Nodes:    res.Nodes,
		Visits:   res.Visits,
		LPs:      res.LPs,
		Fallback: res.Fallback,
		Vars:     c.model.NumVars(),
		Cons:     c.model.NumConstraints(),
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

// milpTerms returns the form's nonzero terms in ascending variable
// order, then extra: two lowerings of one formula emit byte-identical
// constraints.
func (l lin) milpTerms(extra ...milp.Term) []milp.Term {
	out := make([]milp.Term, 0, len(l.terms)+len(extra))
	for v, c := range l.terms {
		if c != 0 {
			out = append(out, milp.Term{Var: v, Coef: c})
		}
	}
	slices.SortFunc(out, func(a, b milp.Term) int { return cmp.Compare(a.Var, b.Var) })
	return append(out, extra...)
}

// compiler lowers conditions into one model. A compiler either starts
// empty (newCompiler) or extends the frozen state of another (above):
// every table below is then a layer over the other compiler's, read
// through and never written.
type compiler struct {
	model *milp.Model
	kinds map[string]types.Kind
	opts  Options

	vars     layer[string, srcVar]  // variable name → model variable
	strCodes layer[string, float64] // string constant → code
	nextCode float64

	// Hash-consing caches: structurally identical subexpressions share
	// one indicator / one linear form. Slicing formulas repeat the same
	// statement conditions across four symbolic chains; merging them
	// collapses the solver's search space from 2^(4U) toward 2^U. Both
	// caches key on the number id gives a subexpression: the interner's
	// (equal structure ⇔ equal number), or in tests the rendered-text
	// numbering that keyed these caches before it.
	in       *interner
	id       func(expr.Expr) int32
	boolMemo layer[int32, int]
	numMemo  layer[int32, numEntry]

	// lowered counts the expression nodes this compiler lowered into
	// its model: one per hash-consing miss.
	lowered int
}

// srcVar is the model variable of a named formula variable and the
// interval it was created with.
type srcVar struct {
	idx int
	iv  interval
}

type numEntry struct {
	l  lin
	iv interval
}

func newCompiler(kinds map[string]types.Kind, opts Options) *compiler {
	in := new(interner)
	return &compiler{
		model:    milp.NewModel(),
		kinds:    kinds,
		opts:     opts,
		vars:     layer[string, srcVar]{own: map[string]srcVar{}},
		strCodes: layer[string, float64]{own: map[string]float64{}},
		nextCode: 1,
		in:       in,
		id:       in.id,
		boolMemo: layer[int32, int]{own: map[int32]int{}},
		numMemo:  layer[int32, numEntry]{own: map[int32]numEntry{}},
	}
}

// above returns a compiler that goes on from c's state as if it were c:
// it reads c's model, tables and memos and writes only its own, so
// lowering onto it costs what is new and c is left as it was. c must
// not change any more, and must itself be a newCompiler (layers are one
// deep). nodes sizes the per-node tables for what the child will add.
func (c *compiler) above(nodes int) *compiler {
	in := c.in.above(nodes)
	return &compiler{
		model:    c.model.Fork(),
		kinds:    c.kinds,
		opts:     c.opts,
		vars:     c.vars.above(0),
		strCodes: c.strCodes.above(0),
		nextCode: c.nextCode,
		in:       in,
		id:       in.id,
		boolMemo: c.boolMemo.above(nodes),
		numMemo:  c.numMemo.above(nodes),
	}
}

// code returns the integer code of a string constant, assigning one on
// first use.
func (c *compiler) code(s string) float64 {
	if v, ok := c.strCodes.get(s); ok {
		return v
	}
	v := c.nextCode
	c.strCodes.put(s, v)
	c.nextCode++
	return v
}

// sourceVar materializes a named formula variable in the model.
func (c *compiler) sourceVar(name string) (int, interval, error) {
	if sv, ok := c.vars.get(name); ok {
		return sv.idx, sv.iv, nil
	}
	kind := types.KindFloat
	if k, ok := c.kinds[name]; ok {
		kind = k
	}
	var iv interval
	switch kind {
	case types.KindBool:
		iv = interval{0, 1}
	case types.KindString:
		// Constant codes count up from 1; the rest of the range stands
		// for strings the formula never names, so distinct unseen
		// strings stay representable.
		iv = interval{0, 20000}
	default:
		iv = interval{-defaultBound, defaultBound}
	}
	v, err := c.model.AddVar(iv.lo, iv.hi, kind == types.KindBool)
	if err != nil {
		return 0, interval{}, err
	}
	c.vars.put(name, srcVar{idx: v, iv: iv})
	return v, iv, nil
}

// extract converts a solver point back to named values.
func (c *compiler) extract(x []float64) map[string]types.Value {
	out := make(map[string]types.Value, c.vars.len())
	rev := make(map[float64]string, c.strCodes.len())
	c.strCodes.each(func(s string, code float64) { rev[code] = s })
	c.vars.each(func(name string, sv srcVar) {
		val := x[sv.idx]
		switch c.kinds[name] {
		case types.KindBool:
			out[name] = types.Bool(math.Round(val) == 1)
		case types.KindString:
			if s, ok := rev[math.Round(val)]; ok {
				out[name] = types.String(s)
			} else {
				out[name] = types.String(fmt.Sprintf("<unseen-%d>", int(math.Round(val))))
			}
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
	})
	return out
}
