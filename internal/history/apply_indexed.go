// Indexed incremental statement application: UPDATE and DELETE select
// their candidate rows through the per-column secondary indexes of a
// storage.IndexSet and touch only those rows in place, and both insert
// flavors append with delta-wise index maintenance — O(affected rows)
// per statement instead of a full scan plus rematerialization of the
// relation. This is the apply path behind storage.ApplyMutator, used
// for the versioned store's tip and for replay-private index sets.
//
// Correctness is anchored to the naive loops' left-to-right And
// evaluation with short-circuit on false only (expr.evalAndOr):
// a row may be skipped without evaluating its predicate if and only if
// some conjunct is certainly false on it AND every earlier conjunct is
// certainly error-free on it. The planner therefore only lets a
// conjunct drive an index when every preceding conjunct is "total":
// an equality (Eq/Ne never error), or an ordered comparison whose
// column provably holds a single comparability class matching the
// constant (certified by the column index itself). Rows whose indexed
// column is NULL never short-circuit the conjunction (NULL is not
// false), so they stay candidates and take the residual predicate: the
// full WHERE, evaluated over the candidates by the executor's batch
// kernels (exec.TupleKernel) under expr.Satisfied's semantics.
// DELETE's asymmetry is preserved: a condition evaluating to NULL
// removes the tuple (σ_{¬θ} keeps only ¬θ = true), so even exact
// delete plans remove the NULL positions alongside the key interval.
// Statements outside the indexable subset fall back to the compiled /
// naive full application and invalidate the relation's indexes, so
// routing changes speed, never observable behavior — pinned by the
// every-version differential property tests.
package history

import (
	"fmt"
	"math/bits"
	"strings"
	"sync"

	"github.com/mahif/mahif/internal/exec"
	"github.com/mahif/mahif/internal/expr"
	"github.com/mahif/mahif/internal/schema"
	"github.com/mahif/mahif/internal/storage"
	"github.com/mahif/mahif/internal/types"
)

// conjunct classification ----------------------------------------------------

type conjKind uint8

const (
	ckSimple conjKind = iota // col ∘ const with a non-NULL constant
	ckFalse                  // constant false: the conjunction is false
	ckOpaque                 // anything else; ends the certified prefix
)

type conjunct struct {
	kind conjKind
	col  int        // ordinal (ckSimple)
	op   expr.CmpOp // ckSimple
	k    types.Value
}

// applyAnalysis is the schema-keyed, index-independent half of an
// indexed apply plan: the flattened conjuncts of the WHERE clause in
// evaluation order plus the compiled kernels, which every replay of the
// statement shares. nil analysis (cached as such) means the statement
// is outside the indexable subset.
type applyAnalysis struct {
	conj []conjunct
	del  bool // a DELETE
	// setCols are the non-identity SET targets in column order and set
	// evaluates their expressions.
	setCols []int
	set     *exec.TupleKernel
	// cond is the residual condition over sch: θ for an UPDATE, ¬θ for a
	// DELETE (a candidate survives iff true). Only residual plans
	// evaluate it, and most plans are direct, so residual compiles it on
	// first use.
	cond    expr.Expr
	sch     *schema.Schema
	resOnce sync.Once
	res     *exec.TupleKernel
	resErr  error
}

// residual returns the compiled residual condition.
func (a *applyAnalysis) residual() (*exec.TupleKernel, error) {
	a.resOnce.Do(func() { a.res, a.resErr = exec.CompileTupleKernel(a.cond, nil, a.sch) })
	return a.res, a.resErr
}

// flattenAnd appends the conjuncts of e in evaluation order: And trees
// evaluate left subtree first, and once any conjunct is false all
// later ones are skipped, so the flattened sequence under sequential
// short-circuit-on-false reproduces the nested semantics exactly.
func flattenAnd(e expr.Expr, out []expr.Expr) []expr.Expr {
	if a, ok := e.(*expr.And); ok {
		out = flattenAnd(a.L, out)
		return flattenAnd(a.R, out)
	}
	return append(out, e)
}

// classifyConjunct maps one conjunct to its planner classification.
// ok=false rejects the whole statement from the indexed subset.
func classifyConjunct(e expr.Expr, s *schema.Schema) (conjunct, bool) {
	switch x := e.(type) {
	case *expr.Const:
		if x.V.IsTrue() {
			// Neutral conjunct; the caller drops it.
			return conjunct{kind: ckOpaque, col: -1}, false
		}
		if !x.V.IsNull() && x.V.Kind() == types.KindBool && !x.V.AsBool() {
			return conjunct{kind: ckFalse}, true
		}
		// A NULL or non-boolean constant conjunct: NULL never
		// short-circuits (DELETE would remove every row), non-boolean
		// errors row-wise. Leave both to the reference loops.
		return conjunct{}, false
	case *expr.Cmp:
		col, k, op, ok := simpleCmp(x)
		if !ok {
			return conjunct{kind: ckOpaque, col: -1}, true
		}
		if k.IsNull() {
			// col ∘ NULL evaluates NULL on every row: harmless for
			// UPDATE but it removes every row under DELETE's σ_{¬θ};
			// no index can express that, so fall back.
			return conjunct{}, false
		}
		ord := s.ColIndex(col)
		if ord < 0 {
			return conjunct{}, false
		}
		return conjunct{kind: ckSimple, col: ord, op: op, k: k}, true
	}
	return conjunct{kind: ckOpaque, col: -1}, true
}

// simpleCmp recognizes col ∘ const (either operand order).
func simpleCmp(c *expr.Cmp) (col string, k types.Value, op expr.CmpOp, ok bool) {
	if l, lok := c.L.(*expr.Col); lok {
		if r, rok := c.R.(*expr.Const); rok {
			return l.Name, r.V, c.Op, true
		}
	}
	if l, lok := c.L.(*expr.Const); lok {
		if r, rok := c.R.(*expr.Col); rok {
			return r.Name, l.V, c.Op.Flip(), true
		}
	}
	return "", types.Value{}, 0, false
}

// analyzeConjuncts flattens and classifies a WHERE clause; nil means
// the statement must take the reference loops.
func analyzeConjuncts(where expr.Expr, s *schema.Schema) []conjunct {
	flat := flattenAnd(where, nil)
	out := make([]conjunct, 0, len(flat))
	for _, e := range flat {
		if c, ok := e.(*expr.Const); ok && c.V.IsTrue() {
			continue // neutral
		}
		c, ok := classifyConjunct(e, s)
		if !ok {
			if c.kind == ckFalse {
				out = append(out, c)
				continue
			}
			return nil
		}
		out = append(out, c)
	}
	return out
}

// analyzeUpdate builds the analysis of an UPDATE (vec is the dense SET
// vector; identity columns are skipped exactly as the compiled path
// skips them).
func analyzeUpdate(where expr.Expr, vec []expr.Expr, s *schema.Schema) *applyAnalysis {
	conj := analyzeConjuncts(where, s)
	if conj == nil {
		return nil
	}
	a := &applyAnalysis{conj: conj, cond: where, sch: s}
	var set []expr.Expr
	for i, c := range s.Columns {
		if col, ok := vec[i].(*expr.Col); ok && strings.EqualFold(col.Name, c.Name) {
			continue
		}
		a.setCols = append(a.setCols, i)
		set = append(set, vec[i])
	}
	var err error
	if a.set, err = exec.CompileTupleKernel(nil, set, s); err != nil {
		return nil
	}
	return a
}

// analyzeDelete builds the analysis of a DELETE.
func analyzeDelete(where expr.Expr, s *schema.Schema) *applyAnalysis {
	conj := analyzeConjuncts(where, s)
	if conj == nil {
		return nil
	}
	return &applyAnalysis{conj: conj, del: true, cond: expr.Negation(where), sch: s}
}

// binding --------------------------------------------------------------------

// boundPlan is the index-dependent half of a plan, valid for one
// IndexSet at one availability epoch (the memo guards on both).
type boundPlan struct {
	empty  bool // θ is certainly false on every row (constant false conjunct)
	colOrd int
	idx    *storage.ColumnIndex
	// direct: every conjunct is a certified constraint — the residual
	// reduces to value-level checks of the non-chosen constraints (res),
	// with no compiled predicate and no possibility of evaluation error.
	// exact is the single-column case of direct: the probe interval IS
	// the satisfying set and res is empty.
	direct bool
	exact  bool
	res    []resCheck
	eq     *types.Value
	lo, hi *storage.Bound
	// noteReplace is false when no built index sits on a SET column:
	// rewrites then copy every indexed value verbatim and per-row
	// replace maintenance is provably a no-op, so the commit loop skips
	// it (the epoch guard re-proves this whenever availability moves).
	noteReplace bool
}

// resCheck is one non-chosen certified constraint of a direct plan,
// checked value-wise per candidate row. Certification guarantees the
// check is total: equality never errors, and range comparisons only
// arise when the row's class (maintained by the column index) matches
// the constant's.
type resCheck struct {
	ord    int
	eq     *types.Value
	lo, hi *storage.Bound
}

// satisfies reports whether the non-NULL value v satisfies the
// constraint (the caller handles NULL per statement kind).
func (rc *resCheck) satisfies(v types.Value) bool {
	if rc.eq != nil {
		return v.Equal(*rc.eq)
	}
	if rc.lo != nil {
		c, err := v.Compare(rc.lo.V)
		if err != nil || c < 0 || (c == 0 && rc.lo.Open) {
			return false
		}
	}
	if rc.hi != nil {
		c, err := v.Compare(rc.hi.V)
		if err != nil || c > 0 || (c == 0 && rc.hi.Open) {
			return false
		}
	}
	return true
}

// colConstraint accumulates the certified constraints on one column.
type colConstraint struct {
	col    int
	idx    *storage.ColumnIndex
	eq     *types.Value
	lo, hi *storage.Bound
	empty  bool
}

// tightenEq intersects an equality into the constraint.
func (cc *colConstraint) tightenEq(k types.Value) {
	if cc.eq != nil {
		if !cc.eq.Equal(k) {
			cc.empty = true
		}
		return
	}
	cc.eq = &k
}

// tightenRange intersects one ordered bound into the constraint.
func (cc *colConstraint) tightenRange(op expr.CmpOp, k types.Value) {
	b := &storage.Bound{V: k, Open: op == expr.CmpLt || op == expr.CmpGt}
	if op == expr.CmpGe || op == expr.CmpGt {
		if cc.lo == nil || tighterLo(b, cc.lo) {
			cc.lo = b
		}
	} else {
		if cc.hi == nil || tighterHi(b, cc.hi) {
			cc.hi = b
		}
	}
}

// tighterLo/tighterHi compare same-class bounds (certified by the
// planner before intersecting).
func tighterLo(a, b *storage.Bound) bool {
	c, err := a.V.Compare(b.V)
	if err != nil {
		return false
	}
	return c > 0 || (c == 0 && a.Open && !b.Open)
}

func tighterHi(a, b *storage.Bound) bool {
	c, err := a.V.Compare(b.V)
	if err != nil {
		return false
	}
	return c < 0 || (c == 0 && a.Open && !b.Open)
}

// settle folds an equality into the range (and detects contradiction),
// leaving either eq or lo/hi populated.
func (cc *colConstraint) settle() {
	if cc.empty || cc.eq == nil {
		return
	}
	within := func(b *storage.Bound, wantLo bool) bool {
		c, err := cc.eq.Compare(b.V)
		if err != nil {
			// Class mismatch between the equality constant and the
			// certified range class: no row can satisfy both.
			return false
		}
		if wantLo {
			return c > 0 || (c == 0 && !b.Open)
		}
		return c < 0 || (c == 0 && !b.Open)
	}
	if cc.lo != nil && !within(cc.lo, true) {
		cc.empty = true
	}
	if cc.hi != nil && !within(cc.hi, false) {
		cc.empty = true
	}
	cc.lo, cc.hi = nil, nil
}

// estimate ranks the constraint by expected candidate count.
func (cc *colConstraint) estimate() int {
	if cc.empty {
		return 0
	}
	if cc.eq != nil {
		return cc.idx.EstimateEq(*cc.eq, true)
	}
	n, ok := cc.idx.Estimate(cc.lo, cc.hi, true)
	if !ok {
		return 1 << 30
	}
	return n
}

// bindPlan walks the conjuncts in evaluation order, certifying the
// error-free prefix and collecting index constraints, then picks the
// most selective one. nil means no usable index — note that a nil
// bind never builds indexes (builds happen only for conjuncts that
// then become constraints), so falling back cannot thrash builds.
func bindPlan(a *applyAnalysis, ix *storage.IndexSet, relName string, rel *storage.Relation) *boundPlan {
	var cons []*colConstraint
	byCol := map[int]*colConstraint{}
	constraintFor := func(col int, idx *storage.ColumnIndex) *colConstraint {
		cc := byCol[col]
		if cc == nil {
			cc = &colConstraint{col: col, idx: idx}
			byCol[col] = cc
			cons = append(cons, cc)
		}
		return cc
	}
	covered := true        // no conjunct ended the prefix early
	allConstrained := true // every conjunct became a constraint
	neSeen := false

loop:
	for _, c := range a.conj {
		switch c.kind {
		case ckFalse:
			// θ short-circuits false here for every row, and the
			// certified prefix before this point cannot error: the
			// statement is a no-op (UPDATE) / keeps everything (DELETE).
			return &boundPlan{empty: true}
		case ckOpaque:
			covered, allConstrained = false, false
			break loop
		case ckSimple:
			switch c.op {
			case expr.CmpNe:
				// Never errors, so it is a safe prefix member, but as a
				// constraint it excludes almost nothing: residual-only.
				neSeen = true
				continue
			case expr.CmpEq:
				// Never errors regardless of classes (cross-class
				// equality is false, not an error), so the prefix stays
				// certified even without an index.
				if idx := ix.Hashed(relName, rel, c.col); idx != nil {
					constraintFor(c.col, idx).tightenEq(c.k)
				} else {
					allConstrained = false
				}
				continue
			default:
				// Ordered comparison: certification requires an index
				// whose observed class matches the constant's class
				// (IndexNone — a column of only NULLs — is vacuously
				// safe: every comparison evaluates to NULL).
				idx := ix.Ordered(relName, rel, c.col)
				if idx == nil {
					covered, allConstrained = false, false
					break loop
				}
				cls := idx.Class()
				if cls != storage.IndexNone && cls != storage.ClassOf(c.k) {
					covered, allConstrained = false, false
					break loop
				}
				constraintFor(c.col, idx).tightenRange(c.op, c.k)
			}
		}
	}
	if len(cons) == 0 {
		return nil
	}
	anyEmpty := false
	for _, cc := range cons {
		cc.settle()
		anyEmpty = anyEmpty || cc.empty
	}
	if anyEmpty {
		// Contradictory constraints on some column: θ is false on every
		// row with a non-NULL value there and NULL otherwise. For UPDATE
		// that is a no-op either way; for DELETE the θ = NULL rows must
		// still be removed, which no probe shape expresses — reference
		// path.
		if a.del {
			return nil
		}
		return &boundPlan{empty: true}
	}
	best := cons[0]
	for _, cc := range cons[1:] {
		if cc.estimate() < best.estimate() {
			best = cc
		}
	}
	direct := covered && allConstrained && !neSeen
	p := &boundPlan{
		colOrd:      best.col,
		idx:         best.idx,
		eq:          best.eq,
		lo:          best.lo,
		hi:          best.hi,
		direct:      direct,
		exact:       direct && len(cons) == 1,
		noteReplace: ix.HasIndexOnAny(relName, a.setCols),
	}
	if direct && len(cons) > 1 {
		for _, cc := range cons {
			if cc == best {
				continue
			}
			p.res = append(p.res, resCheck{ord: cc.col, eq: cc.eq, lo: cc.lo, hi: cc.hi})
		}
	}
	return p
}

// execution ------------------------------------------------------------------

// probe collects the plan's candidate positions as a bitmap over row
// positions: iteration order over set bits is ascending by
// construction, replacing a per-statement sort, and the bitmap plus
// the position buffer both come from the set's reusable scratch.
// ok=false means the index could not answer after all (defensive; the
// caller falls back and invalidates). count bounds the number of
// candidates (bitmap deduplication can only shrink it).
func (p *boundPlan) probe(ix *storage.IndexSet, nRows int, withNulls bool) (bm []uint64, count int, ok bool) {
	sc := ix.Scratch()
	buf := sc.Pos[:0]
	var cand []int32
	if p.eq != nil {
		cand, ok = p.idx.Eq(*p.eq, withNulls, buf)
	} else {
		cand, ok = p.idx.Range(p.lo, p.hi, withNulls, buf)
	}
	if cand != nil {
		sc.Pos = cand[:0] // keep the (possibly grown) backing array
	}
	if !ok {
		return nil, 0, false
	}
	bm = sc.Bitmap((nRows + 63) / 64)
	for _, pos := range cand {
		if pos < 0 || int(pos) >= nRows {
			return nil, 0, false
		}
		bm[pos>>6] |= 1 << (uint(pos) & 63)
	}
	return bm, len(cand), true
}

// candidates lists the bitmap's set positions in ascending order, in
// the set's scratch: the probe's position buffer is free again once the
// bitmap is built.
func candidates(bm []uint64, sc *storage.ApplyScratch) []int32 {
	pos := sc.Pos[:0]
	for w, bw := range bm {
		base := w << 6
		for bw != 0 {
			b := bits.TrailingZeros64(bw)
			bw &= bw - 1
			pos = append(pos, int32(base+b))
		}
	}
	sc.Pos = pos[:0]
	return pos
}

// resHold reports whether every non-chosen constraint of a direct plan
// holds on t. A NULL cell makes its conjunct, and so θ, NULL: an UPDATE
// skips the row and a DELETE (del) removes it, so it holds iff del.
func (p *boundPlan) resHold(t schema.Tuple, del bool) bool {
	for i := range p.res {
		v := t[p.res[i].ord]
		if v.IsNull() {
			if !del {
				return false
			}
			continue
		}
		if !p.res[i].satisfies(v) {
			return false
		}
	}
	return true
}

// residual returns a's residual kernel when p needs one — nil for a
// direct plan. An error means the condition is outside the compilable
// subset, and the statement takes the full application instead.
func (p *boundPlan) residual(a *applyAnalysis) (*exec.TupleKernel, error) {
	if p.direct {
		return nil, nil
	}
	return a.residual()
}

// touched narrows cand — candidate positions, ascending — in place to
// the rows the statement touches and returns them with the values of
// set's expressions over those rows, len(exprs) per row (none when set
// is nil). It works a chunk of candidates at a time and writes nothing
// to the relation, so an evaluation error leaves the state as it was;
// it errors iff the reference loop errors. Exact plans touch every
// candidate, direct plans the candidates whose remaining constraints
// hold (resHold), residual plans the rows where the residual kernel's
// condition holds — θ for an UPDATE — or, for a DELETE (del), where it
// does not (¬θ, kept iff true).
func (p *boundPlan) touched(rel *storage.Relation, sc *storage.ApplyScratch, cand []int32, residual, set *exec.TupleKernel, del bool) ([]int32, []types.Value, error) {
	vals := sc.Vals[:0]
	n := 0
	for lo := 0; lo < len(cand); lo += exec.DefaultBatchSize {
		chunk := cand[lo:min(lo+exec.DefaultBatchSize, len(cand))]
		start := n
		rows := sc.Rows[:0]
		for _, at := range chunk {
			t := rel.Tuples[at]
			if p.direct && !p.exact && !p.resHold(t, del) {
				continue
			}
			cand[n] = at // n never passes the read position
			rows = append(rows, t)
			n++
		}
		sc.Rows = rows[:0]
		if !p.direct {
			keep := sc.Flags(len(rows))
			if _, err := residual.Eval(rows, keep, nil); err != nil {
				return nil, nil, err
			}
			n = start
			for i, k := range keep {
				if k != del {
					cand[n], rows[n-start] = cand[start+i], rows[i]
					n++
				}
			}
			rows = rows[:n-start]
		}
		if set == nil {
			continue
		}
		var err error
		if vals, err = set.Eval(rows, nil, vals); err != nil {
			sc.Vals = vals[:0]
			return nil, nil, err
		}
	}
	sc.Vals = vals[:0] // the caller reads vals before the next statement
	return cand[:n], vals, nil
}

// runIndexedUpdate applies an UPDATE through its bound plan: probe the
// candidates, evaluate residual θ and the SET vector over them
// (errors iff the reference loop errors), and stage every value before
// writing any, so an evaluation error leaves the state untouched,
// exactly as a failed statement must (it never enters the history).
// When no index sits on a SET column the staged values are written
// into the resident tuples in place — safe because the indexed apply
// path only ever runs against privately owned states (see
// storage.ApplyMutator) whose shared views are deep clones. When an
// index must observe the rewrite, fresh rows are carved from an arena
// so maintenance sees distinct old/new tuples.
func runIndexedUpdate(rel *storage.Relation, relName string, ix *storage.IndexSet, a *applyAnalysis, p *boundPlan) (applied bool, err error) {
	if p.empty {
		return true, nil
	}
	// Exact plans touch only rows certainly satisfying θ; residual
	// plans must include NULL-keyed rows (NULL never short-circuits
	// the conjunction, so later conjuncts still evaluate on them).
	// Direct plans (every conjunct a certified constraint) exclude
	// NULL-keyed rows from the probe: some constrained column is NULL ⇒
	// that conjunct is NULL ⇒ θ is not true, and certification
	// guarantees skipping the row cannot hide an evaluation error.
	// Residual plans must include them — NULL never short-circuits the
	// conjunction, so the compiled θ still evaluates on them.
	bm, count, ok := p.probe(ix, len(rel.Tuples), !p.direct)
	if !ok {
		return false, nil
	}
	sc := ix.Scratch()
	nset := len(a.setCols)
	if cap(sc.Vals) < count*nset {
		sc.Vals = make([]types.Value, 0, count*nset)
	}
	residual, err := p.residual(a)
	if err != nil {
		return false, nil
	}
	pos, vals, err := p.touched(rel, sc, candidates(bm, sc), residual, a.set, false)
	if err != nil {
		return true, err
	}
	if len(pos) == 0 || nset == 0 {
		// No satisfying rows, or an all-identity SET vector: writing
		// back value-identical contents has no observable effect.
		return true, nil
	}
	if !p.noteReplace {
		// No index sits on a SET column, so the rewrite cannot move an
		// indexed key: write the staged values into the resident tuples
		// directly. The private-ownership contract of the indexed apply
		// path (see storage.ApplyMutator) makes this invisible — every
		// shared view of the state is a deep clone, so no reader holds
		// these tuple objects.
		for i, at := range pos {
			t := rel.Tuples[at]
			for j, ord := range a.setCols {
				t[ord] = vals[i*nset+j]
			}
		}
		return true, nil
	}
	// An indexed column is being SET: rewrite through fresh rows carved
	// from one arena so the maintenance hook sees distinct old and new
	// tuples (rows never mutate in place once their old value feeds
	// index maintenance; sharing one backing array is unobservable).
	arity := rel.Schema.Arity()
	arena := make([]types.Value, len(pos)*arity)
	for i, at := range pos {
		row := schema.Tuple(arena[i*arity : (i+1)*arity : (i+1)*arity])
		old := rel.Tuples[at]
		copy(row, old)
		for j, ord := range a.setCols {
			row[ord] = vals[i*nset+j]
		}
		rel.Tuples[at] = row
		ix.NoteReplace(relName, int(at), old, row)
	}
	return true, nil
}

// runIndexedDelete applies a DELETE through its bound plan. Candidates
// always include the NULL positions: θ = NULL removes the tuple under
// σ_{¬θ}. A direct plan removes a candidate iff θ ∈ {true, NULL} — no
// conjunct is false, so every constrained column is NULL or satisfies
// its constraint (the chosen column's candidates already are its
// interval plus its NULLs); a residual plan removes it iff ¬θ is not
// true. Survivors keep their relative order in a fresh compacted slice
// (slice-header surgery only), and the indexes renumber in one pass.
func runIndexedDelete(rel *storage.Relation, relName string, ix *storage.IndexSet, a *applyAnalysis, p *boundPlan) (applied bool, err error) {
	if p.empty {
		return true, nil
	}
	bm, _, ok := p.probe(ix, len(rel.Tuples), true)
	if !ok {
		return false, nil
	}
	residual, err := p.residual(a)
	if err != nil {
		return false, nil
	}
	sc := ix.Scratch()
	removed, _, err := p.touched(rel, sc, candidates(bm, sc), residual, nil, true)
	if err != nil {
		return true, err
	}
	if len(removed) == 0 {
		return true, nil
	}
	keep := make([]schema.Tuple, 0, len(rel.Tuples)-len(removed))
	d := 0
	for pos, t := range rel.Tuples {
		if d < len(removed) && removed[d] == int32(pos) {
			d++
			continue
		}
		keep = append(keep, t)
	}
	rel.Tuples = keep
	ix.NoteDelete(relName, removed)
	return true, nil
}

// statement entry points -----------------------------------------------------

// ApplyIndexed implements storage.IndexedMutator for UPDATE.
func (u *Update) ApplyIndexed(db *storage.Database, ix *storage.IndexSet) error {
	rel, err := db.Relation(u.Rel)
	if err != nil {
		return err
	}
	vec, err := u.setVector(rel.Schema)
	if err != nil {
		return err
	}
	if err := expr.Validate(u.Where, rel.Schema); err != nil {
		return err
	}
	for _, sc := range u.Set {
		if err := expr.Validate(sc.E, rel.Schema); err != nil {
			return err
		}
	}
	if a := u.memo.analysis(rel.Schema, func() *applyAnalysis {
		return analyzeUpdate(u.Where, vec, rel.Schema)
	}); a != nil {
		if p := u.memo.bind(a, ix, u.Rel, rel); p != nil {
			if applied, err := runIndexedUpdate(rel, u.Rel, ix, a, p); applied {
				return err
			}
		}
	}
	// Full application rematerializes (or partially mutates, in the
	// naive error case) the relation, after which the indexes can no
	// longer vouch for row positions.
	defer ix.Invalidate(u.Rel)
	if done, err := u.applyCompiled(db, rel, vec); done {
		return err
	}
	return u.applyNaive(rel, vec)
}

// ApplyIndexed implements storage.IndexedMutator for DELETE.
func (d *Delete) ApplyIndexed(db *storage.Database, ix *storage.IndexSet) error {
	rel, err := db.Relation(d.Rel)
	if err != nil {
		return err
	}
	if err := expr.Validate(d.Where, rel.Schema); err != nil {
		return err
	}
	if a := d.memo.analysis(rel.Schema, func() *applyAnalysis {
		return analyzeDelete(d.Where, rel.Schema)
	}); a != nil {
		if p := d.memo.bind(a, ix, d.Rel, rel); p != nil {
			if applied, err := runIndexedDelete(rel, d.Rel, ix, a, p); applied {
				return err
			}
		}
	}
	defer ix.Invalidate(d.Rel)
	if done, err := d.applyCompiled(db, rel); done {
		return err
	}
	return d.applyNaive(rel)
}

// ApplyIndexed implements storage.IndexedMutator for INSERT VALUES:
// the plain append plus delta-wise index maintenance for its rows.
func (i *InsertValues) ApplyIndexed(db *storage.Database, ix *storage.IndexSet) error {
	rel, err := db.Relation(i.Rel)
	if err != nil {
		return err
	}
	first := len(rel.Tuples)
	if err := i.Apply(db); err != nil {
		return err
	}
	ix.NoteAppend(i.Rel, rel, first)
	return nil
}

// ApplyIndexed implements storage.IndexedMutator for INSERT…SELECT:
// the query still evaluates through the executor, but the appended
// rows maintain the target's indexes instead of invalidating them.
func (i *InsertQuery) ApplyIndexed(db *storage.Database, ix *storage.IndexSet) error {
	rel, err := db.Relation(i.Rel)
	if err != nil {
		return err
	}
	res, err := evalStatementQuery(i.Query, db)
	if err != nil {
		return fmt.Errorf("history: INSERT…SELECT into %s: %w", i.Rel, err)
	}
	if res.Schema.Arity() != rel.Schema.Arity() {
		return fmt.Errorf("history: INSERT…SELECT arity %d does not match %s", res.Schema.Arity(), rel.Schema)
	}
	first := len(rel.Tuples)
	for _, t := range res.Tuples {
		rel.Tuples = append(rel.Tuples, t.Clone())
	}
	ix.NoteAppend(i.Rel, rel, first)
	return nil
}
