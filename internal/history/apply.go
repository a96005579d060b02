// Statement application: UPDATE and DELETE run one pipeline wherever
// they apply — the live tip, time-travel replay, crash recovery and the
// naive algorithm's history execution. A plan picks the candidate rows:
// an index probe through the per-column secondary indexes of a
// storage.IndexSet when the WHERE clause binds one, every row position
// (the scan plan) otherwise, and always for a plain Apply, which has no
// index set. The executor's batch kernels (exec.TupleKernel) evaluate
// the residual condition and the SET vector over the candidates, every
// value is staged before any is written, and the write goes in place or
// through fresh rows whose delta-wise index maintenance keeps the set
// valid. Both insert flavors append with delta-wise index maintenance.
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
// full WHERE, evaluated over the candidates by the batch kernels under
// expr.Satisfied's semantics. DELETE's asymmetry is preserved: a
// condition evaluating to NULL removes the tuple (σ_{¬θ} keeps only
// ¬θ = true), so even exact delete plans remove the NULL positions
// alongside the key interval. A condition or SET expression outside the
// kernel compiler's subset (a symbolic variable) takes the naive loops,
// and only that fallback invalidates the relation's indexes, so routing
// changes speed, never observable behavior — pinned by the
// every-version differential property tests.
package history

import (
	"math/bits"
	"strings"
	"sync"

	"github.com/mahif/mahif/internal/exec"
	"github.com/mahif/mahif/internal/expr"
	"github.com/mahif/mahif/internal/schema"
	"github.com/mahif/mahif/internal/storage"
	"github.com/mahif/mahif/internal/types"
)

// planMemo caches a statement's apply plan. Statements are immutable
// once logged but replayed many times (every VersionCtx / snapshot
// extension walks the redo log), so the analysis — the index-independent
// half of the plan, with its compiled kernels — is computed once per
// schema layout: database clones carry fresh *Schema values, and
// kernels compiled against one layout run against any layout-equal
// relation (they address column ordinals; runtime dispatch is
// value-kind based). The bound plan additionally depends on WHICH
// indexes exist, so its key is the IndexSet's identity and availability
// epoch: a plan bound when an index existed (or was known absent) is
// stale the moment availability changes — builds, drops, and
// invalidations all bump the epoch — and schema layout alone could
// never detect that. Only successful bindings are cached; a nil bind
// re-checks on the next Apply (it is a handful of map lookups) so an
// index built later is picked up without any epoch traffic.
type planMemo struct {
	mu        sync.Mutex
	anaSch    *schema.Schema
	ana       *applyAnalysis
	bindIx    *storage.IndexSet
	bindEpoch uint64
	bound     *boundPlan
}

// analysis returns the cached analysis for a layout-equal schema,
// computing and caching it (nil included) on layout change.
func (m *planMemo) analysis(sch *schema.Schema, build func() *applyAnalysis) *applyAnalysis {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.anaSch != nil && m.anaSch.Equal(sch) {
		return m.ana
	}
	m.anaSch, m.ana = sch, build()
	// A new layout invalidates any bound plan regardless of epoch.
	m.bindIx, m.bound = nil, nil
	return m.ana
}

// plan returns the plan for rel: the index plan bound against ix at its
// current availability epoch, rebinding when the set or its epoch
// moved, or the scan plan when ix is nil (a plain Apply never builds an
// index) or no index binds.
func (m *planMemo) plan(a *applyAnalysis, ix *storage.IndexSet, relName string, rel *storage.Relation) *boundPlan {
	if ix == nil {
		return scanPlan
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.bound != nil && m.bindIx == ix && m.bindEpoch == ix.Epoch() {
		return m.bound
	}
	m.bindIx, m.bound = nil, nil
	p := bindPlan(a, ix, relName, rel)
	if p == nil {
		return scanPlan
	}
	// Binding may have built indexes (bumping the epoch); key the cache
	// on the post-build epoch.
	m.bindIx, m.bindEpoch, m.bound = ix, ix.Epoch(), p
	return p
}

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
// apply plan: the flattened conjuncts of the WHERE clause in
// evaluation order plus the compiled kernels, which every replay of the
// statement shares. A nil analysis (cached as such) means the SET
// vector is outside the kernel compiler's subset.
type applyAnalysis struct {
	conj []conjunct
	del  bool // a DELETE
	// setCols are the non-identity SET targets in column order and set
	// evaluates their expressions.
	setCols []int
	set     *exec.TupleKernel
	// cond is the residual condition over sch: θ for an UPDATE, ¬θ for a
	// DELETE (a candidate survives iff true). Only residual and scan
	// plans evaluate it, and most tip plans are direct, so residual
	// compiles it on first use.
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
// A NULL or non-boolean constant and col ∘ NULL are opaque: none ever
// short-circuits the conjunction (NULL is not false, a non-boolean
// errors row-wise), so no index can exclude a row on their account and
// the residual kernel evaluates them.
func classifyConjunct(e expr.Expr, s *schema.Schema) conjunct {
	switch x := e.(type) {
	case *expr.Const:
		if !x.V.IsNull() && x.V.Kind() == types.KindBool && !x.V.AsBool() {
			return conjunct{kind: ckFalse}
		}
	case *expr.Cmp:
		if col, k, op, ok := simpleCmp(x); ok && !k.IsNull() {
			if ord := s.ColIndex(col); ord >= 0 {
				return conjunct{kind: ckSimple, col: ord, op: op, k: k}
			}
		}
	}
	return conjunct{kind: ckOpaque}
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

// analyzeConjuncts flattens and classifies a WHERE clause, dropping
// neutral TRUE conjuncts.
func analyzeConjuncts(where expr.Expr, s *schema.Schema) []conjunct {
	flat := flattenAnd(where, nil)
	out := make([]conjunct, 0, len(flat))
	for _, e := range flat {
		if c, ok := e.(*expr.Const); ok && c.V.IsTrue() {
			continue
		}
		out = append(out, classifyConjunct(e, s))
	}
	return out
}

// analyzeUpdate builds the analysis of an UPDATE (vec is the dense SET
// vector; identity columns are skipped, since rewriting a column with
// its own value is unobservable).
func analyzeUpdate(where expr.Expr, vec []expr.Expr, s *schema.Schema) *applyAnalysis {
	a := &applyAnalysis{conj: analyzeConjuncts(where, s), cond: where, sch: s}
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
	return &applyAnalysis{conj: analyzeConjuncts(where, s), del: true, cond: expr.Negation(where), sch: s}
}

// binding --------------------------------------------------------------------

// boundPlan is the index-dependent half of a plan, valid for one
// IndexSet at one availability epoch (the memo guards on both). A plan
// without an index (idx nil, not empty) is the scan plan.
type boundPlan struct {
	empty bool // θ is certainly false on every row (constant false conjunct)
	idx   *storage.ColumnIndex
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
}

// scanPlan is the plan of a statement no index answers: every row
// position is a candidate, and the residual kernel decides.
var scanPlan = &boundPlan{}

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
// most selective one. nil means no usable index — the statement takes
// the scan plan. A nil bind never builds indexes (builds happen only
// for conjuncts that then become constraints), so it cannot thrash
// builds.
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
		// still be removed, which no probe shape expresses — scan plan.
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
		idx:    best.idx,
		eq:     best.eq,
		lo:     best.lo,
		hi:     best.hi,
		direct: direct,
		exact:  direct && len(cons) == 1,
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

// candidates returns the positions p selects, ascending, in sc's
// position buffer, together with the plan that selected them. An index
// plan probes its index into a bitmap over row positions: iteration
// over set bits is ascending by construction, replacing a
// per-statement sort. The scan plan — also taken when the index cannot
// answer the probe after all — selects every position.
func (p *boundPlan) candidates(sc *storage.ApplyScratch, nRows int, withNulls bool) (*boundPlan, []int32) {
	var bm []uint64
	if p.idx != nil {
		var ok bool
		if bm, ok = p.probe(sc, nRows, withNulls); !ok {
			p = scanPlan
		}
	}
	pos := sc.Pos[:0]
	if p.idx == nil {
		for i := range nRows {
			pos = append(pos, int32(i))
		}
	}
	for w, bw := range bm {
		base := w << 6
		for bw != 0 {
			b := bits.TrailingZeros64(bw)
			bw &= bw - 1
			pos = append(pos, int32(base+b))
		}
	}
	sc.Pos = pos[:0]
	return p, pos
}

// probe collects the index plan's candidates as a bitmap over row
// positions, from sc's reusable bitmap; the probe's position buffer is
// free again once the bitmap is built. ok=false means the index could
// not answer after all.
func (p *boundPlan) probe(sc *storage.ApplyScratch, nRows int, withNulls bool) (bm []uint64, ok bool) {
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
		return nil, false
	}
	bm = sc.Bitmap((nRows + 63) / 64)
	for _, pos := range cand {
		if pos < 0 || int(pos) >= nRows {
			return nil, false
		}
		bm[pos>>6] |= 1 << (uint(pos) & 63)
	}
	return bm, true
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
// direct plan. An error means the condition is outside the kernel
// compiler's subset, and the statement takes the naive loop instead.
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
// hold (resHold), residual and scan plans the rows where the residual
// kernel's condition holds — θ for an UPDATE — or, for a DELETE (del), where it
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

// scratch returns ix's reusable apply scratch, or a private one for a
// plain Apply: concurrent plain applies of one statement share its
// analysis but never a scratch.
func scratch(ix *storage.IndexSet) *storage.ApplyScratch {
	if ix == nil {
		return &storage.ApplyScratch{}
	}
	return ix.Scratch()
}

// runUpdate applies an UPDATE through plan p (ix is nil for a plain
// Apply): gather the candidates, evaluate residual θ and the SET vector
// over them (errors iff the reference loop errors), and stage every
// value before writing any, so an evaluation error leaves the state
// untouched, exactly as a failed statement must (it never enters the
// history). When the relation owns its rows and no index sits on a SET
// column the staged values are written into the resident tuples in
// place — safe because statements only ever apply to privately owned
// states (see storage.Mutator). Otherwise a touched row is replaced by
// a fresh one carved from an arena: a snapshot replay's rows are shared
// with the published state it started from, which must not change
// (storage.Relation.PrepareRewrite), and an index on a SET column must
// observe distinct old/new tuples (NoteReplace). done is false when the
// residual condition is outside the kernel compiler's subset.
func runUpdate(rel *storage.Relation, relName string, ix *storage.IndexSet, a *applyAnalysis, p *boundPlan) (done bool, err error) {
	if p.empty {
		return true, nil
	}
	// Exact plans touch only rows certainly satisfying θ. Direct plans
	// (every conjunct a certified constraint) exclude NULL-keyed rows
	// from the probe: some constrained column is NULL ⇒ that conjunct is
	// NULL ⇒ θ is not true, and certification guarantees skipping the
	// row cannot hide an evaluation error. Residual plans must include
	// them — NULL never short-circuits the conjunction, so the compiled
	// θ still evaluates on them.
	sc := scratch(ix)
	p, cand := p.candidates(sc, len(rel.Tuples), !p.direct)
	nset := len(a.setCols)
	if p.idx != nil && cap(sc.Vals) < len(cand)*nset {
		sc.Vals = make([]types.Value, 0, len(cand)*nset)
	}
	residual, err := p.residual(a)
	if err != nil {
		return false, nil
	}
	pos, vals, err := p.touched(rel, sc, cand, residual, a.set, false)
	if err != nil {
		return true, err
	}
	if len(pos) == 0 || nset == 0 {
		// No satisfying rows, or an all-identity SET vector: writing
		// back value-identical contents has no observable effect.
		return true, nil
	}
	indexed := ix != nil && ix.HasIndexOnAny(relName, a.setCols)
	if rel.PrepareRewrite(len(pos)) && !indexed {
		// The relation owns its rows and no index sits on a SET column,
		// so the rewrite can neither be seen through another relation nor
		// move an indexed key: write the staged values into the resident
		// tuples directly.
		for i, at := range pos {
			t := rel.Tuples[at]
			for j, ord := range a.setCols {
				t[ord] = vals[i*nset+j]
			}
		}
		return true, nil
	}
	// An indexed column is being SET, or the rows belong to a published
	// state too: rewrite through fresh rows carved from one arena, so the
	// maintenance hook sees distinct old and new tuples and the shared
	// old ones stay as they were (sharing one backing array among the
	// fresh rows is unobservable).
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
		if indexed {
			ix.NoteReplace(relName, int(at), old, row)
		}
	}
	return true, nil
}

// runDelete applies a DELETE through plan p (ix is nil for a plain
// Apply). Index candidates always include the NULL positions: θ = NULL
// removes the tuple under σ_{¬θ}. A direct plan removes a candidate iff
// θ ∈ {true, NULL} — no conjunct is false, so every constrained column
// is NULL or satisfies its constraint (the chosen column's candidates
// already are its interval plus its NULLs); residual and scan plans
// remove it iff ¬θ is not true. Survivors keep their relative order in
// a fresh compacted slice (slice-header surgery only), and the indexes
// renumber in one pass. done is as for runUpdate.
func runDelete(rel *storage.Relation, relName string, ix *storage.IndexSet, a *applyAnalysis, p *boundPlan) (done bool, err error) {
	if p.empty {
		return true, nil
	}
	sc := scratch(ix)
	p, cand := p.candidates(sc, len(rel.Tuples), true)
	residual, err := p.residual(a)
	if err != nil {
		return false, nil
	}
	removed, _, err := p.touched(rel, sc, cand, residual, nil, true)
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
	if ix != nil {
		ix.NoteDelete(relName, removed)
	}
	return true, nil
}

// statement entry points -----------------------------------------------------

// ApplyIndexed implements storage.Mutator for UPDATE.
func (u *Update) ApplyIndexed(db *storage.Database, ix *storage.IndexSet) error {
	return u.apply(db, ix)
}

// apply validates the statement and runs its plan, with the naive loop
// as the fallback outside the kernel compiler's subset.
func (u *Update) apply(db *storage.Database, ix *storage.IndexSet) error {
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
		if done, err := runUpdate(rel, u.Rel, ix, a, u.memo.plan(a, ix, u.Rel, rel)); done {
			return err
		}
	}
	// The naive loop rewrites rows (and, failing midway, leaves some
	// rewritten) outside the maintained path, after which the indexes
	// can no longer vouch for the relation.
	if ix != nil {
		defer ix.Invalidate(u.Rel)
	}
	return u.applyNaive(rel, vec)
}

// ApplyIndexed implements storage.Mutator for DELETE.
func (d *Delete) ApplyIndexed(db *storage.Database, ix *storage.IndexSet) error {
	return d.apply(db, ix)
}

// apply is Update.apply for DELETE.
func (d *Delete) apply(db *storage.Database, ix *storage.IndexSet) error {
	rel, err := db.Relation(d.Rel)
	if err != nil {
		return err
	}
	if err := expr.Validate(d.Where, rel.Schema); err != nil {
		return err
	}
	a := d.memo.analysis(rel.Schema, func() *applyAnalysis {
		return analyzeDelete(d.Where, rel.Schema)
	})
	if done, err := runDelete(rel, d.Rel, ix, a, d.memo.plan(a, ix, d.Rel, rel)); done {
		return err
	}
	if ix != nil {
		defer ix.Invalidate(d.Rel)
	}
	return d.applyNaive(rel)
}

// ApplyIndexed implements storage.Mutator for INSERT VALUES: the plain
// append plus delta-wise index maintenance for its rows.
func (i *InsertValues) ApplyIndexed(db *storage.Database, ix *storage.IndexSet) error {
	return applyAppend(db, ix, i.Rel, i.Apply)
}

// ApplyIndexed implements storage.Mutator for INSERT…SELECT: the query
// still evaluates through the executor, but the appended rows maintain
// the target's indexes instead of invalidating them.
func (i *InsertQuery) ApplyIndexed(db *storage.Database, ix *storage.IndexSet) error {
	return applyAppend(db, ix, i.Rel, i.Apply)
}

// applyAppend runs an insert's plain apply and then maintains the
// target's indexes for the rows it appended (ix is nil for a replay too
// short to index, which has none to maintain).
func applyAppend(db *storage.Database, ix *storage.IndexSet, name string, apply func(*storage.Database) error) error {
	rel, err := db.Relation(name)
	if err != nil {
		return err
	}
	first := len(rel.Tuples)
	if err := apply(db); err != nil {
		return err
	}
	if ix != nil {
		ix.NoteAppend(name, rel, first)
	}
	return nil
}
