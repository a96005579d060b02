// Statement application: UPDATE and DELETE run one pipeline wherever
// they apply — the live tip, time-travel replay, crash recovery and the
// naive algorithm's history execution. A plan picks the candidate rows:
// an index probe through the per-column ordered indexes of a
// storage.IndexSet when the WHERE clause binds one, every row position
// (the scan plan) otherwise, and always for a plain Apply, which has no
// index set. An index only narrows the candidates: the executor's batch
// kernels (exec.TupleKernel) evaluate the full condition and the SET
// vector over every candidate, every value is staged before any is
// written, and the write goes in place or through fresh rows whose
// delta-wise index maintenance keeps the set valid. Both insert flavors
// append with delta-wise index maintenance.
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
// false), so every probe returns them and the kernels decide them like
// any other candidate: θ for an UPDATE, ¬θ for a DELETE (a condition
// evaluating to NULL removes the tuple, since σ_{¬θ} keeps only
// ¬θ = true). A condition or SET expression outside the kernel
// compiler's subset (a symbolic variable) takes the naive loops, and
// only that fallback invalidates the relation's indexes, so routing
// changes speed, never observable behavior — pinned by the
// every-version differential property tests.
package history

import (
	"math"
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
	ckSimple conjKind = iota // col ∘ const with a non-NULL, non-NaN constant
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
// statement shares. A nil analysis (cached as such) means the condition
// or the SET vector is outside the kernel compiler's subset.
type applyAnalysis struct {
	conj []conjunct
	del  bool // a DELETE
	// cond evaluates the condition over a candidate: θ for an UPDATE,
	// ¬θ for a DELETE (a candidate survives iff true). where is that
	// condition as an expression.
	cond  *exec.TupleKernel
	where expr.Expr
	// setCols are the non-identity SET targets in column order, setExprs
	// their expressions, and set evaluates them.
	setCols  []int
	setExprs []expr.Expr
	set      *exec.TupleKernel
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
// errors row-wise), so no index can exclude a row on their account.
// col ∘ NaN is opaque too: Compare ties NaN with every number, which
// no key order expresses.
func classifyConjunct(e expr.Expr, s *schema.Schema) conjunct {
	switch x := e.(type) {
	case *expr.Const:
		if !x.V.IsNull() && x.V.Kind() == types.KindBool && !x.V.AsBool() {
			return conjunct{kind: ckFalse}
		}
	case *expr.Cmp:
		if col, k, op, ok := simpleCmp(x); ok && !k.IsNull() && !(k.Kind() == types.KindFloat && math.IsNaN(k.AsFloat())) {
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
	a := &applyAnalysis{conj: analyzeConjuncts(where, s), where: where}
	for i, c := range s.Columns {
		if col, ok := vec[i].(*expr.Col); ok && strings.EqualFold(col.Name, c.Name) {
			continue
		}
		a.setCols = append(a.setCols, i)
		a.setExprs = append(a.setExprs, vec[i])
	}
	var err error
	if a.cond, err = exec.CompileTupleKernel(where, nil, s); err != nil {
		return nil
	}
	if a.set, err = exec.CompileTupleKernel(nil, a.setExprs, s); err != nil {
		return nil
	}
	return a
}

// analyzeDelete builds the analysis of a DELETE.
func analyzeDelete(where expr.Expr, s *schema.Schema) *applyAnalysis {
	neg := expr.Negation(where)
	cond, err := exec.CompileTupleKernel(neg, nil, s)
	if err != nil {
		return nil
	}
	return &applyAnalysis{conj: analyzeConjuncts(where, s), del: true, cond: cond, where: neg}
}

// binding --------------------------------------------------------------------

// boundPlan is the index-dependent half of a plan, valid for one
// IndexSet at one availability epoch (the memo guards on both): the
// key interval [lo, hi] to probe on idx. A plan without an index (idx
// nil, not empty) is the scan plan.
type boundPlan struct {
	empty  bool // θ is certainly false on every row (constant false conjunct)
	idx    *storage.ColumnIndex
	lo, hi *storage.Bound
}

// scanPlan is the plan of a statement no index answers: every row
// position is a candidate.
var scanPlan = &boundPlan{}

// colConstraint intersects the certified constraints on one column
// into one key interval (an equality is the closed interval [k, k]).
type colConstraint struct {
	idx    *storage.ColumnIndex
	lo, hi *storage.Bound
}

// tighten intersects one comparison into the interval.
func (cc *colConstraint) tighten(op expr.CmpOp, k types.Value) {
	b := &storage.Bound{V: k, Open: op == expr.CmpLt || op == expr.CmpGt}
	if op != expr.CmpLe && op != expr.CmpLt && (cc.lo == nil || tighterLo(b, cc.lo)) {
		cc.lo = b
	}
	if op != expr.CmpGe && op != expr.CmpGt && (cc.hi == nil || tighterHi(b, cc.hi)) {
		cc.hi = b
	}
}

// tighterLo/tighterHi compare bounds; bounds of different classes
// (only on an all-NULL column) never replace each other, which keeps
// the interval a superset of the rows the conjuncts allow.
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

// estimate ranks the constraint by expected candidate count.
func (cc *colConstraint) estimate() int {
	n, ok := cc.idx.Estimate(cc.lo, cc.hi)
	if !ok {
		return 1 << 30
	}
	return n
}

// bindPlan walks the conjuncts in evaluation order, certifying the
// error-free prefix and intersecting its comparisons per column, then
// picks the most selective column. A row outside that column's
// interval and not NULL there fails some certified conjunct, after an
// error-free prefix, so skipping it is safe; a contradiction leaves an
// empty interval, whose probe returns the NULL rows alone. nil means no
// usable index — the statement takes the scan plan. A nil bind never
// builds indexes (builds happen only for conjuncts that then become
// constraints), so it cannot thrash builds.
func bindPlan(a *applyAnalysis, ix *storage.IndexSet, relName string, rel *storage.Relation) *boundPlan {
	var cons []*colConstraint
	byCol := map[int]*colConstraint{}
loop:
	for _, c := range a.conj {
		switch c.kind {
		case ckFalse:
			// θ short-circuits false here for every row, and the
			// certified prefix before this point cannot error: the
			// statement is a no-op (UPDATE) / keeps everything (DELETE).
			return &boundPlan{empty: true}
		case ckOpaque:
			break loop
		}
		if c.op == expr.CmpNe {
			// Never errors, so it is a safe prefix member, but as a
			// constraint it excludes almost nothing.
			continue
		}
		// An ordered comparison is certified by an index whose observed
		// class matches the constant's (IndexNone — a column of only
		// NULLs — is vacuously safe: every comparison evaluates to NULL).
		// An equality never errors (cross-class equality is false), so
		// it keeps the prefix certified without an index or a class
		// match, and narrows only with both.
		idx := ix.Ordered(relName, rel, c.col)
		if idx == nil || (idx.Class() != storage.IndexNone && idx.Class() != storage.ClassOf(c.k)) {
			if c.op == expr.CmpEq {
				continue
			}
			break loop
		}
		cc := byCol[c.col]
		if cc == nil {
			cc = &colConstraint{idx: idx}
			byCol[c.col] = cc
			cons = append(cons, cc)
		}
		cc.tighten(c.op, c.k)
	}
	if len(cons) == 0 {
		return nil
	}
	best := cons[0]
	for _, cc := range cons[1:] {
		if cc.estimate() < best.estimate() {
			best = cc
		}
	}
	return &boundPlan{idx: best.idx, lo: best.lo, hi: best.hi}
}

// execution ------------------------------------------------------------------

// candidates returns the positions p selects, ascending, in sc's
// position buffer, together with the plan that selected them. An index
// plan probes its index into a bitmap over row positions: iteration
// over set bits is ascending by construction, replacing a
// per-statement sort. The scan plan — also taken when the index cannot
// answer the probe after all — selects every position.
func (p *boundPlan) candidates(sc *storage.ApplyScratch, nRows int) (*boundPlan, []int32) {
	var bm []uint64
	if p.idx != nil {
		var ok bool
		if bm, ok = p.probe(sc, nRows); !ok {
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

// probe collects the index plan's candidates — the NULL positions and
// the interval — as a bitmap over row positions, from sc's reusable
// bitmap; the probe's position buffer is free again once the bitmap is
// built. ok=false means the index could not answer after all.
func (p *boundPlan) probe(sc *storage.ApplyScratch, nRows int) (bm []uint64, ok bool) {
	cand, ok := p.idx.Range(p.lo, p.hi, sc.Pos[:0])
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

// touched narrows cand — candidate positions, ascending — in place to
// the rows the statement touches (θ holds for an UPDATE, ¬θ does not
// hold for a DELETE) and returns them with the values of a's SET expressions over
// those rows, len(a.setCols) per row (none for a DELETE). It works a
// chunk of candidates at a time and writes nothing to the relation, so
// an evaluation error leaves the state as it was; it errors iff the
// reference loop errors, with the reference loop's error (firstError).
func touched(rel *storage.Relation, sc *storage.ApplyScratch, cand []int32, a *applyAnalysis) ([]int32, []types.Value, error) {
	vals := sc.Vals[:0]
	n := 0
	for lo := 0; lo < len(cand); lo += exec.DefaultBatchSize {
		chunk := cand[lo:min(lo+exec.DefaultBatchSize, len(cand))]
		rows := sc.Rows[:0]
		for _, at := range chunk {
			rows = append(rows, rel.Tuples[at])
		}
		sc.Rows = rows[:0]
		keep := sc.Flags(len(rows))
		if _, err := a.cond.Eval(rows, keep, nil); err != nil {
			return nil, nil, a.firstError(rel.Schema, rows, err)
		}
		start := n
		for i, k := range keep {
			if k != a.del {
				cand[n], rows[n-start] = chunk[i], rows[i] // n never passes the read position
				n++
			}
		}
		if a.set == nil {
			continue
		}
		var err error
		if vals, err = a.set.Eval(rows[:n-start], nil, vals); err != nil {
			sc.Vals = vals[:0]
			return nil, nil, a.firstError(rel.Schema, rows[:n-start], err)
		}
	}
	sc.Vals = vals[:0] // the caller reads vals before the next statement
	return cand[:n], vals, nil
}

// firstError is the error the reference loop meets first on rows, the
// candidates of a chunk whose kernels failed, in order: the condition,
// then the SET vector where θ holds for an UPDATE. The kernels decide
// the condition for the whole chunk before they evaluate its SET
// vector, so kernelErr may be a later row's. Earlier chunks succeeded
// in full and rows that are no candidates cannot error, so the first
// error here is the reference loop's. Only a failed statement pays for
// the replay.
func (a *applyAnalysis) firstError(s *schema.Schema, rows []schema.Tuple, kernelErr error) error {
	for _, t := range rows {
		ok, err := expr.Satisfied(a.where, s, t)
		if err != nil {
			return err
		}
		if !ok || a.del {
			continue
		}
		env := expr.TupleEnv(s, t)
		for _, e := range a.setExprs {
			if _, err := expr.Eval(e, env); err != nil {
				return err
			}
		}
	}
	return kernelErr
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
// Apply): gather the candidates, evaluate θ and the SET vector over
// them (errors iff the reference loop errors), and stage every value
// before writing any, so an evaluation error leaves the state
// untouched, exactly as a failed statement must (it never enters the
// history). When the relation owns its rows and no index sits on a SET
// column the staged values are written into the resident tuples in
// place — safe because statements only ever apply to privately owned
// states (see storage.Mutator). Otherwise a touched row is replaced by
// a fresh one carved from an arena: a snapshot replay's rows are shared
// with the published state it started from, which must not change
// (storage.Relation.PrepareRewrite), and an index on a SET column must
// observe distinct old/new tuples (NoteReplace).
func runUpdate(rel *storage.Relation, relName string, ix *storage.IndexSet, a *applyAnalysis, p *boundPlan) error {
	if p.empty {
		return nil
	}
	sc := scratch(ix)
	p, cand := p.candidates(sc, len(rel.Tuples))
	nset := len(a.setCols)
	if p.idx != nil && cap(sc.Vals) < len(cand)*nset {
		sc.Vals = make([]types.Value, 0, len(cand)*nset)
	}
	pos, vals, err := touched(rel, sc, cand, a)
	if err != nil || len(pos) == 0 || nset == 0 {
		// An error, no satisfying rows, or an all-identity SET vector:
		// writing back value-identical contents has no observable effect.
		return err
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
		return nil
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
	return nil
}

// runDelete applies a DELETE through plan p (ix is nil for a plain
// Apply): a candidate is removed iff ¬θ is not true. Survivors keep
// their relative order in a fresh compacted slice (slice-header surgery
// only), and the indexes renumber in one pass.
func runDelete(rel *storage.Relation, relName string, ix *storage.IndexSet, a *applyAnalysis, p *boundPlan) error {
	if p.empty {
		return nil
	}
	sc := scratch(ix)
	_, cand := p.candidates(sc, len(rel.Tuples))
	removed, _, err := touched(rel, sc, cand, a)
	if err != nil || len(removed) == 0 {
		return err
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
	return nil
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
		return runUpdate(rel, u.Rel, ix, a, u.memo.plan(a, ix, u.Rel, rel))
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
	if a := d.memo.analysis(rel.Schema, func() *applyAnalysis {
		return analyzeDelete(d.Where, rel.Schema)
	}); a != nil {
		return runDelete(rel, d.Rel, ix, a, d.memo.plan(a, ix, d.Rel, rel))
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
// evaluates through Apply, and the appended rows maintain the target's
// indexes instead of invalidating them.
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
