package exec

import (
	"fmt"
	"runtime"
	"strings"
	"sync"

	"github.com/mahif/mahif/internal/algebra"
	"github.com/mahif/mahif/internal/expr"
	"github.com/mahif/mahif/internal/schema"
	"github.com/mahif/mahif/internal/storage"
	"github.com/mahif/mahif/internal/types"
)

// VecOptions tunes the vectorized executor. The zero value selects the
// defaults (1024-row batches, GOMAXPROCS scan workers, parallelism from
// 8192 source rows).
type VecOptions struct {
	// BatchSize is the number of rows per batch (≤ 0: DefaultBatchSize).
	BatchSize int
	// Workers bounds the partitioned-scan parallelism (≤ 0:
	// runtime.GOMAXPROCS(0); 1 disables parallel scans).
	Workers int
	// MinParallelRows is the smallest base relation worth partitioning
	// (≤ 0: 8192). Below it the scan runs sequentially — fan-out and
	// merge overhead would dominate.
	MinParallelRows int
}

// defaultMinParallelRows is the parallel-scan cutover when
// VecOptions.MinParallelRows is unset.
const defaultMinParallelRows = 8192

// vecConfig is VecOptions with defaults resolved.
type vecConfig struct {
	bs          int
	workers     int
	minParallel int
}

func (o VecOptions) config() vecConfig {
	c := vecConfig{bs: o.BatchSize, workers: o.Workers, minParallel: o.MinParallelRows}
	if c.bs <= 0 {
		c.bs = DefaultBatchSize
	}
	if c.workers <= 0 {
		c.workers = runtime.GOMAXPROCS(0)
	}
	if c.minParallel <= 0 {
		c.minParallel = defaultMinParallelRows
	}
	return c
}

// vecEmit receives one batch of a node's output stream. The batch and
// its columns are valid only until the call returns.
type vecEmit func(b *batch) error

// vecNode is one compiled vectorized operator. Implementations are
// immutable after compilation and allocate all run state inside run, so
// one Program supports concurrent RunCtx calls.
type vecNode interface {
	run(rc *runCtx, emit vecEmit) error
}

// vop is one fused per-batch operator (σ or Π) of a pipeline chain.
// newState builds the operator's per-run scratch; lanes are the chain
// run's typed output lanes, shared by all its projections (see
// chainRun).
type vop interface {
	newState(cfg vecConfig, lanes [][2]storage.ColVec) vopState
}

// vopState applies one operator to a flowing batch. The returned batch
// may alias the input batch and the state's own scratch; it is consumed
// before the next batch enters the chain.
type vopState interface {
	apply(p *vecPool, b *batch) (*batch, error)
}

// chain is a fused sequence of σ/Π operators applied batch-wise: one
// pass over the source for the whole chain, one dispatch per operator
// per batch.
type chain struct {
	ops []vop
}

// chainRun is one run's instantiation of a chain: per-operator scratch,
// the kernel scratch pool, the typed output lanes, and (for
// scan/singleton sources) the source batch. Runs are recycled across
// Run calls through the owning node's sync.Pool.
//
// lanes holds two typed lanes per output column position, shared by
// every projection of the chain: a reenacted UPDATE's typed IF writes
// into whichever of its column's two lanes the input batch does not
// reference (vProjectState.lane). A U-statement chain's run state
// therefore grows with its arity, not with U: a lane per statement
// would cost 8 KB × U per computed column, paid again by every fresh
// program a template binding compiles.
//
// The source batch, shared, is borrowed: runVecView points its lanes at
// windows of the columnar view the scan reads, which nothing in the
// chain writes.
type chainRun struct {
	pool   *vecPool
	states []vopState
	lanes  [][2]storage.ColVec
	shared *batch
}

func (c chain) newRun(cfg vecConfig) *chainRun {
	width := 0
	for _, op := range c.ops {
		if p, ok := op.(vProjectOp); ok {
			width = max(width, len(p.fns))
		}
	}
	r := &chainRun{pool: newVecPool(cfg.bs), lanes: make([][2]storage.ColVec, width)}
	r.states = make([]vopState, len(c.ops))
	for i, op := range c.ops {
		r.states[i] = op.newState(cfg, r.lanes)
	}
	return r
}

// getRun draws a recycled chainRun from pool (creating one on miss),
// bound to the run's parameter vector; the caller puts it back when the
// run completes. A chainRun is used by exactly one goroutine at a time;
// the sync.Pool makes concurrent Run calls on one Program safe, also
// under different bindings.
func (c chain) getRun(pool *sync.Pool, cfg vecConfig, rc *runCtx) *chainRun {
	r, ok := pool.Get().(*chainRun)
	if !ok {
		r = c.newRun(cfg)
	}
	r.pool.bind(rc.args, rc.sites)
	return r
}

// sharedBatch is the run's borrowed source batch, width columns wide.
func (r *chainRun) sharedBatch(width int) *batch {
	if r.shared == nil {
		r.shared = &batch{cols: make([]storage.ColVec, width)}
	}
	return r.shared
}

// release drops the windows of a view the run holds: shared's lanes,
// and the identity columns a projection's output aliases from them. The
// run goes back to its node's pool afterwards, where it must not keep a
// snapshot's lanes reachable — a view derived from another snapshot's
// aliases that one's lanes too. Every batch reassigns each column it
// clears.
func (r *chainRun) release() {
	clear(r.shared.cols)
	for _, st := range r.states {
		if p, ok := st.(*vProjectState); ok {
			clear(p.out.cols)
		}
	}
}

// apply pushes one batch through the operators from the from-th on.
// An all-filtered batch short-circuits the rest of the chain.
func (r *chainRun) apply(b *batch, from int) (*batch, error) {
	for _, st := range r.states[from:] {
		if b.live() == 0 {
			return b, nil
		}
		var err error
		b, err = st.apply(r.pool, b)
		if err != nil {
			return nil, err
		}
	}
	return b, nil
}

// feed pushes one source batch through the chain and emits what
// survives.
func (r *chainRun) feed(src *batch, emit vecEmit) error {
	out, err := r.apply(src, 0)
	if err != nil {
		return err
	}
	if out.live() == 0 {
		return nil
	}
	return emit(out)
}

// vFilterOp narrows the batch's selection vector by a compiled
// condition (WHERE semantics: only tTrue survives). where is the
// condition it was compiled from, by which a pair run finds the σ its
// two chains share and an error names the σ as the interpreter does.
type vFilterOp struct {
	cond  vecCondFn
	where expr.Expr
}

type vFilterState struct {
	vFilterOp
	tr     []truth
	selBuf []int
}

func (o vFilterOp) newState(cfg vecConfig, _ [][2]storage.ColVec) vopState {
	return &vFilterState{vFilterOp: o, tr: make([]truth, cfg.bs), selBuf: make([]int, 0, cfg.bs)}
}

func (st *vFilterState) apply(p *vecPool, b *batch) (*batch, error) {
	if err := st.cond(p, b, b.sel, st.tr); err != nil {
		return nil, fmt.Errorf("algebra: σ[%s]: %w", st.where, err)
	}
	if b.sel == nil {
		sel := st.selBuf[:0]
		for r := 0; r < b.n; r++ {
			if st.tr[r] == tTrue {
				sel = append(sel, r)
			}
		}
		b.sel = sel
	} else {
		// In-place compaction: the write index never passes the read
		// index, so narrowing the selection we iterate is safe.
		k := 0
		for _, r := range b.sel {
			if st.tr[r] == tTrue {
				b.sel[k] = r
				k++
			}
		}
		b.sel = b.sel[:k]
	}
	return b, nil
}

// vProjectOp evaluates one kernel per computed output column; identity
// columns (src[i] >= 0, the bulk of every reenactment projection) pass
// through by aliasing the input column's lanes — zero work per row.
// Computed columns matching the
// reenacted-UPDATE shape (IF θ THEN f(col) ELSE col) carry a typedIf
// producer that keeps the output on a typed lane when the input lanes
// allow it; ifs[i] == nil or an inapplicable lane falls back to the
// boxed kernel fns[i]. exprs are the named expressions it was compiled
// from, by which an error names the Π column as the interpreter does.
type vProjectOp struct {
	fns   []vecScalarFn
	src   []int
	ifs   []*typedIf
	exprs []algebra.NamedExpr
}

type vProjectState struct {
	op  vProjectOp
	out *batch
	// lanes are the chain run's typed lanes, two per output position;
	// scratch is this projection's own, per computed column: the boxed
	// fallback's cells, and the typed lane when both of the pair are in
	// use. It is allocated on first use (own).
	lanes   [][2]storage.ColVec
	scratch []storage.ColVec
	bs      int
}

func (o vProjectOp) newState(cfg vecConfig, lanes [][2]storage.ColVec) vopState {
	return &vProjectState{
		op:    o,
		out:   &batch{cols: make([]storage.ColVec, len(o.fns))},
		lanes: lanes,
		bs:    cfg.bs,
	}
}

// own returns the projection's own scratch for column i. Its headers and
// lanes (49 KB of scannable Values per computed column when boxed) come
// into being on the first batch that needs them — when typedIf keeps
// every column on the chain's lanes, the run never pays for them.
func (st *vProjectState) own(i int) *storage.ColVec {
	if st.scratch == nil {
		st.scratch = make([]storage.ColVec, len(st.op.fns))
	}
	return &st.scratch[i]
}

// lane picks the storage column i's typed IF writes into: one of the
// chain's two lanes for output position i that no column of the input
// batch references. Within a chain the input batch is the only live
// reader of what earlier projections wrote, so such a lane holds
// nothing anyone will read again, and alternating between the two lets
// a U-statement chain run on two lanes per column. Both are referenced
// only after a permuting projection (an identity column aliasing
// another position's lane); then the projection's own scratch serves.
// Neither choice is ever a source lane: the chain owns its lanes, so a
// frozen view's window is never written.
func (st *vProjectState) lane(i int, b *batch) *storage.ColVec {
	for k := range st.lanes[i] {
		if l := &st.lanes[i][k]; !referenced(l, b.cols) {
			return l
		}
	}
	return st.own(i)
}

// referenced reports whether any of cols reads l's storage: shares the
// backing array of the typed lane it is on. Masks need no test — a lane
// write never reuses a mask (CopyFrom and SetCellNull allocate).
func referenced(l *storage.ColVec, cols []storage.ColVec) bool {
	for c := range cols {
		switch col := &cols[c]; col.Kind {
		case types.KindInt:
			if sameArray(col.Ints, l.Ints) {
				return true
			}
		case types.KindFloat:
			if sameArray(col.Floats, l.Floats) {
				return true
			}
		case types.KindString:
			if sameArray(col.Strs, l.Strs) {
				return true
			}
		}
	}
	return false
}

func sameArray[T any](a, b []T) bool {
	return cap(a) > 0 && cap(b) > 0 && &a[:1][0] == &b[:1][0]
}

func (st *vProjectState) apply(p *vecPool, b *batch) (*batch, error) {
	out := st.out
	out.n, out.sel = b.n, b.sel
	for i, fn := range st.op.fns {
		if fn == nil {
			out.cols[i] = b.cols[st.op.src[i]]
			continue
		}
		if spec := st.op.ifs[i].resolve(p); spec != nil {
			l := st.lane(i, b)
			handled, err := spec.apply(p, b, l)
			if err != nil {
				return nil, st.fail(i, err)
			}
			if handled {
				out.cols[i] = *l
				continue
			}
		}
		sc := st.own(i)
		if sc.Vals == nil {
			sc.Vals = make([]types.Value, st.bs)
		}
		if err := fn(p, b, b.sel, sc.Vals); err != nil {
			return nil, st.fail(i, err)
		}
		out.cols[i] = storage.ColVec{Kind: types.KindNull, Vals: sc.Vals}
	}
	return out, nil
}

// fail names output column i's expression in err, as the interpreter's
// Π does.
func (st *vProjectState) fail(i int, err error) error {
	return fmt.Errorf("algebra: Π[%s]: %w", st.op.exprs[i].E, err)
}

// vpipeNode is a base-relation scan with its fused σ/Π chain — the
// parallelizable segment of every pipeline. Large relations are
// partitioned into contiguous row ranges processed by concurrent
// workers (each with private chain scratch); a merge stage then emits
// the buffered per-partition output in partition order, which preserves
// not just bag semantics but the exact sequential output order.
type vpipeNode struct {
	rel   string
	arity int // scan (input) arity
	// out is the chain's output schema — projections in the fused chain
	// change it; parallel workers copy batches out at its width.
	out  *schema.Schema
	ch   chain
	cfg  vecConfig
	runs sync.Pool // recycled *chainRun
}

func (n *vpipeNode) run(rc *runCtx, emit vecEmit) error {
	src, err := n.source(rc)
	if err != nil {
		return err
	}
	if bounds := n.bounds(src.lo, src.hi); len(bounds) > 2 {
		return n.runParallel(rc, src.v, bounds, emit)
	}
	cr := n.ch.getRun(&n.runs, n.cfg, rc)
	defer n.runs.Put(cr)
	return runVecView(rc, src.v, src.lo, src.hi, cr, n.cfg.bs, emit)
}

// source is the columnar view the scan reads, and which rows of it: the
// rows a run substitutes for the relation (RunGroupStateViewCtx), else
// every row of the relation's view in db (columnar).
func (n *vpipeNode) source(rc *runCtx) (viewScan, error) {
	if s := rc.scan; s != nil && strings.EqualFold(s.rel, n.rel) {
		if len(s.v.Cols) != n.arity {
			return viewScan{}, fmt.Errorf("exec: relation %s arity changed since compilation (%d vs %d)", n.rel, len(s.v.Cols), n.arity)
		}
		return *s, nil
	}
	r, err := n.relation(rc.db)
	if err != nil {
		return viewScan{}, err
	}
	v, err := columnar(r)
	if err != nil {
		return viewScan{}, err
	}
	return viewScan{rel: n.rel, v: v, hi: v.Rows}, nil
}

// relation looks the scanned relation up in db and checks that its
// arity is the one compiled against.
func (n *vpipeNode) relation(db *storage.Database) (*storage.Relation, error) {
	r, err := db.Relation(n.rel)
	if err != nil {
		return nil, err
	}
	if r.Schema.Arity() != n.arity {
		return nil, fmt.Errorf("exec: relation %s arity changed since compilation (%d vs %d)", n.rel, r.Schema.Arity(), n.arity)
	}
	return r, nil
}

// columnar is the view a scan of r reads: a frozen relation's shared
// view (one a SnapshotCache published), built once and read by every
// scan of it, or a private relation's rows transposed for the caller
// alone, each scan once. Either way a tuple shorter than the schema
// fails the scan before any row runs, with CheckRowArity's error.
func columnar(r *storage.Relation) (*storage.ColumnarView, error) {
	v, err := r.SharedColumnar()
	if err == nil && v == nil {
		v, err = storage.Transpose(r)
	}
	if err != nil {
		return nil, fmt.Errorf("exec: %w", err)
	}
	return v, nil
}

// bounds splits rows [lo, hi) into the scan's partitions, partition w
// being rows [b[w], b[w+1]): one below the parallel cutover, else at
// most one per worker, contiguous, non-empty and of near-equal size, in
// row order.
func (n *vpipeNode) bounds(lo, hi int) []int {
	parts := 1
	if n.cfg.workers > 1 && hi-lo >= n.cfg.minParallel {
		parts = n.cfg.workers
	}
	chunk := max((hi-lo+parts-1)/parts, 1)
	b := []int{lo}
	for start := lo + chunk; start < hi; start += chunk {
		b = append(b, start)
	}
	return append(b, hi)
}

// runParallel runs the partitions bounds lists of view, one worker
// each, and emits the buffered per-partition output in partition order.
// A worker copies each output batch out (copyLive) before its scratch
// moves on to the next one; the copies are emitted as frozen batches.
func (n *vpipeNode) runParallel(rc *runCtx, view *storage.ColumnarView, bounds []int, emit vecEmit) error {
	parts := len(bounds) - 1
	results := make([][]*storage.ColumnarView, parts)
	errs := make([]error, parts)
	var wg sync.WaitGroup
	for w := range parts {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			cr := n.ch.getRun(&n.runs, n.cfg, rc)
			defer n.runs.Put(cr)
			errs[w] = runVecView(rc, view, bounds[w], bounds[w+1], cr, n.cfg.bs, func(b *batch) error {
				results[w] = append(results[w], copyLive(b, n.out))
				return nil
			})
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	for _, vs := range results {
		for _, v := range vs {
			if err := emit(&batch{cols: v.Cols, n: v.Rows, frozen: true}); err != nil {
				return err
			}
		}
	}
	return nil
}

// runVecView drives rows [lo,hi) of a columnar view through a chain
// run. No cell is copied and no row is re-checked: each source batch's
// columns are windows of the view, which was validated and typed once
// when it was built. The view may be shared with every other scan of
// the relation, so nothing downstream may write through a source lane —
// filters narrow sel, projections alias identity columns and write
// computed ones into their own scratch, and whoever retains rows
// (copyLive, storage.GatherRows) copies them out. Cancellation is
// observed between batches — every ≤ bs source rows. cr drops the
// windows it borrowed on return (release).
func runVecView(rc *runCtx, view *storage.ColumnarView, lo, hi int, cr *chainRun, bs int, emit vecEmit) error {
	src := cr.sharedBatch(len(view.Cols))
	defer cr.release()
	for start := lo; start < hi; start += bs {
		if err := rc.ctx.Err(); err != nil {
			return err
		}
		end := min(start+bs, hi)
		view.Window(src.cols, start, end)
		src.n, src.sel = end-start, nil
		if err := cr.feed(src, emit); err != nil {
			return err
		}
	}
	return nil
}

// vsingletonNode streams a constant relation (with its fused chain)
// batch-wise from the view its rows became at compile time; never
// parallel — singletons are tiny.
type vsingletonNode struct {
	rows *storage.ColumnarView
	ch   chain
	cfg  vecConfig
	runs sync.Pool
}

func (n *vsingletonNode) run(rc *runCtx, emit vecEmit) error {
	cr := n.ch.getRun(&n.runs, n.cfg, rc)
	defer n.runs.Put(cr)
	return runVecView(rc, n.rows, 0, n.rows.Rows, cr, n.cfg.bs, emit)
}

// vchainNode applies a fused σ/Π chain to the output of a non-scan
// input (union, join).
type vchainNode struct {
	in   vecNode
	ch   chain
	cfg  vecConfig
	runs sync.Pool
}

func (n *vchainNode) run(rc *runCtx, emit vecEmit) error {
	cr := n.ch.getRun(&n.runs, n.cfg, rc)
	defer n.runs.Put(cr)
	return n.in.run(rc, func(b *batch) error { return cr.feed(b, emit) })
}

// vunionNode streams the left branch then the right (bag union, same
// order as the interpreter).
type vunionNode struct {
	l, r vecNode
}

func (n *vunionNode) run(rc *runCtx, emit vecEmit) error {
	if err := n.l.run(rc, emit); err != nil {
		return err
	}
	return n.r.run(rc, emit)
}

// vequiJoinNode is the vectorized equi-join, the executor's one join:
// the right branch materializes into the key-hashed table, the left
// branch probes it row-wise over its selection, appending matches to an
// owned output batch that flushes at capacity. Bucket order is
// right-stream order and the left side streams, so output order matches
// the interpreter's nested loop exactly.
type vequiJoinNode struct {
	l, r           vecNode
	lKeys, rKeys   []int
	lArity, rArity int
	cfg            vecConfig
}

func (n *vequiJoinNode) run(rc *runCtx, emit vecEmit) error {
	table := map[uint64][]schema.Tuple{}
	err := n.r.run(rc, func(b *batch) error {
		for _, t := range storage.GatherRows(b.cols[:n.rArity], b.sel, b.n) {
			h, ok := hashKeys(t, n.rKeys)
			if !ok {
				continue // NULL key: can never satisfy the equality
			}
			table[h] = append(table[h], t)
		}
		return nil
	})
	if err != nil {
		return err
	}
	out := newOwnedBatch(n.lArity+n.rArity, n.cfg.bs)
	flush := func() error {
		if out.n == 0 {
			return nil
		}
		// The consumer may have written a selection vector onto the
		// emitted batch (filters narrow b.sel in place); clear it before
		// every emit or the next flush would carry a stale selection.
		out.sel = nil
		err := emit(out)
		out.n = 0
		return err
	}
	err = n.l.run(rc, func(b *batch) error {
		probe := func(r int) error {
			h, ok := hashKeyCols(b, n.lKeys, r)
			if !ok {
				return nil
			}
			for _, rt := range table[h] {
				if !keysEqualCols(b, r, rt, n.lKeys, n.rKeys) {
					continue // hash collision between distinct keys
				}
				for c := 0; c < n.lArity; c++ {
					out.cols[c].Vals[out.n] = b.cols[c].Value(r)
				}
				for c := 0; c < n.rArity; c++ {
					out.cols[n.lArity+c].Vals[out.n] = rt[c]
				}
				out.n++
				if out.n == n.cfg.bs {
					if err := flush(); err != nil {
						return err
					}
				}
			}
			return nil
		}
		if b.sel == nil {
			for r := 0; r < b.n; r++ {
				if err := probe(r); err != nil {
					return err
				}
			}
			return nil
		}
		for _, r := range b.sel {
			if err := probe(r); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	return flush()
}

// hashKeyCols hashes the key columns of row r lane-wise (no boxing);
// ok is false when any key is NULL.
func hashKeyCols(b *batch, keys []int, r int) (h uint64, ok bool) {
	h = schema.HashSeed
	for _, kc := range keys {
		h, ok = b.cols[kc].HashCell(h, r)
		if !ok {
			return 0, false
		}
	}
	return h, true
}

// keysEqualCols verifies key equality of batch row r against build
// tuple rt (joinKeyEqual's widened-numeric semantics). Cells box here:
// verification runs only on hash hits.
func keysEqualCols(b *batch, r int, rt schema.Tuple, lKeys, rKeys []int) bool {
	for i := range lKeys {
		if !joinKeyEqual(b.cols[lKeys[i]].Value(r), rt[rKeys[i]]) {
			return false
		}
	}
	return true
}

// CompileVec lowers q into a vectorized pipelined program: operators
// exchange column-major row batches with selection vectors, and scans
// over large relations partition across workers. db supplies the base
// relation schemas; the returned program may run against any database
// holding relations with the same schemas (e.g. other time-travel
// versions of the same store). Semantics (including output order and
// error behavior) match the interpreter; queries outside the compilable
// subset return an error and the caller falls back to it. Template
// parameters ($slots) compile as run-time parameters: a run binds them
// (RunColumnarParamsCtx) and answers what CompileVec of the query with
// the binding substituted would (see compiler).
func CompileVec(q algebra.Query, db *storage.Database, opts VecOptions) (*Program, error) {
	c := &compiler{cfg: opts.config()}
	n, sch, err := c.compileVecNode(q, db)
	if err != nil {
		return nil, err
	}
	return &Program{root: n, out: sch, params: c.names, sites: c.sites}, nil
}

// appendOp fuses op onto a chain-bearing node, or wraps other nodes in
// a fresh chain node. out is the operator's output schema (filters keep
// it, projections change it).
func appendOp(n vecNode, op vop, out *schema.Schema, cfg vecConfig) vecNode {
	switch x := n.(type) {
	case *vpipeNode:
		x.ch.ops = append(x.ch.ops, op)
		x.out = out
		return x
	case *vsingletonNode:
		x.ch.ops = append(x.ch.ops, op)
		return x
	case *vchainNode:
		x.ch.ops = append(x.ch.ops, op)
		return x
	}
	return &vchainNode{in: n, ch: chain{ops: []vop{op}}, cfg: cfg}
}

// compileVecNode lowers one algebra node and returns it with its output
// schema. Schemas are threaded bottom-up so compilation is one pass
// over the tree (no per-node recursive OutputSchema recomputation).
func (c *compiler) compileVecNode(q algebra.Query, db *storage.Database) (vecNode, *schema.Schema, error) {
	cfg := c.cfg
	switch x := q.(type) {
	case *algebra.Scan:
		r, err := db.Relation(x.Rel)
		if err != nil {
			return nil, nil, err
		}
		return &vpipeNode{rel: x.Rel, arity: r.Schema.Arity(), out: r.Schema, cfg: cfg}, r.Schema, nil

	case *algebra.Select:
		in, s, err := c.compileVecNode(x.In, db)
		if err != nil {
			return nil, nil, err
		}
		cond, err := c.compileVecTruth(x.Cond, s, whereTruth)
		if err != nil {
			return nil, nil, err
		}
		return appendOp(in, vFilterOp{cond: cond, where: x.Cond}, s, cfg), s, nil

	case *algebra.Project:
		in, s, err := c.compileVecNode(x.In, db)
		if err != nil {
			return nil, nil, err
		}
		fns := make([]vecScalarFn, len(x.Exprs))
		src := make([]int, len(x.Exprs))
		ifs := make([]*typedIf, len(x.Exprs))
		passthrough := len(x.Exprs) == s.Arity()
		cols := make([]schema.Column, len(x.Exprs))
		for i, ne := range x.Exprs {
			cols[i] = schema.Col(ne.Name, algebra.ExprKind(ne.E, s))
			src[i] = -1
			if col, ok := ne.E.(*expr.Col); ok {
				if j := s.ColIndex(col.Name); j >= 0 {
					src[i] = j
					passthrough = passthrough && j == i
					continue
				}
			}
			passthrough = false
			fn, err := c.compileVecScalar(ne.E, s)
			if err != nil {
				return nil, nil, err
			}
			fns[i] = fn
			if ifx, ok := ne.E.(*expr.If); ok {
				if ifs[i], err = c.recognizeTypedIf(ifx, s); err != nil {
					return nil, nil, err
				}
			}
		}
		out := schema.New(s.Relation, cols...)
		if passthrough {
			// Pure rename: the node disappears from the pipeline.
			return in, out, nil
		}
		return appendOp(in, vProjectOp{fns: fns, src: src, ifs: ifs, exprs: x.Exprs}, out, cfg), out, nil

	case *algebra.Union:
		l, ls, err := c.compileVecNode(x.L, db)
		if err != nil {
			return nil, nil, err
		}
		r, rs, err := c.compileVecNode(x.R, db)
		if err != nil {
			return nil, nil, err
		}
		if ls.Arity() != rs.Arity() {
			return nil, nil, fmt.Errorf("exec: union arity mismatch %d vs %d", ls.Arity(), rs.Arity())
		}
		return &vunionNode{l: l, r: r}, ls, nil

	case *algebra.Join:
		return c.compileVecJoin(x, db)

	case *algebra.Singleton:
		rows, err := storage.Transpose(&storage.Relation{Schema: x.Sch, Tuples: x.Tuples})
		if err != nil {
			return nil, nil, fmt.Errorf("exec: %w", err)
		}
		return &vsingletonNode{rows: rows, cfg: cfg}, x.Sch, nil

	case *algebra.Aggregate:
		return c.compileVecAggregate(x, db)
	}
	return nil, nil, fmt.Errorf("exec: unknown query node %T", q)
}

// compileVecJoin compiles a join whose condition is made only of
// cross-side key equalities into the hash join. Any other condition is
// outside the compilable subset: the interpreter's nested loop answers
// it. With a residual conjunct a hash join would also skip NULL-key
// pairs that the interpreter still evaluates (a NULL equality does not
// short-circuit its AND) and whose residual may error.
func (c *compiler) compileVecJoin(x *algebra.Join, db *storage.Database) (vecNode, *schema.Schema, error) {
	l, ls, err := c.compileVecNode(x.L, db)
	if err != nil {
		return nil, nil, err
	}
	r, rs, err := c.compileVecNode(x.R, db)
	if err != nil {
		return nil, nil, err
	}
	lKeys, rKeys, residual := splitEquiJoin(x.Cond, ls, rs)
	if len(lKeys) == 0 || residual != nil {
		return nil, nil, fmt.Errorf("exec: join condition %s is not a pure equi-join", x.Cond)
	}
	cols := make([]schema.Column, 0, ls.Arity()+rs.Arity())
	cols = append(cols, ls.Columns...)
	cols = append(cols, rs.Columns...)
	return &vequiJoinNode{
		l: l, r: r,
		lKeys: lKeys, rKeys: rKeys,
		lArity: ls.Arity(), rArity: rs.Arity(),
		cfg: c.cfg,
	}, schema.New(ls.Relation, cols...), nil
}
