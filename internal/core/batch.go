package core

import (
	"container/list"
	"context"
	"errors"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"github.com/mahif/mahif/internal/algebra"
	"github.com/mahif/mahif/internal/compile"
	"github.com/mahif/mahif/internal/delta"
	"github.com/mahif/mahif/internal/exec"
	"github.com/mahif/mahif/internal/history"
	"github.com/mahif/mahif/internal/lru"
	"github.com/mahif/mahif/internal/storage"
)

// evalCache shares compiled reenactment programs and their
// materialized results across the scenarios of one batch. Programs are
// compiled once per query fingerprint (compilation resolves every
// column reference and fuses the operator pipeline, so it is the unit
// worth sharing); results are keyed on (time-travel version, compiled
// program), so two scenarios whose reenactment programs coincide over
// the same snapshot materialize the relation once. In interpreter-oracle
// mode the result key falls back to (version, fingerprint).
//
// What an entry holds: a reenactment side, as a columnar view
// (storage.ColumnarView — typed lanes, about 90 B a row on the Taxi
// schema and mostly pointer-free, where the same rows as tuples are
// about 500 B of pointerful Values the collector has to walk), because
// all that ever happens to it is a lane-wise comparison with the other
// side (delta.ComputeColumnar). An aggregate report's historical side
// is not here: it is a γ state remembered on the snapshot it was folded
// over (evaluator.historical). Cached results are shared read-only —
// delta computation and query evaluation never mutate their inputs.
type evalCache struct {
	progs        *lru.Cache[progKey, *progEntry]
	mu           sync.Mutex
	results      map[resultKey]*evalEntry
	lru          *list.List // of resultKey; front = most recently used
	evictions    int
	hits, misses int
}

// defaultQueryCacheEntries bounds the materialized-result cache and the
// compiled-program cache. Each result is a whole relation, and the key
// includes the time-travel version, so a session serving a stream of
// appends would otherwise accumulate one copy per (version, program)
// forever; a program is keyed by its query's fingerprint, which carries
// the what-if's constants, so a session answering what-ifs with fresh
// thresholds would otherwise keep one program per what-if ever asked.
// Result eviction is LRU over completed entries only: an entry whose
// materialization is still in flight has workers parked on its done
// channel and must survive until it resolves. A program is evicted
// whenever it is least recently used — an evaluation still running it
// holds its own reference, and the next asker compiles it again.
const defaultQueryCacheEntries = 256

// progEntry compiles one fingerprint exactly once while it is cached.
// prog is nil when the query is outside the compilable subset (the
// evaluation then runs through the interpreter).
type progEntry struct {
	once sync.Once
	prog *exec.Program
}

// resultKey identifies one materialized result: the snapshot version
// and the program fingerprint. Programs are deduplicated one per
// fingerprint, so this keys on the compiled program exactly (and
// degrades gracefully to the query text in interpreter mode or after a
// failed compilation).
type resultKey struct {
	ver int
	fp  string
}

// evalEntry evaluates one program exactly once: the worker that
// creates the entry materializes and closes done; concurrent workers
// asking for the same (version, program) wait on done — or give up
// when their own context dies — and share the result instead of each
// materializing it.
type evalEntry struct {
	done chan struct{}
	view *storage.ColumnarView
	err  error

	// elem is the entry's recency-list node; guarded by evalCache.mu.
	elem *list.Element
}

// completed reports whether the entry's materialization has resolved
// (its creator closed done). Only completed entries are evictable.
func (e *evalEntry) completed() bool {
	select {
	case <-e.done:
		return true
	default:
		return false
	}
}

func newEvalCache() *evalCache {
	return &evalCache{
		progs:   lru.New[progKey, *progEntry](defaultQueryCacheEntries),
		results: map[resultKey]*evalEntry{},
		lru:     list.New(),
	}
}

// removeLocked drops an entry from the map and the recency list.
// Caller holds c.mu.
func (c *evalCache) removeLocked(key resultKey, e *evalEntry) {
	delete(c.results, key)
	if e.elem != nil {
		c.lru.Remove(e.elem)
		e.elem = nil
	}
}

// enforceBoundLocked evicts least-recently-used completed entries until
// the cache fits its bound. In-flight entries are skipped (and bumped,
// so the scan does not revisit them); if every resident entry is in
// flight the cache temporarily overshoots. Caller holds c.mu.
func (c *evalCache) enforceBoundLocked() {
	for scan := c.lru.Len(); c.lru.Len() > defaultQueryCacheEntries && scan > 0; scan-- {
		back := c.lru.Back()
		key := back.Value.(resultKey)
		e := c.results[key]
		if e == nil || e.elem != back {
			c.lru.Remove(back) // stale node; the entry was removed already
			continue
		}
		if !e.completed() {
			c.lru.MoveToFront(back)
			continue
		}
		c.removeLocked(key, e)
		c.evictions++
	}
}

// progKey identifies one compiled program: a program's batch size and
// scan parallelism are fixed when it is compiled, so requests with
// different exec.VecOptions cannot share one.
type progKey struct {
	fp  string
	vec exec.VecOptions
}

// program returns the compile-once program for q under vec (nil when q
// cannot be compiled).
func (c *evalCache) program(q algebra.Query, db *storage.Database, fp string, vec exec.VecOptions) *exec.Program {
	pe, _ := c.progs.LoadOrStore(progKey{fp: fp, vec: vec}, &progEntry{})
	pe.once.Do(func() {
		if prog, err := exec.CompileVec(q, db, vec); err == nil {
			pe.prog = prog
		}
	})
	return pe.prog
}

// eval answers q over db as a columnar view, reusing a previously
// materialized result for the same (version, program) when available;
// the returned entry is resolved and holds it. A result whose
// materialization was cut short by ctx cancellation is evicted rather
// than cached, so long-lived caches (sessions) stay consistent; a caller
// that joined a cancelled materialization retries under its own context
// instead of inheriting the foreign failure.
func (c *evalCache) eval(ev evaluator, q algebra.Query, db *storage.Database) (*evalEntry, error) {
	ctx := ev.evalCtx()
	fp := algebra.Fingerprint(q)
	key := resultKey{ver: ev.ver, fp: fp}
	for {
		c.mu.Lock()
		e, ok := c.results[key]
		if !ok {
			e = &evalEntry{done: make(chan struct{})}
			e.elem = c.lru.PushFront(key)
			c.results[key] = e
			c.enforceBoundLocked()
		}
		c.mu.Unlock()
		if !ok {
			// We created the entry: we materialize, under our context.
			e.view, e.err = ev.runView(q, db, fp)
			if e.err == nil {
				c.mu.Lock()
				c.misses++
				c.mu.Unlock()
			}
			close(e.done)
		} else {
			select {
			case <-e.done:
			case <-ctx.Done():
				return nil, ctx.Err() // our deadline; don't wait out the build
			}
		}
		if e.err == nil || (!errors.Is(e.err, context.Canceled) && !errors.Is(e.err, context.DeadlineExceeded)) {
			if ok && e.err == nil {
				c.mu.Lock()
				c.hits++
				if c.results[key] == e && e.elem != nil {
					c.lru.MoveToFront(e.elem)
				}
				c.mu.Unlock()
			}
			return e, e.err
		}
		c.mu.Lock()
		if c.results[key] == e {
			c.removeLocked(key, e)
		}
		c.mu.Unlock()
		if err := ctx.Err(); err != nil {
			return nil, err // our own context died
		}
	}
}

func (c *evalCache) stats() (hits, misses int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses
}

func (c *evalCache) evicted() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.evictions
}

func (c *evalCache) resident() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.results)
}

// batchShared bundles the caches evaluations share: a Session owns one
// for its lifetime, a session-less batch for the duration of the call.
// Every field is optional — the engine-level entry points pass an empty
// bundle — and each cache is internally synchronized.
type batchShared struct {
	snaps     *storage.SnapshotCache
	eval      *evalCache
	memo      *compile.Memo // used when Options.Compile.Memo is unset
	templates *lru.Cache[string, *Template]
	work      *sessionWork // a session's work counts
}

// sessionWork sums delta.Work over every delta computed through a
// session, the expression nodes its program slicing lowered, the plans
// its template evals chose, and the routes its aggregate reports took.
type sessionWork struct {
	compared, boxed, lowered atomic.Int64
	sliced, unsliced         atomic.Int64
	reports                  routeCounters
}

// countDelta adds one delta's row counts to the bundle's totals.
func (b *batchShared) countDelta(w delta.Work) {
	if b.work != nil {
		b.work.compared.Add(int64(w.Compared))
		b.work.boxed.Add(int64(w.Boxed))
	}
}

// countPlan counts one template relation eval that chose between its
// sliced and unsliced pairs.
func (b *batchShared) countPlan(sliced bool) {
	switch {
	case b.work == nil:
	case sliced:
		b.work.sliced.Add(1)
	default:
		b.work.unsliced.Add(1)
	}
}

// countReports adds one call's report routes to the bundle's totals.
func (b *batchShared) countReports(t *routeCounts) {
	if b.work != nil {
		b.work.reports.add(t)
	}
}

// countLowered adds one plan's lowered solver nodes to the bundle's
// totals.
func (b *batchShared) countLowered(n int) {
	if b.work != nil {
		b.work.lowered.Add(int64(n))
	}
}

// templateCacheEntries bounds a session's compiled-template cache.
// Template artifacts hold materialized relations, so the bound is far
// smaller than the solver memo's.
const templateCacheEntries = 64

// snapshot returns the database state after the first ver statements:
// a shared read-only snapshot from the cache when the bundle has one,
// a private copy from time travel otherwise.
func (b *batchShared) snapshot(ctx context.Context, vdb *storage.VersionedDatabase, ver int) (*storage.Database, error) {
	if b.snaps != nil {
		return b.snaps.SnapshotCtx(ctx, ver)
	}
	return vdb.VersionCtx(ctx, ver)
}

// tipSnapshot is snapshot for a version the caller aligned against as
// the live tip (storage.SnapshotCache.TipSnapshotCtx).
func (b *batchShared) tipSnapshot(ctx context.Context, vdb *storage.VersionedDatabase, ver int) (*storage.Database, error) {
	if b.snaps != nil {
		return b.snaps.TipSnapshotCtx(ctx, ver)
	}
	return vdb.VersionCtx(ctx, ver)
}

// traffic is a reading of the bundle's hit/miss counters.
type traffic struct {
	snapHits, snapMisses int
	memoHits, memoMisses int64
	evalHits, evalMisses int
}

func (b *batchShared) traffic() (t traffic) {
	if b.snaps != nil {
		t.snapHits, t.snapMisses = b.snaps.Stats()
	}
	if b.memo != nil {
		t.memoHits, t.memoMisses = b.memo.Stats()
	}
	if b.eval != nil {
		t.evalHits, t.evalMisses = b.eval.stats()
	}
	return t
}

// Scenario is one hypothetical modification set in a batch what-if
// query. An analyst exploring a family of hypotheticals ("what if the
// fee threshold had been 55? 60? 65?") submits one scenario per
// variation over the same history.
type Scenario struct {
	// Label identifies the scenario in results and reports (optional).
	Label string
	// Mods is the modification sequence M of the what-if query.
	Mods []history.Modification
	// Queries optionally attaches aggregate queries: each is evaluated
	// over the historical and hypothetical states after the delta is
	// computed, and the per-group comparisons land in the scenario's
	// BatchResult.Aggregates.
	Queries []AggregateQuery
}

// BatchOptions configures WhatIfBatch.
type BatchOptions struct {
	// Options are the per-scenario engine options (variant, slicing
	// knobs). The same options apply to every scenario.
	Options Options
	// Workers bounds evaluation parallelism; values ≤ 0 use
	// runtime.GOMAXPROCS(0). Workers == 1 evaluates sequentially.
	Workers int
	// NoSnapshotSharing disables the shared time-travel snapshot and
	// gives every scenario a private copy of the pre-suffix state, as a
	// sequential-equivalent baseline for benchmarks.
	NoSnapshotSharing bool
	// NoCompileMemo disables the cross-scenario solver memo.
	NoCompileMemo bool
	// NoQueryCache disables reuse of materialized reenactment-query
	// results across scenarios.
	NoQueryCache bool
}

// BatchResult is the outcome of one scenario. Err is set per scenario —
// a failing scenario never aborts its siblings.
type BatchResult struct {
	// Scenario is the index into the submitted slice.
	Scenario int
	// Label echoes the scenario label.
	Label string
	// Delta is the annotated symmetric difference (nil when Err != nil).
	Delta delta.Set
	// Stats is the per-scenario phase breakdown (nil when Err != nil).
	Stats *Stats
	// Aggregates holds the scenario's attached aggregate-query reports,
	// in query order (nil when the scenario attached none).
	Aggregates []AggregateReport
	// Err is the scenario's evaluation error, if any.
	Err error
}

// BatchStats aggregates the work sharing achieved across a batch.
type BatchStats struct {
	// Total is the wall-clock time for the whole batch.
	Total time.Duration
	// Workers is the parallelism actually used.
	Workers int
	// Scenarios and Failed count submitted and errored scenarios.
	Scenarios int
	Failed    int
	// SnapshotHits/Misses report shared time-travel reuse: misses are
	// distinct versions materialized (each exactly once, during the
	// ascending pre-warm), hits are the per-scenario lookups that
	// reused one (zero when sharing is disabled).
	SnapshotHits, SnapshotMisses int
	// MemoHits/Misses report solver-outcome reuse across scenarios
	// (zero when the memo is disabled or program slicing is off).
	MemoHits, MemoMisses int64
	// QueryHits/Misses report reenactment-result reuse: hits are
	// evaluations of a compiled algebra program another scenario
	// already materialized over the same snapshot.
	QueryHits, QueryMisses int
}

// WhatIfBatch answers N independent what-if scenarios over the engine's
// history concurrently. Work shared across scenarios is computed once:
// the time-travel state before each distinct first-modified position is
// materialized a single time and shared read-only by all workers (the
// reenactment path never mutates it; the naive copy step is the
// copy-on-write boundary and stays per-scenario), and satisfiability
// tests whose slicing formulas coincide across scenarios are solved
// once through a shared memo.
//
// Results are returned in submission order. Evaluation is not
// fail-fast: a scenario error is recorded in its BatchResult and the
// rest of the batch completes. The returned error reports only batch-
// level misuse (no scenarios).
func (e *Engine) WhatIfBatch(scenarios []Scenario, opts BatchOptions) ([]BatchResult, *BatchStats, error) {
	return e.WhatIfBatchCtx(context.Background(), scenarios, opts)
}

// WhatIfBatchCtx is WhatIfBatch under a context. Cancellation stops the
// whole batch promptly: in-flight scenarios observe ctx inside their
// solver and executor loops, not-yet-evaluated scenarios record
// ctx.Err() without starting, and the call returns ctx.Err() alongside
// the partial results.
func (e *Engine) WhatIfBatchCtx(ctx context.Context, scenarios []Scenario, opts BatchOptions) ([]BatchResult, *BatchStats, error) {
	return e.whatIfBatch(ctx, scenarios, opts, nil)
}

// whatIfBatch is WhatIfBatchCtx over a session's caches, so the batch
// both reuses and feeds the session's cross-call state; a batch without
// a session opens a temporary one. The batch's No* toggles drop the
// corresponding cache from the bundle its scenarios see.
func (e *Engine) whatIfBatch(ctx context.Context, scenarios []Scenario, opts BatchOptions, sess *Session) ([]BatchResult, *BatchStats, error) {
	if len(scenarios) == 0 {
		return nil, nil, fmt.Errorf("core: empty scenario batch")
	}
	if sess == nil {
		sess = e.NewSession()
	}
	shared := *sess.shared()
	perScenario := opts.Options
	if opts.NoSnapshotSharing {
		shared.snaps = nil
	}
	if opts.NoQueryCache {
		shared.eval = nil
	}
	if opts.NoCompileMemo {
		// Also drop a caller-supplied memo: the option means "no
		// cross-scenario solver reuse", not just "no fresh memo".
		shared.memo, perScenario.Compile.Memo = nil, nil
	}
	if perScenario.Compile.Memo != nil {
		// The caller's memo (e.g. shared across batches) is the one in
		// use; leave BatchStats' memo counters zero — its cumulative
		// counts are not attributable to this batch.
		shared.memo = nil
	}
	// Attribute this batch's cache traffic to its stats by reading the
	// counters before and after: long-lived session caches carry counts
	// from earlier calls. The difference is approximate when other calls
	// share the session concurrently with the batch (their traffic in
	// the window lands in this batch's counters).
	before := shared.traffic()

	start := time.Now()
	// Align every scenario once: the padded pair drives both the
	// dispatch order and the evaluation (whatIfPair), so the O(|H|)
	// modification-application work is not repeated per scenario.
	h, err := e.History()
	if err != nil {
		return nil, nil, err
	}
	tip := len(h)
	results := make([]BatchResult, len(scenarios))
	pairs := make([]*history.PaddedPair, len(scenarios))
	for i, sc := range scenarios {
		pairs[i], err = history.ApplyModifications(h, sc.Mods)
		if err != nil {
			results[i] = BatchResult{Scenario: i, Label: sc.Label, Err: err}
		}
	}

	// Dispatch scenarios by ascending first-modified position, and
	// materialize each scenario's snapshot before handing it to a
	// worker: the ascending pre-warm makes every build an incremental
	// extension of the previous snapshot (deterministic prefix reuse
	// even when concurrent workers would otherwise race to build
	// nearby versions from the base). Results keep submission order
	// regardless; snapshot errors are left for the scenario's own
	// evaluation to surface.
	var warm func(int)
	if shared.snaps != nil {
		// Ascending dispatch makes consecutive versions the distinct
		// ones; warm each exactly once.
		warmed := -1
		warm = func(i int) {
			if v := min(pairs[i].FirstModified(), tip); v != warmed && ctx.Err() == nil {
				_, _ = shared.snaps.SnapshotCtx(ctx, v)
				warmed = v
			}
		}
	}
	workers := runBatch(scheduleOrder(pairs), opts.Workers, warm, func(i int) {
		sc := scenarios[i]
		if err := ctx.Err(); err != nil {
			// The batch is dead: record the cancellation without
			// starting the evaluation.
			results[i] = BatchResult{Scenario: i, Label: sc.Label, Err: err}
			return
		}
		d, reps, st, err := e.whatIfPair(ctx, pairs[i], tip, sc.Queries, perScenario, &shared)
		results[i] = BatchResult{Scenario: i, Label: sc.Label, Delta: d, Stats: st, Aggregates: reps, Err: err}
	})

	after := shared.traffic()
	bs := &BatchStats{
		Total:          time.Since(start),
		Workers:        workers,
		Scenarios:      len(scenarios),
		SnapshotHits:   after.snapHits - before.snapHits,
		SnapshotMisses: after.snapMisses - before.snapMisses,
		MemoHits:       after.memoHits - before.memoHits,
		MemoMisses:     after.memoMisses - before.memoMisses,
		QueryHits:      after.evalHits - before.evalHits,
		QueryMisses:    after.evalMisses - before.evalMisses,
	}
	for i := range results {
		if results[i].Err != nil {
			bs.Failed++
		}
	}
	return results, bs, ctx.Err()
}

// runBatch runs fn(i) for every i in order over a pool of workers
// (workers <= 0 uses GOMAXPROCS; the pool never exceeds len(order)) and
// returns the pool size. The calling goroutine hands the indices out in
// order and, when warm is non-nil, runs warm(i) right before handing
// out i — sequential set-up that overlaps with the workers.
func runBatch(order []int, workers int, warm, fn func(int)) int {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(order) {
		workers = len(order)
	}
	var wg sync.WaitGroup
	idxCh := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idxCh {
				fn(i)
			}
		}()
	}
	for _, i := range order {
		if warm != nil {
			warm(i)
		}
		idxCh <- i
	}
	close(idxCh)
	wg.Wait()
	return workers
}

// scheduleOrder returns the indices of successfully aligned pairs
// sorted by ascending first-modified position (stable for ties, so
// equal-position scenarios keep submission order). Failed alignments
// (nil pairs) are excluded; their errors are already recorded.
func scheduleOrder(pairs []*history.PaddedPair) []int {
	order := make([]int, 0, len(pairs))
	pos := make([]int, len(pairs))
	for i, p := range pairs {
		if p == nil {
			continue
		}
		order = append(order, i)
		pos[i] = p.FirstModified()
	}
	sort.SliceStable(order, func(a, b int) bool { return pos[order[a]] < pos[order[b]] })
	return order
}
