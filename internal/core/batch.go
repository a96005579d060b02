package core

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"github.com/mahif/mahif/internal/compile"
	"github.com/mahif/mahif/internal/delta"
	"github.com/mahif/mahif/internal/exec"
	"github.com/mahif/mahif/internal/history"
	"github.com/mahif/mahif/internal/storage"
)

// batchShared bundles the caches evaluations share. Every Alg. 2
// evaluation runs over one: a Session owns it for its lifetime (an
// engine-level call opens a session for the call), and each cache is
// internally synchronized.
type batchShared struct {
	snaps *storage.SnapshotCache
	memo  *compile.Memo
	work  *sessionWork // a session's work counts
}

// sessionWork sums delta.Work over every delta computed through a
// session, the programs its what-ifs and reports compiled and the
// report γ programs they reused, the expression nodes its program
// slicing lowered, the plans its template evals chose (a range
// template's side or the fallback plan), its templates' recompiles, the
// routes its aggregate reports took and those its pairs of reenactment
// sides took.
type sessionWork struct {
	compared, hashed, boxed atomic.Int64
	compiled, reused        atomic.Int64
	lowered                 atomic.Int64
	sideEvals, fallbacks    atomic.Int64
	provisioned, recompiles atomic.Int64
	reports                 routeCounters
	pairs                   pairCounters
}

// pairCounters counts evaluator.diff's pairs by exec.PairRoute.
type pairCounters [exec.PairMisaligned + 1]atomic.Int64

// add counts one pair that took route; a nil c counts nothing.
func (c *pairCounters) add(route exec.PairRoute) {
	if c != nil {
		c[route].Add(1)
	}
}

func (c *pairCounters) load() PairRoutes {
	return PairRoutes{
		Paired:     c[exec.Paired].Load(),
		Shape:      c[exec.PairShape].Load(),
		Misaligned: c[exec.PairMisaligned].Load(),
	}
}

// countDelta adds one delta's row counts to the bundle's totals.
func (b *batchShared) countDelta(w delta.Work) {
	b.work.compared.Add(int64(w.Compared))
	b.work.hashed.Add(int64(w.Hashed))
	b.work.boxed.Add(int64(w.Boxed))
}

// countReports adds one call's report routes, and how many of its
// merged reports were provisioned, to the bundle's totals.
func (b *batchShared) countReports(t *routeCounts, provisioned int64) {
	b.work.reports.add(t, provisioned)
}

// countLowered adds one plan's lowered solver nodes to the bundle's
// totals.
func (b *batchShared) countLowered(n int) {
	b.work.lowered.Add(int64(n))
}

// traffic is a reading of the bundle's hit/miss counters.
type traffic struct {
	snapHits, snapMisses int
	memoHits, memoMisses int64
	reused, compiled     int64
}

func (b *batchShared) traffic() (t traffic) {
	t.snapHits, t.snapMisses = b.snaps.Stats()
	t.memoHits, t.memoMisses = b.memo.Stats()
	t.reused, t.compiled = b.work.reused.Load(), b.work.compiled.Load()
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
	// Options are the per-scenario engine options (variant and
	// executor). The same options apply to every scenario.
	Options Options
	// Workers bounds evaluation parallelism; values ≤ 0 use
	// runtime.GOMAXPROCS(0). Workers == 1 evaluates sequentially.
	Workers int
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

// BatchStats aggregates the work sharing achieved across a batch (its
// wire format: see Stats).
type BatchStats struct {
	// Total is the wall-clock time for the whole batch.
	Total time.Duration `json:"total_ns"`
	// Workers is the parallelism actually used.
	Workers int `json:"workers"`
	// Scenarios and Failed count submitted and errored scenarios.
	Scenarios int `json:"scenarios"`
	Failed    int `json:"failed"`
	// SnapshotHits/Misses report shared time-travel reuse: misses are
	// distinct versions materialized (each exactly once, during the
	// ascending pre-warm), hits are the per-scenario lookups that
	// reused one.
	SnapshotHits   int `json:"snapshot_hits"`
	SnapshotMisses int `json:"snapshot_misses"`
	// MemoHits/Misses report solver-outcome reuse across scenarios
	// (zero when program slicing is off).
	MemoHits   int64 `json:"memo_hits"`
	MemoMisses int64 `json:"memo_misses"`
	// QueryHits/Misses count programs: a miss is a program compiled
	// (each scenario compiles its own reenactment sides), a hit is a
	// report that ran the γ program its historical state carried, which
	// was compiled once per snapshot by the first report over it.
	QueryHits   int `json:"query_hits"`
	QueryMisses int `json:"query_misses"`
}

// WhatIfBatch answers N independent what-if scenarios over the engine's
// history concurrently. Work shared across scenarios is computed once:
// the time-travel state before each distinct first-modified position is
// materialized a single time and shared read-only by all workers (the
// reenactment path never mutates it), and satisfiability tests whose
// slicing formulas coincide across scenarios are solved once through a
// shared memo. The batch runs through a session opened for the call.
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
	return e.NewSession().WhatIfBatchCtx(ctx, scenarios, opts)
}

// whatIfBatch is WhatIfBatchCtx over a session's caches, so the batch
// both reuses and feeds the session's cross-call state.
func (e *Engine) whatIfBatch(ctx context.Context, scenarios []Scenario, opts BatchOptions, shared *batchShared) ([]BatchResult, *BatchStats, error) {
	if len(scenarios) == 0 {
		return nil, nil, fmt.Errorf("core: empty scenario batch")
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
	// Ascending dispatch makes consecutive versions the distinct ones;
	// warm each exactly once.
	warmed := -1
	warm := func(i int) {
		if v := min(pairs[i].FirstModified(), tip); v != warmed && ctx.Err() == nil {
			_, _ = shared.snaps.SnapshotCtx(ctx, v)
			warmed = v
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
		d, reps, st, err := e.whatIfPair(ctx, pairs[i], tip, sc.Queries, opts.Options, shared)
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
		QueryHits:      int(after.reused - before.reused),
		QueryMisses:    int(after.compiled - before.compiled),
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
