package core

import (
	"context"
	"fmt"

	"github.com/mahif/mahif/internal/algebra"
	"github.com/mahif/mahif/internal/delta"
	"github.com/mahif/mahif/internal/history"
	"github.com/mahif/mahif/internal/schema"
	"github.com/mahif/mahif/internal/storage"
	"github.com/mahif/mahif/internal/types"
)

// AggregateQuery is one aggregate query attached to a what-if: after the
// tuple-level delta is computed, the query is evaluated over both the
// historical state at the query's tip and the hypothetical state
// (historical ∓ delta), and the per-group differences are reported. The
// analyst asks "how would regional revenue have changed?" instead of
// diffing raw tuples by hand.
type AggregateQuery struct {
	// SQL is the query text, echoed verbatim in reports.
	SQL string
	// Query is the parsed algebra; the top node must be an
	// *algebra.Aggregate (use NewAggregateQuery to validate).
	Query algebra.Query
}

// NewAggregateQuery validates a parsed aggregate query for what-if
// attachment: the top node must be a γ (GROUP BY or a global aggregate)
// and the query must be closed — $param slots belong to scenario
// modifications, never to the report queries.
func NewAggregateQuery(sqlText string, q algebra.Query) (AggregateQuery, error) {
	if _, ok := q.(*algebra.Aggregate); !ok {
		return AggregateQuery{}, fmt.Errorf("core: aggregate query %q must aggregate at the top level (GROUP BY or aggregate select list)", sqlText)
	}
	if ps := algebra.Params(q); len(ps) > 0 {
		return AggregateQuery{}, fmt.Errorf("core: aggregate query %q carries parameter slots", sqlText)
	}
	return AggregateQuery{SQL: sqlText, Query: q}, nil
}

// AggregateRow is one group's historical-vs-hypothetical comparison.
// Sides are nil (JSON null) when the group exists in only one world —
// a group born or killed by the hypothetical change — which is distinct
// from a present side whose aggregates are zero or NULL.
type AggregateRow struct {
	// Group holds the grouping-column values (empty for a global
	// aggregate).
	Group schema.Tuple `json:"group"`
	// Historical and Hypothetical hold the aggregate-column values in
	// each world; nil when the group is absent from that world.
	Historical   schema.Tuple `json:"historical"`
	Hypothetical schema.Tuple `json:"hypothetical"`
	// Delta is hypothetical − historical per aggregate column, NULL
	// where either side is absent, NULL, or non-numeric.
	Delta schema.Tuple `json:"delta"`
}

// AggregateReport is one aggregate query's full per-group comparison.
// Rows keep the historical evaluation's group order (first-appearance,
// executor-deterministic) followed by groups that exist only in the
// hypothetical world, in their own first-appearance order.
type AggregateReport struct {
	Query        string         `json:"query"`
	GroupColumns []string       `json:"group_columns"`
	AggColumns   []string       `json:"agg_columns"`
	Rows         []AggregateRow `json:"rows"`
}

// AppendJSON appends r's compact wire encoding to dst: the bytes
// json.Marshal writes for the struct's field tags.
func (r *AggregateReport) AppendJSON(dst []byte) ([]byte, error) {
	dst = append(dst, `{"query":`...)
	dst = types.AppendJSONString(dst, r.Query)
	dst = append(dst, `,"group_columns":`...)
	dst, _ = types.AppendJSONArray(dst, r.GroupColumns, appendJSONString)
	dst = append(dst, `,"agg_columns":`...)
	dst, _ = types.AppendJSONArray(dst, r.AggColumns, appendJSONString)
	dst, err := types.AppendJSONArray(append(dst, `,"rows":`...), r.Rows, appendAggregateRow)
	return append(dst, '}'), err
}

// appendAggregateRow appends row's encoding by its field tags.
func appendAggregateRow(row *AggregateRow, dst []byte) ([]byte, error) {
	var err error
	for j, t := range [...]schema.Tuple{row.Group, row.Historical, row.Hypothetical, row.Delta} {
		if dst, err = t.AppendJSON(append(dst, aggregateRowKeys[j]...)); err != nil {
			return dst, err
		}
	}
	return append(dst, '}'), nil
}

// aggregateRowKeys opens each AggregateRow field on the wire, in order.
var aggregateRowKeys = [...]string{`{"group":`, `,"historical":`, `,"hypothetical":`, `,"delta":`}

// MarshalJSON implements json.Marshaler with AppendJSON's encoding.
func (r *AggregateReport) MarshalJSON() ([]byte, error) { return r.AppendJSON(nil) }

// appendJSONString is types.AppendJSONString as an AppendJSONArray
// element encoder.
func appendJSONString(s *string, dst []byte) ([]byte, error) {
	return types.AppendJSONString(dst, *s), nil
}

// patchRelation applies one relation's delta to its historical state:
// hypothetical = historical − Minus + Plus as bags. It is the patch
// route's — the merged route (mergedReport) never materializes the
// hypothetical relation — and stays as its fallback and its oracle.
// Minus goes into a TupleIndex (the delta is small) and each historical
// tuple probes it by typed hash, so the earliest occurrences are the
// ones removed: surviving historical tuples keep their order and Plus
// tuples append in delta order, which fixes the hypothetical groups'
// first-appearance order for a given delta. A Minus tuple the
// historical state does not hold means the delta was computed in
// another frame of reference; that is an error, never a silently wrong
// report.
func patchRelation(hist *storage.Relation, d *delta.Result) (*storage.Relation, error) {
	minus := storage.NewTupleIndex(len(d.Minus))
	for _, t := range d.Minus {
		minus.Add(t)
	}
	out := storage.NewRelation(hist.Schema)
	out.Tuples = make([]schema.Tuple, 0, max(len(hist.Tuples)-len(d.Minus), 0)+len(d.Plus))
	for _, t := range hist.Tuples {
		if minus.Len() > 0 && minus.Remove(t) {
			continue
		}
		out.Tuples = append(out.Tuples, t)
	}
	if n := minus.Len(); n > 0 {
		return nil, frameError(hist, n)
	}
	out.Tuples = append(out.Tuples, d.Plus...)
	return out, nil
}

// frameError is the error of a delta removing n tuples r does not hold.
func frameError(r *storage.Relation, n int) error {
	return fmt.Errorf("core: delta for %s removes %d tuple(s) the historical state does not hold (delta and tip are in different frames)", r.Schema.Relation, n)
}

// hypotheticalDB materializes the hypothetical world from the
// historical state and a delta set. Unchanged relations are shared by
// pointer (evaluation is read-only); changed ones are patched copies,
// so the shared snapshot is never mutated. A non-empty delta for a
// relation the historical state lacks is a frame mismatch and an error.
func hypotheticalDB(hist *storage.Database, d delta.Set) (*storage.Database, error) {
	hyp := hist
	for name, dr := range d {
		if dr == nil || dr.Empty() {
			continue
		}
		r, err := hist.Relation(name)
		if err != nil {
			return nil, fmt.Errorf("core: delta for a relation the historical state lacks: %w", err)
		}
		if r, err = patchRelation(r, dr); err != nil {
			return nil, err
		}
		hyp = hyp.With(r)
	}
	return hyp, nil
}

// deltaCell is hypothetical − historical for one aggregate cell, NULL
// whenever the subtraction is not meaningful (absent side, NULL value,
// or non-numeric aggregate such as MIN over strings).
func deltaCell(hist, hyp schema.Tuple, j int) types.Value {
	if hist == nil || hyp == nil {
		return types.Null()
	}
	h, y := hist[j], hyp[j]
	if h.IsNull() || y.IsNull() || !h.IsNumeric() || !y.IsNumeric() {
		return types.Null()
	}
	v, err := types.Arith(types.OpSub, y, h)
	if err != nil {
		return types.Null()
	}
	return v
}

// newReport returns q's report with its columns and no rows.
func newReport(q AggregateQuery, agg *algebra.Aggregate) AggregateReport {
	rep := AggregateReport{Query: q.SQL}
	for _, ne := range agg.GroupBy {
		rep.GroupColumns = append(rep.GroupColumns, ne.Name)
	}
	for _, a := range agg.Aggs {
		rep.AggColumns = append(rep.AggColumns, a.Name)
	}
	return rep
}

// reportRow pairs one group's sides: hist and hyp are its γ output rows
// in each world, nil where the group is absent.
func reportRow(ng, na int, hist, hyp schema.Tuple) AggregateRow {
	var ar AggregateRow
	if hist != nil {
		ar.Group, ar.Historical = hist[:ng:ng], hist[ng:]
	}
	if hyp != nil {
		ar.Hypothetical = hyp[ng:]
		if hist == nil {
			ar.Group = hyp[:ng:ng]
		}
	}
	ar.Delta = make(schema.Tuple, na)
	for j := range ar.Delta {
		ar.Delta[j] = deltaCell(ar.Historical, ar.Hypothetical, j)
	}
	return ar
}

// aggregateReport is the patch route: it evaluates one query in both
// worlds — the historical side from the state the merged route merges
// into, the hypothetical side by a full γ over the patched database hyp
// — and matches rows by group. hyp is not a history version, so
// nothing computed over it is kept; its γ runs the historical state's
// program.
func aggregateReport(q AggregateQuery, hist, hyp *storage.Database, ev evaluator) (AggregateReport, error) {
	agg, ok := q.Query.(*algebra.Aggregate)
	if !ok {
		return AggregateReport{}, fmt.Errorf("core: aggregate query %q must aggregate at the top level", q.SQL)
	}
	h, err := ev.historical(agg, hist)
	if err != nil {
		return AggregateReport{}, fmt.Errorf("core: aggregate query %q (historical): %w", q.SQL, err)
	}
	var rm *storage.Relation
	if h.prog != nil {
		rm, err = h.prog.RunCtx(ev.evalCtx(), hyp)
	} else {
		rm, err = ev.interpret(agg, hyp)
	}
	if err != nil {
		return AggregateReport{}, fmt.Errorf("core: aggregate query %q (hypothetical): %w", q.SQL, err)
	}

	ng, na := len(agg.GroupBy), len(agg.Aggs)
	// Index the hypothetical rows by typed group hash; matched rows are
	// marked so the unmarked ones are exactly the new groups.
	hypByGroup := make(map[uint64][]int, len(rm.Tuples))
	for i, row := range rm.Tuples {
		h := row[:ng].Hash()
		hypByGroup[h] = append(hypByGroup[h], i)
	}
	matched := make([]bool, len(rm.Tuples))
	rep := newReport(q, agg)
	rep.Rows = make([]AggregateRow, 0, len(h.rows))
	for _, row := range h.rows {
		var hy schema.Tuple
		g := row[:ng]
		for _, i := range hypByGroup[g.Hash()] {
			if !matched[i] && rm.Tuples[i][:ng].Equal(g) {
				hy, matched[i] = rm.Tuples[i], true
				break
			}
		}
		rep.Rows = append(rep.Rows, reportRow(ng, na, row, hy))
	}
	for i, row := range rm.Tuples {
		if !matched[i] {
			rep.Rows = append(rep.Rows, reportRow(ng, na, nil, row))
		}
	}
	return rep, nil
}

// computeAggregates answers every attached query over the historical
// state hist and the hypothetical state hist − Minus + Plus of d. A
// delta that does not fit hist (checkFrame) is an error. Each report
// takes the merged route where it is exact (mergedReport) and the
// patch route (aggregateReport) where it is not; ev.routes, when set,
// counts which.
func computeAggregates(ctx context.Context, queries []AggregateQuery, d delta.Set, hist *storage.Database, ev evaluator) ([]AggregateReport, error) {
	if len(queries) == 0 {
		return nil, nil
	}
	changed, err := checkFrame(hist, d)
	if err != nil {
		return nil, err
	}
	return framedAggregates(ctx, queries, d, hist, ev, changed, nil)
}

// framedAggregates is computeAggregates with d's frame already checked:
// changed is what checkFrame returns for it, or what rf framed.
func framedAggregates(ctx context.Context, queries []AggregateQuery, d delta.Set, hist *storage.Database, ev evaluator, changed map[string]bags, rf *reportFrame) ([]AggregateReport, error) {
	var hyp *storage.Database // the patch route's, built on first use
	out := make([]AggregateReport, 0, len(queries))
	for _, q := range queries {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		rep, route, err := mergedReport(q, hist, changed, ev, rf)
		if err == nil && route != routeMerged {
			if hyp == nil {
				hyp, err = hypotheticalDB(hist, d)
			}
			if err == nil {
				rep, err = aggregateReport(q, hist, hyp, ev)
			}
		}
		if err != nil {
			return nil, err
		}
		if ev.routes != nil {
			ev.routes[route]++
		}
		out = append(out, rep)
	}
	return out, nil
}

// tipReports evaluates the attached queries against the history state
// at version tip — the frame the delta was computed in — resolving that
// state through the shared snapshot cache (tip-pinned there, see
// storage.SnapshotCache.TipSnapshotCtx), and counts the reports' routes
// in shared and in the result. What-ifs, batches, naive
// answers and template evals all report through here; a template eval
// passes what its artifact fixed for the binding's reports as rf (nil
// for every other caller), which also counts the reports provisioned.
func (e *Engine) tipReports(ctx context.Context, queries []AggregateQuery, d delta.Set, tip int, opts Options, shared *batchShared, rf *reportFrame) ([]AggregateReport, routeCounts, error) {
	var routes routeCounts
	if len(queries) == 0 {
		return nil, routes, nil
	}
	hist, err := shared.snaps.TipSnapshotCtx(ctx, tip)
	if err != nil {
		return nil, routes, err
	}
	ev := e.newEvaluator(ctx, opts)
	ev.work, ev.routes = shared.work, &routes
	var reps []AggregateReport
	var provisioned int64
	if rf != nil && rf.bags != nil {
		reps, err = framedAggregates(ctx, queries, d, hist, ev, rf.bags, rf)
		provisioned = rf.provisioned
	} else {
		for range queries {
			rf.fellBack(whyUnframed)
		}
		reps, err = computeAggregates(ctx, queries, d, hist, ev)
	}
	shared.countReports(&routes, provisioned)
	return reps, routes, err
}

// WhatIfAggregates answers a what-if query plus its attached aggregate
// queries (see WhatIfAggregatesCtx).
func (e *Engine) WhatIfAggregates(mods []history.Modification, queries []AggregateQuery, opts Options) (delta.Set, []AggregateReport, *Stats, error) {
	return e.WhatIfAggregatesCtx(context.Background(), mods, queries, opts)
}

// WhatIfAggregatesCtx answers the query with Alg. 2, then evaluates the
// attached aggregate queries over the historical and hypothetical
// states at the tip the delta was computed against — the tip is
// captured once, so a concurrent append cannot put the delta and the
// reports in different frames of reference. It answers through a
// one-call session (see WhatIfCtx).
func (e *Engine) WhatIfAggregatesCtx(ctx context.Context, mods []history.Modification, queries []AggregateQuery, opts Options) (delta.Set, []AggregateReport, *Stats, error) {
	return e.NewSession().WhatIfAggregatesCtx(ctx, mods, queries, opts)
}

// WhatIfAggregatesCtx is Engine.WhatIfAggregatesCtx through the
// session's caches: the snapshot at the tip comes from (and feeds) the
// session's shared state, and a report's historical γ state and its
// program are remembered on the tip snapshot. Hypothetical-side
// evaluations are never cached.
func (s *Session) WhatIfAggregatesCtx(ctx context.Context, mods []history.Modification, queries []AggregateQuery, opts Options) (delta.Set, []AggregateReport, *Stats, error) {
	return s.e.whatIfAggregates(ctx, mods, queries, opts, s.shared())
}

// NaiveAggregatesCtx is Engine.NaiveCtx plus attached aggregate
// queries, evaluated through the session at the same tip the naive
// delta was diffed against. The delta itself touches no session cache
// (Alg. 1 is the oracle); the reports do, like every report. The
// aggregate evaluation uses the default executor options (the naive
// algorithm has none of its own).
func (s *Session) NaiveAggregatesCtx(ctx context.Context, mods []history.Modification, queries []AggregateQuery) (delta.Set, []AggregateReport, *NaiveStats, error) {
	shared := s.shared()
	d, st, tip, err := s.e.naiveFrom(ctx, mods)
	if err != nil {
		return nil, nil, nil, err
	}
	reps, _, err := s.e.tipReports(ctx, queries, d, tip, Options{}, shared, nil)
	if err != nil {
		return nil, nil, nil, err
	}
	return d, reps, st, nil
}

// EvalAggregates answers one binding plus attached aggregate queries
// (see EvalAggregatesCtx).
func (t *Template) EvalAggregates(binding map[string]types.Value, queries []AggregateQuery) (delta.Set, []AggregateReport, error) {
	return t.EvalAggregatesCtx(context.Background(), binding, queries)
}

// EvalAggregatesCtx answers the template for one binding and evaluates
// the attached aggregate queries against the artifact's pinned version:
// the historical side is the state at the artifact's tip, the
// hypothetical side is that state patched with the binding's delta.
// Both the delta and the reports come from the same artifact, so a
// concurrent append cannot split their frames of reference.
func (t *Template) EvalAggregatesCtx(ctx context.Context, binding map[string]types.Value, queries []AggregateQuery) (delta.Set, []AggregateReport, error) {
	art, err := t.artifact(ctx)
	if err != nil {
		return nil, nil, err
	}
	return t.evalArtifact(ctx, art, binding, queries)
}

// TemplateAggResult is the outcome of one binding in an aggregate-
// attached batch eval.
type TemplateAggResult struct {
	// Binding is the index into the submitted slice.
	Binding int
	// Delta is the substituted scenario's delta (nil when Err != nil).
	Delta delta.Set
	// Aggregates are the attached queries' reports, in query order.
	Aggregates []AggregateReport
	// Err is the binding's evaluation error, if any.
	Err error
}

// EvalAggregatesBatchCtx evaluates many bindings with attached
// aggregate queries over a worker pool (workers <= 0 uses GOMAXPROCS).
// Results keep submission order; a failing binding never aborts its
// siblings. All bindings answer against one artifact, refreshed once up
// front.
func (t *Template) EvalAggregatesBatchCtx(ctx context.Context, bindings []map[string]types.Value, queries []AggregateQuery, workers int) ([]TemplateAggResult, error) {
	if len(bindings) == 0 {
		return nil, fmt.Errorf("core: empty template binding batch")
	}
	art, err := t.artifact(ctx)
	if err != nil {
		return nil, err
	}
	results := make([]TemplateAggResult, len(bindings))
	runBatch(allPositions(len(bindings)), workers, nil, func(i int) {
		if err := ctx.Err(); err != nil {
			results[i] = TemplateAggResult{Binding: i, Err: err}
			return
		}
		d, reps, err := t.evalArtifact(ctx, art, bindings[i], queries)
		results[i] = TemplateAggResult{Binding: i, Delta: d, Aggregates: reps, Err: err}
	})
	return results, ctx.Err()
}
