package core

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync/atomic"

	"github.com/mahif/mahif/internal/algebra"
	"github.com/mahif/mahif/internal/delta"
	"github.com/mahif/mahif/internal/exec"
	"github.com/mahif/mahif/internal/schema"
	"github.com/mahif/mahif/internal/storage"
	"github.com/mahif/mahif/internal/types"
)

// The merged route of an aggregate report. A γ's state over a bag
// (algebra.GroupState) merges: folding the hypothetical relation
// historical − Minus + Plus gives the state historical − state(Minus) +
// state(Plus), because σ and Π act row by row and a join with
// unchanged relations distributes over the bag sum. So a report keeps
// the historical state of its query — computed once per snapshot and
// remembered on it — and per what-if runs the same γ over the Minus bag
// and over the Plus bag, tiny private relations read beside the shared
// unchanged ones, merges, and finalizes only the merged state. Its cost
// follows the delta, where the patch route copies and re-aggregates the
// whole relation. Both routes give the same report bit for bit: COUNT
// is a count, SUM and AVG are exact (algebra.AggAcc), groups new in the
// hypothetical world come in Plus first-appearance order — the order
// the patched relation, with Plus appended, produces — and a group left
// with no row is absent. Where the states do not determine the answer
// the patch route runs instead, counted by reason (reportRoute).

// reportRoute is how one report was answered: merged, or by the patch
// route for a reason.
type reportRoute uint8

const (
	routeMerged reportRoute = iota
	// routeShape: the γ input reads a changed relation through a node
	// other than σ, Π, ⋈ or a scan (∪ or a nested γ).
	routeShape
	// routeRelations: the γ input scans two changed relations.
	routeRelations
	// routeSelfJoin: the γ input scans its changed relation twice.
	routeSelfJoin
	// routeExtremumRemoved: a Minus value equals a group's MIN or MAX.
	routeExtremumRemoved
	// routeExtremumTie: a Plus value ties a group's MIN or MAX without
	// being identical to it.
	routeExtremumTie
	numRoutes
)

// ReportRoutes counts aggregate reports by the route that answered
// them. A merged report folded the delta's Minus and Plus bags through
// the report's γ and merged them into the historical state remembered
// on the snapshot; a patched one patched the whole relation and
// re-aggregated it, for one of the reasons below.
type ReportRoutes struct {
	Merged, Patched int64
	// Provisioned counts the merged reports of template bindings that
	// merged γ states the template's artifact fixed once — a band
	// table's prefix states, or an executed plan's original side folded
	// once — instead of folding the binding's Minus and Plus, and those
	// of bindings whose delta is empty. It is part of Merged.
	Provisioned int64
	// Shape: the γ input reads a changed relation through a node other
	// than σ, Π, ⋈ or a scan (∪ or a nested γ).
	Shape int64
	// Relations: the γ input scans two changed relations.
	Relations int64
	// SelfJoin: the γ input scans its changed relation more than once.
	SelfJoin int64
	// ExtremumRemoved: a Minus value equals a group's MIN or MAX, so the
	// next extremum is not known.
	ExtremumRemoved int64
	// ExtremumTie: a Plus value ties a group's MIN or MAX without being
	// identical to it (1 and 1.0), so which one the report shows depends
	// on input order.
	ExtremumTie int64
}

// routeCounts tallies one call's reports by route.
type routeCounts [numRoutes]int64

// routeCounters accumulates route tallies across calls, and how many of
// the merged reports were provisioned (ReportRoutes.Provisioned).
type routeCounters struct {
	routes      [numRoutes]atomic.Int64
	provisioned atomic.Int64
}

func (c *routeCounters) add(t *routeCounts, provisioned int64) {
	for r, n := range t {
		if n != 0 {
			c.routes[r].Add(n)
		}
	}
	c.provisioned.Add(provisioned)
}

func (c *routeCounters) load() ReportRoutes {
	var t routeCounts
	for r := range t {
		t[r] = c.routes[r].Load()
	}
	rr := ReportRoutes{
		Merged:          t[routeMerged],
		Provisioned:     c.provisioned.Load(),
		Shape:           t[routeShape],
		Relations:       t[routeRelations],
		SelfJoin:        t[routeSelfJoin],
		ExtremumRemoved: t[routeExtremumRemoved],
		ExtremumTie:     t[routeExtremumTie],
	}
	rr.Patched = rr.Shape + rr.Relations + rr.SelfJoin + rr.ExtremumRemoved + rr.ExtremumTie
	return rr
}

// The provisioned route: a template binding's reports merge γ states
// the template's artifact fixed once instead of folding the binding's
// delta.
// A band table (provision.go) keeps, per report query, prefix γ states
// of its old and of its new versions, and an executed plan's original
// side (templateRel) is framed against the tip and folded once; a
// binding then merges the historical state with those states and folds
// only the rows they do not cover. The merged bag is the one the merged
// route merges — historical − Minus + Plus — with the rows the delta
// cancelled counted on both sides. COUNT, SUM and AVG merge exactly, so
// the states give the merged route's report bit for bit wherever
//
//   - the cancelled rows are the same values, which holds when the two
//     versions sit on the same typed lane in every column: an int lane
//     holds no 1.0 to cancel a 1, and the only Equal floats that differ,
//     ±0, fold alike (a zero total is +0, and dividing by either is an
//     error), and
//   - no group is new in the hypothetical world, whose groups the merged
//     route lists in the order Plus first shows them.
//
// Every other report takes the merged route (or the patch route, where
// that one would) and is counted by reason (reportFallback).

// provisioner answers a binding's merged reports from states its
// template artifact fixed.
type provisioner interface {
	// hypothetical returns agg's state over the hypothetical relation
	// rel, the one changed relation the γ input reads, merged into h's
	// state, or nil and why the artifact's states do not give it. Its
	// error is the evaluation's context's.
	hypothetical(agg *algebra.Aggregate, h *historical, hist *storage.Database, rel string, ev evaluator) (*algebra.GroupState, reportFallback, error)
}

// reportFallback is why a provisioned binding's report was not answered
// from its artifact's states.
type reportFallback uint8

const (
	whyNone reportFallback = iota
	// whyExtremum: the query has a MIN or MAX, which do not subtract.
	whyExtremum
	// whyNewGroup: a group is new in the hypothetical world.
	whyNewGroup
	// whyUnframed: a changed relation's side is not framed against
	// the tip, so the report checks the frame itself.
	whyUnframed
	// whyShape: mergeable rejects the query (the patch route).
	whyShape
	// whyLanes: the versions do not sit on the same typed lanes.
	whyLanes
	// whyFold: folding the artifact's rows failed.
	whyFold
	// whySmallerDelta: the delta's Minus ∪ Plus is the smaller fold.
	whySmallerDelta
	numFallbacks
)

// reportFallbackNames are TemplateStats.ReportFallbacks' keys.
var reportFallbackNames = [numFallbacks]string{"", "min or max", "new group", "unframed", "query shape", "mixed lanes", "fold error", "smaller delta"}

// fallbackCounters counts a template's report fallbacks by reason.
type fallbackCounters [numFallbacks]atomic.Int64

// load returns the non-zero counts by name, nil when there are none.
func (c *fallbackCounters) load() map[string]int64 {
	var out map[string]int64
	for why := whyNone + 1; why < numFallbacks; why++ {
		if n := c[why].Load(); n > 0 {
			if out == nil {
				out = map[string]int64{}
			}
			out[reportFallbackNames[why]] = n
		}
	}
	return out
}

// reportFrame is what a template artifact fixed for one binding's
// reports.
type reportFrame struct {
	// bags holds the binding's non-empty deltas by lower-cased relation,
	// framed by the artifact; nil when a changed relation's side is not
	// framed, and the reports check the frame themselves (checkFrame).
	bags map[string]bags
	prov provisioner
	// fallbacks receives the reports prov does not answer, by reason, and
	// provisioned counts those it answers.
	fallbacks   *fallbackCounters
	provisioned int64
}

// provisions reports whether rf answers reports from its artifact.
func (rf *reportFrame) provisions() bool { return rf != nil && rf.prov != nil }

// fellBack counts one report the artifact did not answer, for why.
func (rf *reportFrame) fellBack(why reportFallback) {
	if rf.provisions() {
		rf.fallbacks[why].Add(1)
	}
}

// hypothetical is rf's provisioner's answer for agg over rel, nil (and
// counted) where it has none.
func (rf *reportFrame) hypothetical(agg *algebra.Aggregate, h *historical, hist *storage.Database, rel string, ev evaluator) (*algebra.GroupState, error) {
	why := whyExtremum
	var st *algebra.GroupState
	if !hasExtremum(agg) {
		var err error
		if st, why, err = rf.prov.hypothetical(agg, h, hist, rel, ev); err != nil {
			return nil, err
		}
	}
	if st == nil {
		rf.fellBack(why)
	}
	return st, nil
}

// hasExtremum reports whether q computes a MIN or a MAX.
func hasExtremum(q *algebra.Aggregate) bool {
	for _, fn := range q.Funcs() {
		if fn == algebra.AggMin || fn == algebra.AggMax {
			return true
		}
	}
	return false
}

// newGroup reports whether hyp, merged from hist, holds rows in a group
// hist does not have.
func newGroup(hyp, hist *algebra.GroupState) bool {
	for g := hist.Len(); g < hyp.Len(); g++ {
		if hyp.RowCount(g) > 0 {
			return true
		}
	}
	return false
}

// sameLanes reports whether every column of a and b sits on the same
// typed lane (int, float or string), or either has no rows: then a row
// of one is Equal to a row of the other only if it holds the same values
// (up to the sign of a zero).
func sameLanes(a, b *storage.ColumnarView) bool {
	if a.Rows == 0 || b.Rows == 0 {
		return true
	}
	if len(a.Cols) != len(b.Cols) {
		return false
	}
	for c := range a.Cols {
		if k := a.Cols[c].Kind; k != b.Cols[c].Kind || k == types.KindNull {
			return false
		}
	}
	return true
}

// mergeStates returns a clone of st with each of the given states
// merged in under its sign, or an error where one does not merge.
func mergeStates(st *algebra.GroupState, parts ...signedState) (*algebra.GroupState, error) {
	out := st.Clone()
	for _, p := range parts {
		if err := out.Merge(p.st, p.sign); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// signedState is a state to merge, folded in (+1) or taken out (−1).
type signedState struct {
	st   *algebra.GroupState
	sign int
}

// bags is one changed relation's delta as the merged route folds it:
// minus is the bag of rows the patch route removes from the relation,
// which is the delta's Minus unless that differs from them in a way
// Equal hides (see RowHashIndex.Match).
type bags struct {
	minus, plus []schema.Tuple
}

// checkFrame requires d to fit hist — every changed relation exists and
// holds every Minus tuple, with multiplicity — and returns the
// non-empty deltas' bags by lower-cased relation name. Each Minus tuple
// is probed in the relation's row-hash index (Relation.RowHashes,
// remembered on a snapshot), so a check costs the delta, not the
// relation.
func checkFrame(hist *storage.Database, d delta.Set) (map[string]bags, error) {
	changed := make(map[string]bags, len(d))
	for name, dr := range d {
		if dr == nil || dr.Empty() {
			continue
		}
		r, err := hist.Relation(name)
		if err != nil {
			return nil, fmt.Errorf("core: delta for a relation the historical state lacks: %w", err)
		}
		b := bags{minus: dr.Minus, plus: dr.Plus}
		if len(dr.Minus) > 0 {
			ix, err := r.RowHashes()
			if err != nil {
				return nil, fmt.Errorf("core: delta for %s: %w", name, err)
			}
			rows, missing, identical := ix.Match(dr.Minus)
			if missing > 0 {
				return nil, frameError(r, missing)
			}
			if !identical {
				b.minus = ix.Gather(rows)
			}
		}
		changed[strings.ToLower(name)] = b
	}
	return changed, nil
}

// mergeable classifies a γ input against the changed relations: the
// merged route needs σ, Π and ⋈ over scans, of which exactly one reads
// a changed relation, whose name it returns. An input that reads no
// changed relation is merged too (its hypothetical state is the
// historical one), with rel "".
func mergeable(in algebra.Query, changed map[string]bags) (rel string, route reportRoute) {
	has := func(name string) bool { _, ok := changed[name]; return ok }
	other := false
	var scans []string
	var walk func(algebra.Query)
	walk = func(q algebra.Query) {
		switch x := q.(type) {
		case *algebra.Scan:
			if name := strings.ToLower(x.Rel); has(name) {
				scans = append(scans, name)
			}
		case *algebra.Select:
			walk(x.In)
		case *algebra.Project:
			walk(x.In)
		case *algebra.Join:
			walk(x.L)
			walk(x.R)
		default:
			other = true
			for name := range algebra.BaseRelations(q) {
				if has(name) {
					scans = append(scans, name)
				}
			}
		}
	}
	walk(in)
	switch {
	case len(scans) == 0:
		return "", routeMerged
	case other:
		return "", routeShape
	}
	for _, name := range scans[1:] {
		if name != scans[0] {
			return "", routeRelations
		}
	}
	if len(scans) > 1 {
		return "", routeSelfJoin
	}
	return scans[0], routeMerged
}

// mergedReport answers q by the merged route (see the top of this
// file), or returns the reason it cannot — and no report — for the
// patch route to answer instead. changed holds the non-empty deltas
// checkFrame returned, or that rf framed; rf, when it carries a
// provisioner, answers the merge from its artifact's states instead of
// folding the delta where it can, and counts which reports it answered
// and why it did not answer the others.
func mergedReport(q AggregateQuery, hist *storage.Database, changed map[string]bags, ev evaluator, rf *reportFrame) (AggregateReport, reportRoute, error) {
	agg, ok := q.Query.(*algebra.Aggregate)
	if !ok {
		return AggregateReport{}, routeMerged, fmt.Errorf("core: aggregate query %q must aggregate at the top level", q.SQL)
	}
	rel, route := mergeable(agg.In, changed)
	if route != routeMerged {
		rf.fellBack(whyShape)
		return AggregateReport{}, route, nil
	}
	h, err := ev.historical(agg, hist)
	if err != nil {
		return AggregateReport{}, route, fmt.Errorf("core: aggregate query %q (historical): %w", q.SQL, err)
	}
	hypErr := func(err error) error { return fmt.Errorf("core: aggregate query %q (hypothetical): %w", q.SQL, err) }
	hyp, provisioned := h.state, rf.provisions()
	if rel != "" {
		var st *algebra.GroupState
		if provisioned {
			if st, err = rf.hypothetical(agg, h, hist, rel, ev); err != nil {
				return AggregateReport{}, route, hypErr(err)
			}
			provisioned = st != nil
		}
		if st == nil {
			if st, route, err = foldBags(agg, h, hist, rel, changed[rel], ev); err != nil || route != routeMerged {
				if err != nil {
					err = hypErr(err)
				}
				return AggregateReport{}, route, err
			}
		}
		hyp = st
	}

	ng, na := len(agg.GroupBy), len(agg.Aggs)
	rep := newReport(q, agg)
	rep.Rows = make([]AggregateRow, 0, hyp.Len())
	for g := 0; g < hyp.Len(); g++ {
		var hi, hy schema.Tuple
		if g < len(h.rows) {
			hi = h.rows[g]
		}
		if hyp == h.state {
			hy = hi
		} else if hy, err = hyp.Row(g); err != nil {
			return AggregateReport{}, route, hypErr(err)
		}
		if hi != nil || hy != nil {
			rep.Rows = append(rep.Rows, reportRow(ng, na, hi, hy))
		}
	}
	if provisioned {
		rf.provisioned++
	}
	return rep, route, nil
}

// foldBags is the merged route's merge: agg's state over the
// hypothetical relation rel is the historical state h − the fold of b's
// Minus + the fold of its Plus. It returns the route that must answer
// instead, and no state, where a MIN or MAX does not merge.
func foldBags(agg *algebra.Aggregate, h *historical, hist *storage.Database, rel string, b bags, ev evaluator) (*algebra.GroupState, reportRoute, error) {
	r, err := hist.Relation(rel)
	if err != nil {
		return nil, routeMerged, err
	}
	hyp := h.state.Clone()
	for _, side := range []struct {
		bag  []schema.Tuple
		sign int
	}{{b.minus, -1}, {b.plus, 1}} {
		if len(side.bag) == 0 {
			continue
		}
		bag := storage.NewRelation(r.Schema)
		bag.Tuples = side.bag
		st, err := ev.foldState(ev.evalCtx(), agg, h.prog, hist.With(bag))
		if err != nil {
			return nil, routeMerged, err
		}
		switch err := hyp.Merge(st, side.sign); {
		case errors.Is(err, algebra.ErrExtremumRemoved):
			return nil, routeExtremumRemoved, nil
		case errors.Is(err, algebra.ErrExtremumTie):
			return nil, routeExtremumTie, nil
		case err != nil:
			return nil, routeMerged, err
		}
	}
	return hyp, routeMerged, nil
}

// historical is a report query's γ over the historical state: its state
// — what the merged route merges into — its output rows, one per group
// in state order, and the program that folded it (nil: interpreted),
// which the report's Minus and Plus folds and the patch route's
// hypothetical γ run too.
type historical struct {
	state *algebra.GroupState
	rows  []schema.Tuple
	prog  *exec.Program
}

// histKey identifies a historical γ among the values derived from the
// relation its query scans first by name: the query's fingerprint, the
// executor that folded it and the options its program was compiled
// under (a program's batch size and scan parallelism are fixed at
// compile time), and the other relations it scans (by name), so a state
// is never served for another combination of relations.
type histKey struct {
	fp   string
	kind ExecutorKind
	vec  exec.VecOptions
	deps [3]*storage.Relation
}

func (histKey) ReportKey() {}

// historical returns q's historical γ over db. It is remembered on the
// relation q scans first by name (Relation.Derive) — once per frozen
// snapshot and shared read-only by every report, session and template
// over it — and computed afresh over a private one, or when q scans
// more relations than histKey can name. ev.work, when set, counts the
// γ compiled, or the program reused when another report built it.
func (ev evaluator) historical(q *algebra.Aggregate, db *storage.Database) (*historical, error) {
	built := false
	compute := func() (any, error) {
		built = true
		prog := ev.program(q, db)
		// Not cancellable: what a frozen relation remembers must be the
		// data's answer, never the error of the request that asked first.
		st, err := ev.foldState(context.WithoutCancel(ev.evalCtx()), q, prog, db)
		if err != nil {
			return nil, err
		}
		rows, err := st.Rows()
		if err != nil {
			return nil, err
		}
		return &historical{state: st, rows: rows, prog: prog}, nil
	}
	var names []string
	for name := range algebra.BaseRelations(q) {
		names = append(names, name)
	}
	sort.Strings(names)
	key := histKey{fp: algebra.Fingerprint(q), kind: normalizeExecutor(ev.kind), vec: ev.vec}
	var first *storage.Relation
	if len(names) <= 1+len(key.deps) {
		for i, name := range names {
			r, err := db.Relation(name)
			if err != nil {
				return nil, err
			}
			if i == 0 {
				first = r
			} else {
				key.deps[i-1] = r
			}
		}
	}
	var v any
	var err error
	if first != nil {
		v, err = first.Derive(key, compute)
	} else {
		v, err = compute()
	}
	if err != nil {
		return nil, err
	}
	h := v.(*historical)
	if !built && h.prog != nil && ev.work != nil {
		ev.work.reused.Add(1)
	}
	return h, nil
}

// foldState folds γ q over db into its state: through prog, or through
// the interpreter when prog is nil (see evaluator.program).
func (ev evaluator) foldState(ctx context.Context, q *algebra.Aggregate, prog *exec.Program, db *storage.Database) (*algebra.GroupState, error) {
	if prog != nil {
		return prog.RunGroupStateCtx(ctx, db)
	}
	if err := ev.interpreting(ctx); err != nil {
		return nil, err
	}
	return algebra.EvalGroupState(q, db)
}

// foldRows folds γ q over db with relation rel holding rows [lo, hi) of
// v: on v's lanes through prog, or boxed for the interpreter when prog
// is nil.
func (ev evaluator) foldRows(q *algebra.Aggregate, prog *exec.Program, db *storage.Database, rel string, v *storage.ColumnarView, lo, hi int) (*algebra.GroupState, error) {
	if prog != nil {
		return prog.RunGroupStateViewCtx(ev.evalCtx(), db, rel, v, lo, hi)
	}
	r, err := db.Relation(rel)
	if err != nil {
		return nil, err
	}
	rows := make([]int, hi-lo)
	for i := range rows {
		rows[i] = lo + i
	}
	bag := storage.NewRelation(r.Schema)
	bag.Tuples = v.GatherTuples(rows)
	return ev.foldState(ev.evalCtx(), q, nil, db.With(bag))
}
