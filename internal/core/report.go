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
	// other than σ, Π, ⋈ or a scan.
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
	// Shape: the γ input reads a changed relation through a node other
	// than σ, Π, ⋈ or a scan (∪, −, a nested γ).
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

// routeCounters accumulates route tallies across calls.
type routeCounters [numRoutes]atomic.Int64

func (c *routeCounters) add(t *routeCounts) {
	for r, n := range t {
		if n != 0 {
			c[r].Add(n)
		}
	}
}

func (c *routeCounters) load() ReportRoutes {
	var t routeCounts
	for r := range t {
		t[r] = c[r].Load()
	}
	rr := ReportRoutes{
		Merged:          t[routeMerged],
		Shape:           t[routeShape],
		Relations:       t[routeRelations],
		SelfJoin:        t[routeSelfJoin],
		ExtremumRemoved: t[routeExtremumRemoved],
		ExtremumTie:     t[routeExtremumTie],
	}
	rr.Patched = rr.Shape + rr.Relations + rr.SelfJoin + rr.ExtremumRemoved + rr.ExtremumTie
	return rr
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
// checkFrame returned.
func mergedReport(q AggregateQuery, hist *storage.Database, changed map[string]bags, ev evaluator) (AggregateReport, reportRoute, error) {
	agg, ok := q.Query.(*algebra.Aggregate)
	if !ok {
		return AggregateReport{}, routeMerged, fmt.Errorf("core: aggregate query %q must aggregate at the top level", q.SQL)
	}
	rel, route := mergeable(agg.In, changed)
	if route != routeMerged {
		return AggregateReport{}, route, nil
	}
	h, err := ev.historical(agg, hist)
	if err != nil {
		return AggregateReport{}, route, fmt.Errorf("core: aggregate query %q (historical): %w", q.SQL, err)
	}
	hypErr := func(err error) error { return fmt.Errorf("core: aggregate query %q (hypothetical): %w", q.SQL, err) }
	hyp := h.state
	if rel != "" {
		b := changed[rel]
		r, err := hist.Relation(rel)
		if err != nil {
			return AggregateReport{}, route, err
		}
		hyp = h.state.Clone()
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
				return AggregateReport{}, route, hypErr(err)
			}
			switch err := hyp.Merge(st, side.sign); {
			case errors.Is(err, algebra.ErrExtremumRemoved):
				return AggregateReport{}, routeExtremumRemoved, nil
			case errors.Is(err, algebra.ErrExtremumTie):
				return AggregateReport{}, routeExtremumTie, nil
			case err != nil:
				return AggregateReport{}, route, hypErr(err)
			}
		}
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
	return rep, route, nil
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
