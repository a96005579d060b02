package core

import (
	"context"
	"slices"
	"sort"
	"strings"
	"time"

	"github.com/mahif/mahif/internal/algebra"
	"github.com/mahif/mahif/internal/compile"
	"github.com/mahif/mahif/internal/dataslice"
	"github.com/mahif/mahif/internal/history"
	"github.com/mahif/mahif/internal/progslice"
	"github.com/mahif/mahif/internal/reenact"
	"github.com/mahif/mahif/internal/storage"
	"github.com/mahif/mahif/internal/symbolic"
	"github.com/mahif/mahif/internal/types"
)

// plan is the outcome of Alg. 2 up to, but not including, query
// execution: the pinned time-travel state, and for every relation whose
// delta can be non-empty the two reenactment queries to run over it. A
// what-if runs both sides of every relation and diffs them; a template
// runs the original sides once and keeps the modified sides whose
// $slots are still open. Both go through here, so every slicing
// decision is taken in exactly one place.
type plan struct {
	// db is the state right before the first modified statement, shared
	// read-only when it came from a snapshot cache.
	db *storage.Database
	// params are the $slots of the modified side with their inferred
	// value classes; empty for a plain what-if.
	params map[string]paramClass
	// keptPlan holds the relations sliced with the $slots free — or, for
	// a range template, sliced at the union of its two sides' keep sets.
	keptPlan
	// slot is set for a range template (rangeSlot): sides[s] counts what
	// its slotted relation keeps sliced at side s's end. For any other
	// template fallback says why it is not one.
	slot     *rangeSlot
	sides    [2]keptCount
	fallback string
	// ends[s] is a range template's slotted relation, insert-free, with
	// the histories cut to side s's keep set and side s's end in the
	// slotted statement's place: the constant what-if a band table
	// reenacts (bandPlan). provision says why the template is not
	// provisioned, "" when it is.
	ends      [2]*history.PaddedPair
	provision string
	// stats carries the phases spent so far and the slice quality.
	stats *Stats
}

// keptPlan is the reenactment queries of one keep set.
type keptPlan struct {
	// rels holds one entry per tainted relation, sorted by name.
	rels []relPlan
	keptCount
}

// keptCount counts the statements a keep set keeps over all relations;
// bindingDependent those of them that carry a $slot.
type keptCount struct {
	kept, bindingDependent int
}

// add counts the kept part of one relation's history, looking for
// $slots in its statements when the history has any.
func (c *keptCount) add(kept *history.PaddedPair, slots bool) {
	c.kept += len(kept.Orig)
	if !slots {
		return
	}
	for _, st := range kept.Mod {
		if len(history.Params(st)) > 0 {
			c.bindingDependent++
		}
	}
}

// relPlan is the pair of reenactment queries answering one relation.
// Its original side never depends on a binding: a relation whose
// original-side slicing filter carries a $slot is planned without
// filters (addRelation).
type relPlan struct {
	rel       string
	orig, mod algebra.Query
}

// plan runs time travel, data slicing and per-relation program slicing
// for an aligned pair and builds the reenactment queries. $slots in the
// modified history are typed from their context and handed to the
// solver as free variables, which is sound for every later binding
// (UNSAT with a free slot ⇒ UNSAT for each constant) — except for a
// range template, whose slot is no solver variable: it is sliced once
// at each end of its slot's range (rangeSlot). The evaluation path only
// reads db, so a shared snapshot is safe.
func (e *Engine) plan(ctx context.Context, pair *history.PaddedPair, tip int, opts Options, shared *batchShared) (*plan, error) {
	stats := &Stats{Slices: map[string]progslice.Stats{}}
	t0 := time.Now()
	suffix, db, err := e.timeTravel(ctx, pair, tip, shared)
	if err != nil {
		return nil, err
	}
	stats.TimeTravel = time.Since(t0)
	stats.TotalStatements = len(suffix.Orig)

	p := &plan{db: db, stats: stats}
	if p.params, err = inferParams(suffix, db); err != nil {
		return nil, err
	}
	solver := compile.Options{Memo: shared.memo}
	if p.slot, p.fallback = rangeSlotOf(suffix, p.params, db, opts); p.slot == nil && len(p.params) > 0 {
		solver.ParamKinds = make(map[string]types.Kind, len(p.params))
		for name, c := range p.params {
			solver.ParamKinds[name] = c.kind()
		}
	}

	// Relations to answer for; taint analysis prunes provably-empty
	// deltas.
	tainted := dataslice.TaintedRelations(suffix)
	var targets []string
	for rel := range relationUnion(suffix) {
		if tainted[rel] {
			targets = append(targets, rel)
		} else {
			stats.SkippedRelations = append(stats.SkippedRelations, rel)
		}
	}
	sort.Strings(targets)
	sort.Strings(stats.SkippedRelations)

	// Data slicing (§6). The push-down is exact for every constant, so a
	// $slot in a condition simply stays open in the filters it reaches;
	// addRelation plans a relation whose original side such a filter
	// slices without filters.
	filters := &dataslice.Conditions{H: reenact.Filters{}, M: reenact.Filters{}}
	if opts.DataSlicing {
		t0 := time.Now()
		if filters, err = dataslice.Compute(suffix, db, dataslice.Options{}); err != nil {
			return nil, err
		}
		stats.DataSlicing = time.Since(t0)
	}

	for _, rel := range targets {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if err := e.planRelation(ctx, p, suffix, rel, filters, opts, solver); err != nil {
			return nil, err
		}
	}
	p.provision = p.provisionOf(suffix)
	stats.KeptStatements = p.kept
	shared.countLowered(stats.SolverLowered)
	return p, nil
}

// planRelation builds one relation's query pair. With program slicing
// the §10 split runs the dependency-sliced insert-free part of the
// history over the base relation and unions it with the insert
// branches; without it (variants R and R+DS) every statement is kept
// and inserts stay inline, so there are no branches. A range template
// slices the insert-free part once per end of its slot's range, counts
// each side's keep set, keeps its slotted relation's end pairs for the
// band tables and gets one pair, over the union of the two keep sets.
func (e *Engine) planRelation(ctx context.Context, p *plan, suffix *history.PaddedPair, rel string, filters *dataslice.Conditions, opts Options, solver compile.Options) error {
	relPair, _ := suffix.RestrictToRelation(rel)
	add := func(kp *keptPlan, kept *history.PaddedPair) error {
		return p.addRelation(kp, suffix, kept, rel, filters, opts)
	}
	if !opts.ProgramSlicing {
		return add(&p.keptPlan, relPair)
	}
	noIns := stripInsertPair(relPair)
	kept := func(keep []int) *history.PaddedPair {
		return &history.PaddedPair{Orig: noIns.Orig.Restrict(keep), Mod: noIns.Mod.Restrict(keep)}
	}
	// With every modification on rel an insert pair, the insert-free
	// parts of both histories are identical, so the base branches cancel
	// and nothing is kept.
	var in *progslice.Input
	if len(noIns.ModifiedPos) > 0 {
		relation, err := p.db.Relation(rel)
		if err != nil {
			return err
		}
		phiD, err := symbolic.Compress(relation, symbolic.CompressOptions{})
		if err != nil {
			return err
		}
		in = &progslice.Input{Pair: noIns, Schema: relation.Schema, PhiD: phiD, Compile: solver}
	}
	if p.slot == nil {
		keep, err := p.dependencyKeep(ctx, in, rel)
		if err != nil {
			return err
		}
		return add(&p.keptPlan, kept(keep))
	}
	var keeps [2][]int
	for side := range keeps {
		var atEnd *progslice.Input
		if in != nil {
			atEnd = &progslice.Input{Pair: p.slot.atEnd(noIns, side), Schema: in.Schema, PhiD: in.PhiD, Compile: solver}
		}
		var err error
		if keeps[side], err = p.dependencyKeep(ctx, atEnd, rel); err != nil {
			return err
		}
		if atEnd != nil && strings.EqualFold(rel, p.slot.rel) {
			p.ends[side] = &history.PaddedPair{Orig: noIns.Orig.Restrict(keeps[side]), Mod: atEnd.Pair.Mod.Restrict(keeps[side])}
		}
		p.sides[side].add(kept(keeps[side]), true)
	}
	union := slices.Concat(keeps[0], keeps[1])
	slices.Sort(union)
	return add(&p.keptPlan, kept(slices.Compact(union)))
}

// dependencyKeep runs the dependency slicing of in, nothing when in is
// nil, and adds the run's effort to p's stats.
func (p *plan) dependencyKeep(ctx context.Context, in *progslice.Input, rel string) ([]int, error) {
	if in == nil {
		return nil, nil
	}
	res, err := progslice.DependencyCtx(ctx, in)
	if err != nil {
		return nil, err
	}
	if p.slot == nil {
		p.stats.Slices[rel] = res.Stats
	}
	p.stats.ProgramSlicing += res.Stats.Duration
	p.stats.SolverTests += res.Stats.Tests
	p.stats.SolverNodes += res.Stats.SolverNodes
	p.stats.SolverLowered += res.Stats.Lowered
	return res.Keep, nil
}

// addRelation builds rel's query pair over the kept part of its
// history and adds it to kp.
func (p *plan) addRelation(kp *keptPlan, suffix, kept *history.PaddedPair, rel string, filters *dataslice.Conditions, opts Options) error {
	kp.add(kept, len(p.params) > 0)

	// Building the queries counts as execution time, as it always has.
	t0 := time.Now()
	side := func(kept, whole history.History, f reenact.Filters) (algebra.Query, error) {
		if !opts.ProgramSlicing {
			// Inserts stay inline, and INSERT … SELECT must see the
			// reenacted state of the relations it reads: build from the
			// whole suffix.
			return reenact.QueryForRelation(whole, rel, p.db, f)
		}
		q, err := reenact.QueryForRelation(kept, rel, p.db, f)
		if err != nil {
			return nil, err
		}
		br, err := reenact.InsertBranches(whole, rel, p.db)
		if err != nil || br == nil {
			return q, err
		}
		return &algebra.Union{L: q, R: br}, nil
	}
	pair := func(h, m reenact.Filters) (*relPlan, error) {
		qo, err := side(kept.Orig, suffix.Orig, h)
		if err != nil {
			return nil, err
		}
		qm, err := side(kept.Mod, suffix.Mod, m)
		if err != nil {
			return nil, err
		}
		return &relPlan{rel: rel, orig: qo, mod: qm}, nil
	}
	rp, err := pair(filters.H, filters.M)
	if err != nil {
		return err
	}
	// The original history carries no $slot, so one in orig came from a
	// filter: plan the relation unfiltered, so that its original side is
	// binding-free and a template runs it once.
	if len(algebra.Params(rp.orig)) > 0 {
		if rp, err = pair(nil, nil); err != nil {
			return err
		}
	}
	p.stats.Execute += time.Since(t0)
	kp.rels = append(kp.rels, *rp)
	return nil
}

func allPositions(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

// stripInsertPair removes aligned insert positions from a pair; the
// reduced pair's ModifiedPos are the surviving modified positions.
func stripInsertPair(pair *history.PaddedPair) *history.PaddedPair {
	modSet := map[int]bool{}
	for _, p := range pair.ModifiedPos {
		modSet[p] = true
	}
	out := &history.PaddedPair{}
	for i := range pair.Orig {
		if isInsert(pair.Orig[i]) || isInsert(pair.Mod[i]) {
			continue
		}
		out.Orig = append(out.Orig, pair.Orig[i])
		out.Mod = append(out.Mod, pair.Mod[i])
		if modSet[i] {
			out.ModifiedPos = append(out.ModifiedPos, len(out.Orig)-1)
		}
	}
	return out
}

func isInsert(s history.Statement) bool {
	switch s.(type) {
	case *history.InsertValues, *history.InsertQuery:
		return true
	}
	return false
}
