package main

import (
	"context"
	"fmt"
	"sort"

	"github.com/mahif/mahif/internal/algebra"
	"github.com/mahif/mahif/internal/compile"
	"github.com/mahif/mahif/internal/core"
	"github.com/mahif/mahif/internal/dataslice"
	"github.com/mahif/mahif/internal/delta"
	"github.com/mahif/mahif/internal/exec"
	"github.com/mahif/mahif/internal/expr"
	"github.com/mahif/mahif/internal/history"
	"github.com/mahif/mahif/internal/progslice"
	"github.com/mahif/mahif/internal/reenact"
	"github.com/mahif/mahif/internal/storage"
	"github.com/mahif/mahif/internal/symbolic"
	"github.com/mahif/mahif/internal/types"
)

// stager is the staged replay: it answers a what-if by driving the
// pipeline core.whatIfPair/splitPath run (default options: R+PS+DS,
// dependency slicing, insert split, taint pruning, vectorized executor)
// through the layers' exported functions, in the same order and with
// the same kinds of caches a core.Session holds, one span per call.
// The delta it returns must equal the real call's; the spans say where
// the time of that call goes.
type stager struct {
	tr     *tracer
	engine *core.Engine
	vdb    *storage.VersionedDatabase

	// The session's caches, mirrored: time-travel snapshots, solver
	// outcomes, one compiled program per query fingerprint, and one
	// materialized result per (version, fingerprint).
	snaps   *storage.SnapshotCache
	memo    *compile.Memo
	progs   map[string]*exec.Program
	results map[resultKey]*storage.Relation

	baseRows int64 // base-relation rows fed to Program.RunCtx, for exec.rows_per_s
}

type resultKey struct {
	ver int
	fp  string
}

func newStager(tr *tracer, engine *core.Engine, vdb *storage.VersionedDatabase) *stager {
	return &stager{
		tr:      tr,
		engine:  engine,
		vdb:     vdb,
		snaps:   storage.NewSnapshotCache(vdb),
		memo:    compile.NewMemo(),
		progs:   map[string]*exec.Program{},
		results: map[resultKey]*storage.Relation{},
	}
}

// frame is the state a what-if is evaluated in: the aligned suffix, the
// snapshot before its first modified statement, and that snapshot's
// version.
type frame struct {
	suffix *history.PaddedPair
	db     *storage.Database
	ver    int
	tip    int
}

// frame aligns mods with the history and time-travels to the first
// modified statement (core.Engine.whatIfTip + snapshotFor).
func (s *stager) frame(ctx context.Context, op, parent int, mods []history.Modification) (*frame, error) {
	sp := s.tr.start("history.align", op, parent)
	h, err := s.engine.History()
	if err != nil {
		return nil, err
	}
	pair, err := history.ApplyModifications(h, mods)
	if err != nil {
		return nil, err
	}
	first := pair.FirstModified()
	suffix := pair.SuffixFrom(first)
	s.tr.end(sp)

	ver := min(first, s.vdb.NumVersions())
	sp = s.tr.start("storage.snapshot", op, parent)
	db, err := s.snaps.SnapshotCtx(ctx, ver)
	s.tr.end(sp)
	if err != nil {
		return nil, err
	}
	return &frame{suffix: suffix, db: db, ver: ver, tip: len(h)}, nil
}

// targets lists the relations whose delta can be non-empty, sorted.
func targets(suffix *history.PaddedPair) []string {
	rels := suffix.Orig.Relations()
	for r := range suffix.Mod.Relations() {
		rels[r] = true
	}
	tainted := dataslice.TaintedRelations(suffix)
	var out []string
	for rel := range rels {
		if tainted[rel] {
			out = append(out, rel)
		}
	}
	sort.Strings(out)
	return out
}

// filters computes the data-slicing conditions (§6).
func (s *stager) filters(op, parent int, f *frame) (*dataslice.Conditions, error) {
	sp := s.tr.start("dataslice.compute", op, parent)
	defer s.tr.end(sp)
	return dataslice.Compute(f.suffix, f.db, dataslice.Options{})
}

// stripInsertPair mirrors core.stripInsertPair: the §10 split slices
// only the insert-free part of a relation's history.
func stripInsertPair(pair *history.PaddedPair) *history.PaddedPair {
	modified := map[int]bool{}
	for _, p := range pair.ModifiedPos {
		modified[p] = true
	}
	isInsert := func(st history.Statement) bool {
		switch st.(type) {
		case *history.InsertValues, *history.InsertQuery:
			return true
		}
		return false
	}
	out := &history.PaddedPair{}
	for i := range pair.Orig {
		if isInsert(pair.Orig[i]) || isInsert(pair.Mod[i]) {
			continue
		}
		out.Orig = append(out.Orig, pair.Orig[i])
		out.Mod = append(out.Mod, pair.Mod[i])
		if modified[i] {
			out.ModifiedPos = append(out.ModifiedPos, len(out.Orig)-1)
		}
	}
	return out
}

// slice program-slices one relation's insert-free history (§7–§9) and
// returns the pair with the positions to keep. paramKinds is non-nil
// only for templates, whose $slots are free solver variables.
func (s *stager) slice(ctx context.Context, op, parent int, f *frame, rel string, paramKinds map[string]types.Kind) (*history.PaddedPair, []int, error) {
	relPair, _ := f.suffix.RestrictToRelation(rel)
	noIns := stripInsertPair(relPair)
	if len(noIns.ModifiedPos) == 0 {
		return noIns, nil, nil // only inserts were modified: the base branches cancel
	}
	relation, err := f.db.Relation(rel)
	if err != nil {
		return nil, nil, err
	}
	sp := s.tr.start("symbolic.compress", op, parent)
	phiD, err := symbolic.Compress(relation, symbolic.CompressOptions{})
	s.tr.end(sp)
	if err != nil {
		return nil, nil, err
	}
	sp = s.tr.start("progslice.slice", op, parent)
	res, err := progslice.DependencyCtx(ctx, &progslice.Input{
		Pair:    noIns,
		Schema:  relation.Schema,
		PhiD:    phiD,
		Compile: compile.Options{Memo: s.memo, ParamKinds: paramKinds},
	})
	s.tr.end(sp)
	if err != nil {
		return nil, nil, err
	}
	return noIns, res.Keep, nil
}

// queries builds both sides' reenactment queries for rel over the kept
// positions, unioned with the insert branches of the §10 split.
func (s *stager) queries(op, parent int, f *frame, rel string, noIns *history.PaddedPair, keep []int, filters *dataslice.Conditions) (qo, qm algebra.Query, err error) {
	sp := s.tr.start("reenact.build", op, parent)
	defer s.tr.end(sp)
	side := func(base, full history.History, fl reenact.Filters) (algebra.Query, error) {
		q, err := reenact.QueryForRelation(base.Restrict(keep), rel, f.db, fl)
		if err != nil {
			return nil, err
		}
		br, err := reenact.InsertBranches(full, rel, f.db)
		if err != nil {
			return nil, err
		}
		if br != nil {
			q = &algebra.Union{L: q, R: br}
		}
		return q, nil
	}
	if qo, err = side(noIns.Orig, f.suffix.Orig, filters.H); err != nil {
		return nil, nil, err
	}
	qm, err = side(noIns.Mod, f.suffix.Mod, filters.M)
	return qo, qm, err
}

// eval answers q over db through the mirrored program and result
// caches (core.evalCache.eval).
func (s *stager) eval(ctx context.Context, op, parent int, q algebra.Query, db *storage.Database, ver int) (*storage.Relation, error) {
	fp := algebra.Fingerprint(q)
	prog, ok := s.progs[fp]
	if !ok {
		sp := s.tr.start("exec.compile", op, parent)
		var err error
		prog, err = exec.CompileVec(q, db, exec.VecOptions{})
		s.tr.end(sp)
		if err != nil {
			return nil, fmt.Errorf("staged replay: query outside the vectorized subset: %w", err)
		}
		s.progs[fp] = prog
	}
	key := resultKey{ver: ver, fp: fp}
	if rel, ok := s.results[key]; ok {
		return rel, nil
	}
	rel, err := s.run(ctx, op, parent, prog, q, db)
	if err != nil {
		return nil, err
	}
	s.results[key] = rel
	return rel, nil
}

func (s *stager) delta(op, parent int, orig, mod *storage.Relation) *delta.Result {
	sp := s.tr.start("delta.compute", op, parent)
	defer s.tr.end(sp)
	return delta.Compute(orig, mod)
}

// whatIf is the staged Session.WhatIfCtx.
func (s *stager) whatIf(ctx context.Context, op, parent int, mods []history.Modification) (delta.Set, error) {
	f, err := s.frame(ctx, op, parent, mods)
	if err != nil {
		return nil, err
	}
	filters, err := s.filters(op, parent, f)
	if err != nil {
		return nil, err
	}
	out := delta.Set{}
	for _, rel := range targets(f.suffix) {
		noIns, keep, err := s.slice(ctx, op, parent, f, rel, nil)
		if err != nil {
			return nil, err
		}
		qo, qm, err := s.queries(op, parent, f, rel, noIns, keep, filters)
		if err != nil {
			return nil, err
		}
		ro, err := s.eval(ctx, op, parent, qo, f.db, f.ver)
		if err != nil {
			return nil, err
		}
		rm, err := s.eval(ctx, op, parent, qm, f.db, f.ver)
		if err != nil {
			return nil, err
		}
		out[rel] = s.delta(op, parent, ro, rm)
	}
	return out, nil
}

// stagedTemplate mirrors core's template artifact: per relation the
// materialized original side and the modified-side query with its
// $slots open, pinned to one history version.
type stagedTemplate struct {
	mods []history.Modification
	tip  int
	db   *storage.Database
	rels []stagedRel
}

type stagedRel struct {
	rel  string
	orig *storage.Relation
	modQ algebra.Query
}

// setOnlyParams mirrors core.setOnlyParams for the statement shapes the
// benchmark's templates use: data slicing survives template compilation
// only when no $slot sits in a condition.
func setOnlyParams(mods []history.Modification) bool {
	for _, m := range mods {
		if r, ok := m.(history.Replace); ok {
			if u, ok := r.Stmt.(*history.Update); ok && len(expr.Params(u.Where)) > 0 {
				return false
			}
		}
	}
	return true
}

// compileTemplate is the staged Session.CompileTemplate: everything a
// binding does not change — alignment, time travel, slicing with the
// $slots free, the original side — is done once.
func (s *stager) compileTemplate(ctx context.Context, op, parent int, mods []history.Modification) (*stagedTemplate, error) {
	f, err := s.frame(ctx, op, parent, mods)
	if err != nil {
		return nil, err
	}
	filters := &dataslice.Conditions{H: reenact.Filters{}, M: reenact.Filters{}}
	if setOnlyParams(mods) {
		if filters, err = s.filters(op, parent, f); err != nil {
			return nil, err
		}
		for _, side := range []reenact.Filters{filters.H, filters.M} {
			for rel, cond := range side {
				if len(expr.Params(cond)) > 0 {
					return nil, fmt.Errorf("staged replay: slicing filter on %s captured a $slot", rel)
				}
			}
		}
	}
	kinds := map[string]types.Kind{}
	for name := range history.ModParams(mods) {
		kinds[name] = types.KindFloat // the benchmark's slots are all numeric
	}
	st := &stagedTemplate{mods: mods, tip: f.tip, db: f.db}
	for _, rel := range targets(f.suffix) {
		noIns, keep, err := s.slice(ctx, op, parent, f, rel, kinds)
		if err != nil {
			return nil, err
		}
		qo, qm, err := s.queries(op, parent, f, rel, noIns, keep, filters)
		if err != nil {
			return nil, err
		}
		ro, err := s.evalUncached(ctx, op, parent, qo, f.db)
		if err != nil {
			return nil, err
		}
		st.rels = append(st.rels, stagedRel{rel: rel, orig: ro, modQ: qm})
	}
	return st, nil
}

// evalTemplate is the staged Template.EvalCtx: substitute, run the
// modified side, diff. A history that advanced since compilation forces
// a recompile first, as it does in core.
func (s *stager) evalTemplate(ctx context.Context, op, parent int, st *stagedTemplate, binding map[string]types.Value) (delta.Set, error) {
	if st.tip != s.vdb.NumVersions() {
		fresh, err := s.compileTemplate(ctx, op, parent, st.mods)
		if err != nil {
			return nil, err
		}
		*st = *fresh
	}
	out := delta.Set{}
	for _, r := range st.rels {
		q := algebra.SubstParams(r.modQ, binding)
		rm, err := s.evalUncached(ctx, op, parent, q, st.db)
		if err != nil {
			return nil, err
		}
		out[r.rel] = s.delta(op, parent, r.orig, rm)
	}
	return out, nil
}

// evalUncached compiles and runs q with no cache in between: core's
// template artifacts go straight to the executor.
func (s *stager) evalUncached(ctx context.Context, op, parent int, q algebra.Query, db *storage.Database) (*storage.Relation, error) {
	sp := s.tr.start("exec.compile", op, parent)
	prog, err := exec.CompileVec(q, db, exec.VecOptions{})
	s.tr.end(sp)
	if err != nil {
		return nil, fmt.Errorf("staged replay: query outside the vectorized subset: %w", err)
	}
	return s.run(ctx, op, parent, prog, q, db)
}

// run executes a compiled program, counting the base rows it is fed.
func (s *stager) run(ctx context.Context, op, parent int, prog *exec.Program, q algebra.Query, db *storage.Database) (*storage.Relation, error) {
	for name := range algebra.BaseRelations(q) {
		if base, err := db.Relation(name); err == nil {
			s.baseRows += int64(base.Len())
		}
	}
	sp := s.tr.start("exec.run", op, parent)
	defer s.tr.end(sp)
	return prog.RunCtx(ctx, db)
}

// sameDelta reports whether two delta sets hold the same annotated
// tuples; a relation absent from one side must be empty in the other.
func sameDelta(a, b delta.Set) bool {
	for rel, ra := range a {
		rb, ok := b[rel]
		if !ok {
			if !ra.Empty() {
				return false
			}
			continue
		}
		if !ra.Equal(rb) {
			return false
		}
	}
	for rel, rb := range b {
		if _, ok := a[rel]; !ok && !rb.Empty() {
			return false
		}
	}
	return true
}
