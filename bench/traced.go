package main

import (
	"context"
	"fmt"
	"os"
	"runtime/debug"
	"time"

	"github.com/mahif/mahif/internal/core"
	"github.com/mahif/mahif/internal/delta"
	"github.com/mahif/mahif/internal/sql"
)

// replay is the state of a traced run: the system, the tracer, the
// staged pipeline, and the counts the real calls return.
type replay struct {
	s  *sut
	tr *tracer
	st *stager

	// Bench-side twins of what the server holds privately: compiled
	// templates for the session-level replay, staged templates for the
	// layer-level one.
	tpls   []*core.Template
	staged []*stagedTemplate

	ops                       int
	opTime                    time.Duration // Σ real op time
	engineTime, stagedTime    time.Duration // what-if ops: Σ real engine time, Σ staged children
	attributed                time.Duration // Σ time the layer metrics account for
	wire, aggregate           time.Duration
	tests, nodes, kept, total int
	deltaRows                 int
	artifacts                 int           // template artifacts seen (compiles + recompiles)
	artifactTime              time.Duration // Σ their compile times
	artifactVer               []int
	respBytes0                int64 // response bytes before the first replayed op
	failed                    int
}

// runTraced is the traced run. It builds the system twice: once to run
// the replayed ops plainly (the untraced reference of trace.overhead),
// once to run them with spans — each op the real way under one span,
// then again through the staged pipeline, whose delta must equal the
// real one. One caller only, so that every count repeats exactly.
func runTraced(ctx context.Context, sp spec, cfg config, dir, spansPath string) (*result, error) {
	n := tracedOps
	if cfg.smoke {
		n = 12
	}

	ref, err := setup(ctx, sp, cfg.seed, n, dir, nil)
	if err != nil {
		return nil, fmt.Errorf("set-up (reference): %w", err)
	}
	t0 := time.Now()
	for _, o := range ref.ops[sp.warmup:] {
		if _, err := ref.do(ctx, o, false); err != nil {
			ref.close()
			return nil, fmt.Errorf("reference op %s: %w", o, err)
		}
	}
	refTime := time.Since(t0)
	ref.close()
	// Hand the reference's memory back, so that the traced system pays for
	// its pages the way the reference did.
	ref = nil
	debug.FreeOSMemory()

	tr := newTracer()
	s, err := setup(ctx, sp, cfg.seed, n, dir, tr)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	defer s.close()
	if err := s.verify(ctx); err != nil {
		return nil, err
	}
	r := &replay{s: s, tr: tr, st: newStager(tr, s.engine, s.vdb)}
	if err := r.warm(ctx); err != nil {
		return nil, err
	}
	r.respBytes0 = s.respBytes.Load()
	for i, o := range s.ops[sp.warmup:] {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if err := r.op(ctx, i, o); err != nil {
			return nil, fmt.Errorf("traced op %d (%s): %w", i, o, err)
		}
	}
	tr.setCurrent(setupOp, 0)

	// metrics ends with the durability check, which can still fail the run.
	m, err := r.metrics(ctx, refTime)
	if err != nil {
		return nil, err
	}
	res := &result{Correct: r.failed == 0, Attempted: r.ops, Failed: r.failed, Metrics: m}
	return res, tr.write(spansPath)
}

// warm brings the staged pipeline's caches to where the warm-up ops
// left the session's: the same snapshots, solver outcomes and programs.
func (r *replay) warm(ctx context.Context) error {
	s := r.s
	if s.hasTemplates() {
		for _, mods := range s.tplMods {
			st, err := r.st.compileTemplate(ctx, setupOp, 0, mods)
			if err != nil {
				return err
			}
			r.staged = append(r.staged, st)
		}
		r.tpls = s.tpls
		if s.sp.durable {
			for _, mods := range s.tplMods {
				t, err := s.sess.CompileTemplate(mods, core.DefaultOptions())
				if err != nil {
					return err
				}
				r.tpls = append(r.tpls, t)
			}
		}
		r.artifactVer = make([]int, len(r.tpls))
		for i, t := range r.tpls {
			r.noteArtifact(i, t)
		}
	}
	for _, o := range s.ops[:s.sp.warmup] {
		if o.kind != opWhatIf {
			continue
		}
		mods := whatIfMods(s.w, o)
		if _, err := r.st.whatIf(ctx, setupOp, 0, mods); err != nil {
			return err
		}
		if s.sp.durable {
			if _, _, _, err := s.sess.WhatIfAggregatesCtx(ctx, mods, s.queries, core.DefaultOptions()); err != nil {
				return err
			}
		}
	}
	return nil
}

// noteArtifact records a template artifact the first time it is seen.
func (r *replay) noteArtifact(i int, t *core.Template) {
	st := t.Stats()
	if st.Version != r.artifactVer[i] {
		r.artifactVer[i] = st.Version
		r.artifacts++
		r.artifactTime += st.CompileTime
	}
}

// span times fn under a span.
func (r *replay) span(name string, op, parent int, fn func() error) (time.Duration, error) {
	id := r.tr.start(name, op, parent)
	err := fn()
	return r.tr.end(id), err
}

// staged runs fn under the op's staged root span and returns the time
// its children cover.
func (r *replay) stagedSpan(i int, fn func(root int) (delta.Set, error)) (delta.Set, time.Duration, error) {
	root := r.tr.start("staged", i, 0)
	d, err := fn(root)
	total := r.tr.end(root)
	return d, total - r.tr.selfTime(root), err
}

// op replays one op: the real call, then the same work one level down.
func (r *replay) op(ctx context.Context, i int, o op) error {
	ctx, cancel := context.WithTimeout(ctx, opTimeout)
	defer cancel()
	r.ops++
	var err error
	switch {
	case r.s.sp.durable:
		err = r.served(ctx, i, o)
	case o.kind == opWhatIf:
		err = r.whatIf(ctx, i, o)
	default:
		err = r.template(ctx, i, o)
	}
	return err
}

// mismatch counts an op answered differently at two levels: over the
// wire and by the session, or by the session and by the staged replay.
func (r *replay) mismatch(i int, o op, upper, lower delta.Set) {
	if !sameDelta(upper, lower) {
		r.failed++
		fmt.Fprintf(os.Stderr, "bench: op %d (%s): the level below answers %d tuples, the level above %d\n", i, o, lower.Size(), upper.Size())
	}
}

func (r *replay) addStats(st *core.Stats, d delta.Set) {
	r.tests += st.SolverTests
	r.nodes += st.SolverNodes
	r.kept += st.KeptStatements
	r.total += st.TotalStatements
	r.deltaRows += d.Size()
}

// whatIf replays a library what-if op.
func (r *replay) whatIf(ctx context.Context, i int, o op) error {
	mods := whatIfMods(r.s.w, o)
	var real delta.Set
	var stats *core.Stats
	opTime, err := r.span("op", i, 0, func() (err error) {
		real, stats, err = r.s.sess.WhatIfCtx(ctx, mods, core.DefaultOptions())
		return err
	})
	if err != nil {
		return err
	}
	staged, children, err := r.stagedSpan(i, func(root int) (delta.Set, error) { return r.st.whatIf(ctx, i, root, mods) })
	if err != nil {
		return err
	}
	r.mismatch(i, o, real, staged)
	r.addStats(stats, real)
	r.opTime += opTime
	r.engineTime += opTime
	r.stagedTime += children
	r.attributed += children
	return nil
}

// template replays a library template op: EvalAggregatesCtx is the real
// call.
func (r *replay) template(ctx context.Context, i int, o op) error {
	t := r.tpls[o.tpl]
	var real delta.Set
	opTime, err := r.span("op", i, 0, func() (err error) {
		real, _, err = t.EvalAggregatesCtx(ctx, o.binding(), r.s.queries)
		return err
	})
	if err != nil {
		return err
	}
	evalTime, children, err := r.belowTemplate(ctx, i, o, t, real)
	if err != nil {
		return err
	}
	r.opTime += opTime
	r.aggregate += opTime - evalTime
	r.attributed += children + opTime - evalTime
	return nil
}

// belowTemplate replays a template op one level down, twice: EvalCtx
// alone (the aggregate report's cost is the real call minus this), then
// the staged pipeline, whose delta must equal the real call's. It
// returns the time of the first and the time the second's spans cover.
func (r *replay) belowTemplate(ctx context.Context, i int, o op, t *core.Template, real delta.Set) (evalTime, children time.Duration, err error) {
	binding := o.binding()
	evalTime, err = r.span("core.template_eval", i, 0, func() error {
		_, err := t.EvalCtx(ctx, binding)
		return err
	})
	if err != nil {
		return 0, 0, err
	}
	staged, children, err := r.stagedSpan(i, func(root int) (delta.Set, error) {
		return r.st.evalTemplate(ctx, i, root, r.staged[o.tpl], binding)
	})
	if err != nil {
		return 0, 0, err
	}
	r.mismatch(i, o, real, staged)
	r.noteArtifact(o.tpl, t)
	r.deltaRows += real.Size()
	return evalTime, children, nil
}

// served replays a serve_mixed op: the HTTP round trip is the real
// call; the same op on a bench-side session tells the wire's share, and
// the staged pipeline the layers' shares of the rest.
func (r *replay) served(ctx context.Context, i int, o op) error {
	s := r.s
	// What the handler parses before it can evaluate.
	if _, err := r.span("sql.parse", i, 0, func() error {
		var err error
		switch o.kind {
		case opWhatIf:
			_, err = sql.ParseStatement(wireMods(whatIfMods(s.w, o))[0].Statement)
		case opAppend:
			_, err = sql.ParseStatement(appendStmt(s.w, o).String())
		}
		if err == nil && o.kind != opAppend {
			_, err = sql.ParseQuery(aggregateSQL)
		}
		return err
	}); err != nil {
		return err
	}

	path, body := s.request(o)
	var raw []byte
	root := r.tr.start("op", i, 0)
	r.tr.setCurrent(i, root)
	raw, err := s.postRaw(ctx, path, body)
	opTime := r.tr.end(root)
	if err != nil {
		return err
	}
	r.opTime += opTime
	got, err := decodeAnswer(o, raw)
	if err != nil {
		return err
	}

	switch o.kind {
	case opAppend:
		s.acked.Add(1)
		// The session-level form of an append is the store's Append, which
		// the traced store timed inside the handler.
		appendTime := opTime - r.tr.selfTime(root)
		r.wire += opTime - appendTime
		r.attributed += opTime

	case opWhatIf:
		mods := whatIfMods(s.w, o)
		var real delta.Set
		var stats *core.Stats
		sessTime, err := r.span("session", i, 0, func() (err error) {
			real, _, stats, err = s.sess.WhatIfAggregatesCtx(ctx, mods, s.queries, core.DefaultOptions())
			return err
		})
		if err != nil {
			return err
		}
		staged, children, err := r.stagedSpan(i, func(root int) (delta.Set, error) { return r.st.whatIf(ctx, i, root, mods) })
		if err != nil {
			return err
		}
		r.mismatch(i, o, got.delta, real)
		r.mismatch(i, o, real, staged)
		r.addStats(stats, real)
		r.wire += opTime - sessTime
		r.aggregate += sessTime - stats.Total
		r.engineTime += stats.Total
		r.stagedTime += children
		r.attributed += children + (sessTime - stats.Total) + (opTime - sessTime)

	case opTemplate:
		t := r.tpls[o.tpl]
		before := t.Stats().Recompiles
		var real delta.Set
		sessTime, err := r.span("session", i, 0, func() (err error) {
			real, _, err = t.EvalAggregatesCtx(ctx, o.binding(), s.queries)
			return err
		})
		if err != nil {
			return err
		}
		r.mismatch(i, o, got.delta, real)
		evalTime, children, err := r.belowTemplate(ctx, i, o, t, real)
		if err != nil {
			return err
		}
		// A stale artifact recompiled inside the session-level call, which
		// is neither evaluation nor aggregation.
		agg := sessTime - evalTime
		if st := t.Stats(); st.Recompiles != before {
			agg -= st.CompileTime
		}
		r.wire += opTime - sessTime
		r.aggregate += agg
		r.attributed += children + agg + (opTime - sessTime)
	}
	return nil
}

// metrics turns the spans and counts into the per-layer metrics. Every
// *_ms metric is total span time divided by the number of replayed
// ops, so the layers' values add up to the mean op time.
func (r *replay) metrics(ctx context.Context, refTime time.Duration) (map[string]metric, error) {
	s, n := r.s, float64(r.ops)
	tot := r.tr.totals()
	perOp := func(name string) metric { return metric{millis(tot[name]) / n, "ms"} }

	// The session whose caches the real ops went through.
	ss := s.sess.Stats()
	if s.sp.durable {
		ss = s.srv.SessionStats()[0]
	}
	var recompiles int64
	for _, t := range r.tpls {
		recompiles += t.Stats().Recompiles
	}

	m := map[string]metric{
		"sql.parse_ms":               perOp("sql.parse"),
		"history.align_ms":           perOp("history.align"),
		"history.load_stmts_per_s":   {float64(len(s.w.History)) / s.loadDur.Seconds(), "1/s"},
		"storage.snapshot_ms":        perOp("storage.snapshot"),
		"storage.snapshot_hit_ratio": {ratio(float64(ss.SnapshotHits), float64(ss.SnapshotHits+ss.SnapshotMisses)), "ratio"},
		"storage.snapshot_evictions": {float64(ss.SnapshotEvictions + ss.SnapshotTipEvictions), "count"},
		"symbolic.compress_ms":       perOp("symbolic.compress"),
		"progslice.slice_ms":         perOp("progslice.slice"),
		"progslice.kept_ratio":       {ratio(float64(r.kept), float64(r.total)), "ratio"},
		"progslice.solver_tests":     {float64(r.tests), "count"},
		"milp.solver_nodes":          {float64(r.nodes), "count"},
		"milp.nodes_per_ms":          {ratio(float64(r.nodes), millis(tot["progslice.slice"])), "1/ms"},
		"compile.memo_hit_ratio":     {ratio(float64(ss.MemoHits), float64(ss.MemoHits+ss.MemoMisses)), "ratio"},
		"dataslice.compute_ms":       perOp("dataslice.compute"),
		"reenact.build_ms":           perOp("reenact.build"),
		"exec.compile_ms":            perOp("exec.compile"),
		"exec.run_ms":                perOp("exec.run"),
		"exec.rows_per_s":            {ratio(float64(r.st.baseRows), tot["exec.run"].Seconds()), "1/s"},
		"exec.program_hit_ratio":     {ratio(float64(ss.QueryHits), float64(ss.QueryHits+ss.QueryMisses)), "ratio"},
		"delta.compute_ms":           perOp("delta.compute"),
		"delta.rows":                 {float64(r.deltaRows), "count"},
		"core.template_compile_ms":   {ratio(millis(r.artifactTime), float64(r.artifacts)), "ms"},
		"core.template_eval_ms":      perOp("core.template_eval"),
		"core.aggregate_ms":          {millis(r.aggregate) / n, "ms"},
		"core.template_recompiles":   {float64(recompiles), "count"},
		"core.whatif_self_ms":        {millis(r.engineTime-r.stagedTime) / n, "ms"},
		"service.wire_ms":            {millis(r.wire) / n, "ms"},
		"service.resp_bytes":         {0, "B"},
		"service.http_errors":        {float64(s.httpErrors.Load()), "count"},
		"persist.append_ms":          perOp("persist.append"),
		"persist.wal_bytes_per_stmt": {0, "B"},
		"persist.fsyncs_per_append":  {0, "ratio"},
		"persist.append_errors":      {0, "count"},
		"persist.recover_ms":         {0, "ms"},
		"persist.checkpoint_ms":      {0, "ms"},
		"trace.coverage":             {ratio(float64(r.attributed), float64(r.opTime)), "ratio"},
		"trace.overhead":             {ratio(float64(r.opTime), float64(refTime)) - 1, "ratio"},
	}
	if !s.sp.durable {
		return m, nil
	}

	t0 := time.Now()
	if _, err := s.store.Checkpoint(); err != nil {
		return nil, fmt.Errorf("checkpoint: %w", err)
	}
	m["persist.checkpoint_ms"] = metric{millis(time.Since(t0)), "ms"}
	ps := s.store.Stats()
	m["service.resp_bytes"] = metric{float64(s.respBytes.Load()-r.respBytes0) / n, "B"}
	m["persist.wal_bytes_per_stmt"] = metric{ratio(float64(ps.WALBytesWritten), float64(ps.StatementsAppended)), "B"}
	m["persist.fsyncs_per_append"] = metric{ratio(float64(ps.GroupCommits), float64(ps.Appends)), "ratio"}
	m["persist.append_errors"] = metric{float64(ps.AppendErrors), "count"}
	recovery, err := s.finish(ctx)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: durability check: %v\n", err)
		r.failed++
		return m, nil
	}
	m["persist.recover_ms"] = metric{millis(recovery), "ms"}
	return m, nil
}
