package service

import (
	"fmt"
	"net/http"
	"strings"

	"github.com/mahif/mahif/internal/core"
	"github.com/mahif/mahif/internal/persist"
)

// sessionMetric is one mahif_session_* series: its name suffix, HELP
// text, TYPE and the counter it samples.
type sessionMetric struct {
	name, help, typ string
	read            func(core.SessionStats) int64
}

var sessionMetrics = []sessionMetric{
	{"calls_total", "Evaluation entries through each session.", "counter",
		func(st core.SessionStats) int64 { return int64(st.Calls) }},
	{"invalidations_total", "Explicit cache resets per session.", "counter",
		func(st core.SessionStats) int64 { return int64(st.Invalidations) }},
	{"advances_total", "History advances survived with caches kept (optimistic cross-version reuse).", "counter",
		func(st core.SessionStats) int64 { return int64(st.Advances) }},
	{"snapshot_hits_total", "Time-travel snapshot cache hits per session.", "counter",
		func(st core.SessionStats) int64 { return int64(st.SnapshotHits) }},
	{"snapshot_misses_total", "Time-travel snapshot cache misses per session.", "counter",
		func(st core.SessionStats) int64 { return int64(st.SnapshotMisses) }},
	{"snapshot_evictions_total", "Completed snapshots dropped by the retention bound per session.", "counter",
		func(st core.SessionStats) int64 { return int64(st.SnapshotEvictions) }},
	{"snapshot_resident", "Completed snapshots currently held per session.", "gauge",
		func(st core.SessionStats) int64 { return int64(st.SnapshotResident) }},
	{"snapshot_tip_evictions_total", "Superseded tip-pinned snapshots eagerly dropped per session.", "counter",
		func(st core.SessionStats) int64 { return int64(st.SnapshotTipEvictions) }},
	{"snapshot_tip_resident", "Tip-pinned snapshots (private full copies) currently held per session.", "gauge",
		func(st core.SessionStats) int64 { return int64(st.SnapshotTipResident) }},
	{"compress_hits_total", "Program-slicing calls that reused the compressed database remembered on a snapshot, per session.", "counter",
		func(st core.SessionStats) int64 { return int64(st.CompressHits) }},
	{"compress_misses_total", "Relation scans computing a compressed database (once per snapshot and option set), per session.", "counter",
		func(st core.SessionStats) int64 { return int64(st.CompressMisses) }},
	{"columnar_hits_total", "Vectorized scans that aliased the columnar view remembered on a snapshot, per session.", "counter",
		func(st core.SessionStats) int64 { return int64(st.ColumnarHits) }},
	{"columnar_misses_total", "Builds of a snapshot relation's columnar view (once per snapshot), per session.", "counter",
		func(st core.SessionStats) int64 { return int64(st.ColumnarMisses) }},
	{"columnar_derived_total", "Columnar view builds that derived a replayed snapshot's view from the lanes of the snapshot its replay started from instead of transposing its rows, per session.", "counter",
		func(st core.SessionStats) int64 { return int64(st.ColumnarDerived) }},
	{"memo_hits_total", "Solver-outcome memo hits per session.", "counter",
		func(st core.SessionStats) int64 { return int64(st.MemoHits) }},
	{"memo_misses_total", "Solver-outcome memo misses per session.", "counter",
		func(st core.SessionStats) int64 { return int64(st.MemoMisses) }},
	{"memo_evictions_total", "Solver outcomes dropped by the memo LRU bound per session.", "counter",
		func(st core.SessionStats) int64 { return int64(st.MemoEvictions) }},
	{"query_hits_total", "Report γ programs reused from a snapshot, per session.", "counter",
		func(st core.SessionStats) int64 { return int64(st.QueryHits) }},
	{"query_misses_total", "Programs compiled, per session.", "counter",
		func(st core.SessionStats) int64 { return int64(st.QueryMisses) }},
	{"template_side_evals_total", "Template evals of a binding on one side of a range template's original bound (one slot bounding a WHERE range conjunct), answered from that side's band table when the template is provisioned and otherwise by the executed plan over the union of both sides' keep sets, per session.", "counter",
		func(st core.SessionStats) int64 { return st.TemplateSideEvals }},
	{"template_fallback_evals_total", "Template evals no side of a range template answered: every eval of a template outside the range class (free-slot plan) and range-template bindings off the order (NaN, magnitude 2^53 or more; union of both sides' plans), per session.", "counter",
		func(st core.SessionStats) int64 { return st.TemplateFallbackEvals }},
	{"template_provisioned_evals_total", "Template evals of a range template's side answered from the side's band table (provisioned: no program run), per session.", "counter",
		func(st core.SessionStats) int64 { return st.TemplateProvisionedEvals }},
	{"template_recompiles_total", "Template artifacts recompiled because the history advanced past the version they answered, per session.", "counter",
		func(st core.SessionStats) int64 { return st.TemplateRecompiles }},
	{"reports_merged_total", "Aggregate reports answered by merging the delta's Minus and Plus into the historical state remembered on the snapshot, per session.", "counter",
		func(st core.SessionStats) int64 { return int64(st.Reports.Merged) }},
	{"reports_provisioned_total", "Merged aggregate reports of template evals that merged γ states the template's artifact fixed once (a band table's prefix states, or an executed plan's original side folded once) instead of folding the eval's Minus and Plus, or whose delta is empty, per session.", "counter",
		func(st core.SessionStats) int64 { return int64(st.Reports.Provisioned) }},
	{"reports_patched_total", "Aggregate reports answered by patching the whole relation and re-aggregating it (a MIN/MAX the merge cannot decide, or a query shape it does not cover), per session.", "counter",
		func(st core.SessionStats) int64 { return int64(st.Reports.Patched) }},
	{"pairs_total", "Relations whose two reenactment sides ran as one pair scan that kept only the rows differing at their position, per session.", "counter",
		func(st core.SessionStats) int64 { return st.Pairs.Paired }},
	{"pair_fallbacks_shape_total", "Relations whose two compiled reenactment sides ran one after the other because a side is not one scan through a fused selection/projection chain (a reenacted INSERT), per session.", "counter",
		func(st core.SessionStats) int64 { return st.Pairs.Shape }},
	{"pair_fallbacks_misaligned_total", "Relations whose two compiled reenactment sides ran one after the other because a source batch kept different row counts on the two sides (a DELETE), per session.", "counter",
		func(st core.SessionStats) int64 { return st.Pairs.Misaligned }},
}

// series is one unlabelled series of /metrics: its name, HELP text,
// TYPE and the sample it reads off a scrape. A sample is an integer or,
// for a duration in seconds, a float64; %v renders them as %d and %g
// would.
type series struct {
	name, help, typ string
	read            func(*scrape) any
}

// scrape is what one /metrics request samples: the server, its
// session's counters, and the store's and the replication stream's when
// the server has them.
type scrape struct {
	s     *Server
	sess  core.SessionStats
	store persist.Stats
	rec   persist.RecoveryInfo
	repl  ReplicationStatus
}

// engineSeries precede the session table, serverSeries follow it.
var engineSeries = []series{
	{"mahif_history_version", "Number of statements in the transactional history.", "gauge",
		func(x *scrape) any { return x.s.engine.Version() }},
	{"mahif_interpreter_fallbacks_total", "Query evaluations that asked for a compiling executor but ran through the tree-walking interpreter (engine-wide).", "counter",
		func(x *scrape) any { return x.s.engine.InterpreterFallbacks() }},
}

var serverSeries = []series{
	{"mahif_delta_rows_compared_total", "Row positions at which a what-if's two reenactment results were compared lane-wise, over all sessions.", "counter",
		func(x *scrape) any { return x.sess.DeltaRowsCompared }},
	{"mahif_delta_rows_hashed_total", "Rows that did not cancel at their position and were matched by row hash, lane-wise (both sides), over all sessions; its ratio to rows compared is the share of reenactment output left to a multiset match.", "counter",
		func(x *scrape) any { return x.sess.DeltaRowsHashed }},
	{"mahif_delta_rows_boxed_total", "Rows gathered into tuples, the deltas' own rows (Minus and Plus), over all sessions; rows hashed minus rows boxed cancelled across positions.", "counter",
		func(x *scrape) any { return x.sess.DeltaRowsBoxed }},
	{"mahif_solver_lowered_nodes_total", "Expression nodes program slicing lowered into solver models, over all sessions; a dependency run lowers its shared Φ_D ∧ affected once and each test only its own conjuncts.", "counter",
		func(x *scrape) any { return x.sess.SolverLowered }},
	{"mahif_templates_registered", "Scenario template ids resident in the registry (POST /v1/template, least recently used evicted).", "gauge",
		func(x *scrape) any { return x.s.templates.Len() }},
	{"mahif_template_evals_total", "Bindings answered through template eval endpoints.", "counter",
		func(x *scrape) any { return x.s.templateEvals.Load() }},
	{"mahif_http_encode_errors_total", "Responses that could not be encoded and answered 500 instead.", "counter",
		func(x *scrape) any { return x.s.encodeErrors.Load() }},
}

// storeSeries are rendered when the server is backed by a durable store.
var storeSeries = []series{
	{"mahif_wal_appends_total", "Append calls committed to the WAL.", "counter",
		func(x *scrape) any { return x.store.Appends }},
	{"mahif_wal_statements_appended_total", "Statements committed to the WAL.", "counter",
		func(x *scrape) any { return x.store.StatementsAppended }},
	{"mahif_wal_append_errors_total", "Statements rejected by the append path.", "counter",
		func(x *scrape) any { return x.store.AppendErrors }},
	{"mahif_wal_bytes_written_total", "WAL record bytes written since start.", "counter",
		func(x *scrape) any { return x.store.WALBytesWritten }},
	{"mahif_wal_segments", "WAL segment files.", "gauge",
		func(x *scrape) any { return x.store.Segments }},
	{"mahif_wal_rotations_total", "WAL segment rotations since start.", "counter",
		func(x *scrape) any { return x.store.Rotations }},
	{"mahif_checkpoints_written_total", "Snapshot checkpoints written since start.", "counter",
		func(x *scrape) any { return x.store.CheckpointsWritten }},
	{"mahif_checkpoint_last_version", "History version of the newest checkpoint.", "gauge",
		func(x *scrape) any { return x.store.LastCheckpointVersion }},
	{"mahif_checkpoint_last_bytes", "Size of the newest checkpoint written this process.", "gauge",
		func(x *scrape) any { return x.store.LastCheckpointBytes }},
	{"mahif_recovery_duration_seconds", "Wall-clock cost of the last crash recovery.", "gauge",
		func(x *scrape) any { return x.rec.Duration.Seconds() }},
	{"mahif_recovery_replayed_statements", "Statements replayed on top of the recovery checkpoint.", "gauge",
		func(x *scrape) any { return x.rec.ReplayedStatements }},
	{"mahif_recovery_truncated_records", "Torn-tail records discarded by the last recovery.", "gauge",
		func(x *scrape) any { return x.rec.TruncatedRecords }},
	{"mahif_wal_streams_total", "WAL replication streams opened by followers.", "counter",
		func(x *scrape) any { return x.s.walStreams.Load() }},
	{"mahif_wal_stream_records_total", "WAL records shipped to followers.", "counter",
		func(x *scrape) any { return x.s.walStreamRecords.Load() }},
}

// replicationSeries are rendered on a follower.
var replicationSeries = []series{
	{"mahif_replication_connected", "1 while the WAL stream from the leader is live.", "gauge",
		func(x *scrape) any { return b2i(x.repl.Connected) }},
	{"mahif_replication_applied_version", "History version this follower has applied.", "gauge",
		func(x *scrape) any { return x.repl.AppliedVersion }},
	{"mahif_replication_leader_version", "Newest leader version this follower has observed.", "gauge",
		func(x *scrape) any { return x.repl.LeaderVersion }},
	{"mahif_replication_lag", "Statements the follower is behind the leader.", "gauge",
		func(x *scrape) any { return x.repl.Lag }},
	{"mahif_replication_records_applied_total", "Statements applied off the replication stream.", "counter",
		func(x *scrape) any { return x.repl.RecordsApplied }},
	{"mahif_replication_reconnects_total", "Stream re-establishments after the initial connect.", "counter",
		func(x *scrape) any { return x.repl.Reconnects }},
}

// handleMetrics renders a Prometheus text exposition (format 0.0.4) of
// the series tables above: the engine's and the session's counters,
// plus the durable store's WAL and checkpoint counters when the server
// is backed by one and the replication stream's on a follower.
// Hand-rolled on purpose: the counter set is small and a client
// dependency would be the only one in the module.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	x := &scrape{s: s, sess: s.sess.Stats()}
	var b strings.Builder
	help := func(name, help, typ string) {
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
	}
	write := func(table []series) {
		for _, sr := range table {
			help(sr.name, sr.help, sr.typ)
			fmt.Fprintf(&b, "%s %v\n", sr.name, sr.read(x))
		}
	}

	write(engineSeries)
	// All session HELP/TYPE lines precede all session samples: the
	// layout testdata/metrics.golden pins.
	for _, sm := range sessionMetrics {
		help("mahif_session_"+sm.name, sm.help, sm.typ)
	}
	for _, sm := range sessionMetrics {
		fmt.Fprintf(&b, "mahif_session_%s{session=\"0\"} %d\n", sm.name, sm.read(x.sess))
	}
	write(serverSeries)
	if s.opts.Store != nil {
		x.store, x.rec = s.opts.Store.Stats(), s.opts.Store.RecoveryInfo()
		write(storeSeries)
	}
	if s.opts.Replication != nil {
		x.repl = s.opts.Replication.ReplicationStatus()
		write(replicationSeries)
	}

	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_, _ = w.Write([]byte(b.String()))
}

func b2i(v bool) int {
	if v {
		return 1
	}
	return 0
}
