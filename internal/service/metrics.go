package service

import (
	"fmt"
	"net/http"
	"strings"

	"github.com/mahif/mahif/internal/core"
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
}

// handleMetrics renders a Prometheus text exposition (format 0.0.4) of
// the session's cache counters plus the durable store's WAL and
// checkpoint counters when the server is backed by one. Hand-rolled on
// purpose: the counter set is small and a client dependency would be
// the only one in the module.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	var b strings.Builder
	m := func(name, help, typ string) {
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
	}

	m("mahif_history_version", "Number of statements in the transactional history.", "gauge")
	fmt.Fprintf(&b, "mahif_history_version %d\n", s.engine.Version())

	m("mahif_interpreter_fallbacks_total", "Query evaluations that asked for a compiling executor but ran through the tree-walking interpreter (engine-wide).", "counter")
	fmt.Fprintf(&b, "mahif_interpreter_fallbacks_total %d\n", s.engine.InterpreterFallbacks())

	// All session HELP/TYPE lines precede all session samples: the
	// layout testdata/metrics.golden pins.
	st := s.sess.Stats()
	for _, sm := range sessionMetrics {
		m("mahif_session_"+sm.name, sm.help, sm.typ)
	}
	for _, sm := range sessionMetrics {
		fmt.Fprintf(&b, "mahif_session_%s{session=\"0\"} %d\n", sm.name, sm.read(st))
	}

	m("mahif_delta_rows_compared_total", "Row positions at which a what-if's two reenactment results were compared lane-wise, over all sessions.", "counter")
	fmt.Fprintf(&b, "mahif_delta_rows_compared_total %d\n", st.DeltaRowsCompared)
	m("mahif_delta_rows_hashed_total", "Rows that did not cancel at their position and were matched by row hash, lane-wise (both sides), over all sessions; its ratio to rows compared is the share of reenactment output left to a multiset match.", "counter")
	fmt.Fprintf(&b, "mahif_delta_rows_hashed_total %d\n", st.DeltaRowsHashed)
	m("mahif_delta_rows_boxed_total", "Rows gathered into tuples, the deltas' own rows (Minus and Plus), over all sessions; rows hashed minus rows boxed cancelled across positions.", "counter")
	fmt.Fprintf(&b, "mahif_delta_rows_boxed_total %d\n", st.DeltaRowsBoxed)
	m("mahif_solver_lowered_nodes_total", "Expression nodes program slicing lowered into solver models, over all sessions; a dependency run lowers its shared Φ_D ∧ affected once and each test only its own conjuncts.", "counter")
	fmt.Fprintf(&b, "mahif_solver_lowered_nodes_total %d\n", st.SolverLowered)

	m("mahif_templates_registered", "Scenario template ids resident in the registry (POST /v1/template, least recently used evicted).", "gauge")
	fmt.Fprintf(&b, "mahif_templates_registered %d\n", s.templates.Len())
	m("mahif_template_evals_total", "Bindings answered through template eval endpoints.", "counter")
	fmt.Fprintf(&b, "mahif_template_evals_total %d\n", s.templateEvals.Load())
	m("mahif_http_encode_errors_total", "Responses that could not be encoded and answered 500 instead.", "counter")
	fmt.Fprintf(&b, "mahif_http_encode_errors_total %d\n", s.encodeErrors.Load())

	if s.opts.Store != nil {
		st := s.opts.Store.Stats()
		ri := s.opts.Store.RecoveryInfo()
		m("mahif_wal_appends_total", "Append calls committed to the WAL.", "counter")
		fmt.Fprintf(&b, "mahif_wal_appends_total %d\n", st.Appends)
		m("mahif_wal_statements_appended_total", "Statements committed to the WAL.", "counter")
		fmt.Fprintf(&b, "mahif_wal_statements_appended_total %d\n", st.StatementsAppended)
		m("mahif_wal_append_errors_total", "Statements rejected by the append path.", "counter")
		fmt.Fprintf(&b, "mahif_wal_append_errors_total %d\n", st.AppendErrors)
		m("mahif_wal_bytes_written_total", "WAL record bytes written since start.", "counter")
		fmt.Fprintf(&b, "mahif_wal_bytes_written_total %d\n", st.WALBytesWritten)
		m("mahif_wal_segments", "WAL segment files.", "gauge")
		fmt.Fprintf(&b, "mahif_wal_segments %d\n", st.Segments)
		m("mahif_wal_rotations_total", "WAL segment rotations since start.", "counter")
		fmt.Fprintf(&b, "mahif_wal_rotations_total %d\n", st.Rotations)
		m("mahif_checkpoints_written_total", "Snapshot checkpoints written since start.", "counter")
		fmt.Fprintf(&b, "mahif_checkpoints_written_total %d\n", st.CheckpointsWritten)
		m("mahif_checkpoint_last_version", "History version of the newest checkpoint.", "gauge")
		fmt.Fprintf(&b, "mahif_checkpoint_last_version %d\n", st.LastCheckpointVersion)
		m("mahif_checkpoint_last_bytes", "Size of the newest checkpoint written this process.", "gauge")
		fmt.Fprintf(&b, "mahif_checkpoint_last_bytes %d\n", st.LastCheckpointBytes)
		m("mahif_recovery_duration_seconds", "Wall-clock cost of the last crash recovery.", "gauge")
		fmt.Fprintf(&b, "mahif_recovery_duration_seconds %g\n", ri.Duration.Seconds())
		m("mahif_recovery_replayed_statements", "Statements replayed on top of the recovery checkpoint.", "gauge")
		fmt.Fprintf(&b, "mahif_recovery_replayed_statements %d\n", ri.ReplayedStatements)
		m("mahif_recovery_truncated_records", "Torn-tail records discarded by the last recovery.", "gauge")
		fmt.Fprintf(&b, "mahif_recovery_truncated_records %d\n", ri.TruncatedRecords)
		m("mahif_wal_streams_total", "WAL replication streams opened by followers.", "counter")
		fmt.Fprintf(&b, "mahif_wal_streams_total %d\n", s.walStreams.Load())
		m("mahif_wal_stream_records_total", "WAL records shipped to followers.", "counter")
		fmt.Fprintf(&b, "mahif_wal_stream_records_total %d\n", s.walStreamRecords.Load())
	}

	if s.opts.Replication != nil {
		rs := s.opts.Replication.ReplicationStatus()
		m("mahif_replication_connected", "1 while the WAL stream from the leader is live.", "gauge")
		fmt.Fprintf(&b, "mahif_replication_connected %d\n", b2i(rs.Connected))
		m("mahif_replication_applied_version", "History version this follower has applied.", "gauge")
		fmt.Fprintf(&b, "mahif_replication_applied_version %d\n", rs.AppliedVersion)
		m("mahif_replication_leader_version", "Newest leader version this follower has observed.", "gauge")
		fmt.Fprintf(&b, "mahif_replication_leader_version %d\n", rs.LeaderVersion)
		m("mahif_replication_lag", "Statements the follower is behind the leader.", "gauge")
		fmt.Fprintf(&b, "mahif_replication_lag %d\n", rs.Lag)
		m("mahif_replication_records_applied_total", "Statements applied off the replication stream.", "counter")
		fmt.Fprintf(&b, "mahif_replication_records_applied_total %d\n", rs.RecordsApplied)
		m("mahif_replication_reconnects_total", "Stream re-establishments after the initial connect.", "counter")
		fmt.Fprintf(&b, "mahif_replication_reconnects_total %d\n", rs.Reconnects)
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
