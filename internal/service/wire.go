// Package service is the HTTP boundary of the what-if engine: the
// handlers behind cmd/mahifd. It speaks the v1 JSON wire format (the
// delta/stats encodings pinned by golden tests in internal/delta and
// internal/core, plus the request envelopes defined here), answers
// queries through one long-lived session so consecutive
// requests over the same history reuse time-travel snapshots, solver
// memos, and compiled reenactment programs, and enforces a per-request
// timeout by threading the request context — with the deadline
// attached — through the engine's ctx-aware entry points, so an
// abandoned or over-budget request stops solving and scanning within
// milliseconds.
package service

import (
	"fmt"
	"strings"

	"github.com/mahif/mahif/internal/core"
	"github.com/mahif/mahif/internal/delta"
	"github.com/mahif/mahif/internal/history"
	"github.com/mahif/mahif/internal/sql"
)

// Modification is one hypothetical history edit on the wire. Positions
// are 1-based, matching the mahif CLI's modification scripts;
// "statement" carries the SQL for replace and insert and must be
// absent for delete.
type Modification struct {
	Op        string `json:"op"`
	Pos       int    `json:"pos"`
	Statement string `json:"statement,omitempty"`
}

// Decode converts the wire modification to an engine modification.
func (m Modification) Decode() (history.Modification, error) {
	if m.Pos < 1 {
		return nil, fmt.Errorf("bad position %d (positions are 1-based)", m.Pos)
	}
	op := strings.ToLower(m.Op)
	if op == "delete" {
		if m.Statement != "" {
			return nil, fmt.Errorf("delete takes no statement")
		}
		return history.DeleteStmt{Pos: m.Pos - 1}, nil
	}
	st, err := sql.ParseStatement(m.Statement)
	if err != nil {
		return nil, err
	}
	switch op {
	case "replace":
		return history.Replace{Pos: m.Pos - 1, Stmt: st}, nil
	case "insert":
		return history.InsertStmt{Pos: m.Pos - 1, Stmt: st}, nil
	}
	return nil, fmt.Errorf("unknown op %q (want replace, insert, delete)", m.Op)
}

// DecodeModifications converts a wire modification sequence.
func DecodeModifications(ms []Modification) ([]history.Modification, error) {
	if len(ms) == 0 {
		return nil, fmt.Errorf("no modifications")
	}
	out := make([]history.Modification, len(ms))
	for i, m := range ms {
		mod, err := m.Decode()
		if err != nil {
			return nil, fmt.Errorf("modification %d: %w", i+1, err)
		}
		out[i] = mod
	}
	return out, nil
}

// DecodeAggregateQueries parses attached aggregate queries: each must
// aggregate at the top level (GROUP BY or an aggregate select list) and
// carry no $param slots.
func DecodeAggregateQueries(qs []string) ([]core.AggregateQuery, error) {
	if len(qs) == 0 {
		return nil, nil
	}
	out := make([]core.AggregateQuery, len(qs))
	for i, src := range qs {
		q, err := sql.ParseQuery(src)
		if err != nil {
			return nil, fmt.Errorf("query %d: %w", i+1, err)
		}
		aq, err := core.NewAggregateQuery(src, q)
		if err != nil {
			return nil, fmt.Errorf("query %d: %w", i+1, err)
		}
		out[i] = aq
	}
	return out, nil
}

// Scenario is one labelled modification set of a batch request.
type Scenario struct {
	Label         string         `json:"label,omitempty"`
	Modifications []Modification `json:"modifications"`
	// Queries optionally attaches aggregate queries evaluated over the
	// historical and hypothetical states (see WhatIfRequest.Queries).
	Queries []string `json:"queries,omitempty"`
}

// DecodeScenarios converts wire scenarios to engine scenarios.
func DecodeScenarios(scs []Scenario) ([]core.Scenario, error) {
	if len(scs) == 0 {
		return nil, fmt.Errorf("no scenarios")
	}
	out := make([]core.Scenario, len(scs))
	for i, sc := range scs {
		mods, err := DecodeModifications(sc.Modifications)
		if err != nil {
			return nil, fmt.Errorf("scenario %d (%q): %w", i+1, sc.Label, err)
		}
		queries, err := DecodeAggregateQueries(sc.Queries)
		if err != nil {
			return nil, fmt.Errorf("scenario %d (%q): %w", i+1, sc.Label, err)
		}
		out[i] = core.Scenario{Label: sc.Label, Mods: mods, Queries: queries}
	}
	return out, nil
}

// WhatIfRequest is the body of POST /v1/whatif.
type WhatIfRequest struct {
	Modifications []Modification `json:"modifications"`
	// Variant selects the algorithm (N, R, R+PS, R+DS, R+PS+DS);
	// empty means R+PS+DS.
	Variant string `json:"variant,omitempty"`
	// TimeoutMs tightens (never extends) the server's per-request
	// timeout.
	TimeoutMs int `json:"timeout_ms,omitempty"`
	// Stats asks for the per-phase breakdown in the response.
	Stats bool `json:"stats,omitempty"`
	// MinVersion is the read-your-writes bound: the server blocks until
	// its history holds at least this many statements before answering
	// (504 past the deadline), so a client that appended at version v
	// and reads back with min_version=v never silently sees a stale
	// replica. 0 means no bound.
	MinVersion int `json:"min_version,omitempty"`
	// Queries attaches aggregate queries (SQL with GROUP BY or an
	// aggregate select list): each is evaluated over the historical
	// state and the hypothetical state, and the per-group comparisons
	// come back in WhatIfResponse.Aggregates.
	Queries []string `json:"queries,omitempty"`
}

// WhatIfResponse is the body of a successful POST /v1/whatif.
type WhatIfResponse struct {
	Delta delta.Set `json:"delta"`
	// Aggregates holds the attached aggregate-query reports, in query
	// order (absent when the request attached none).
	Aggregates []core.AggregateReport `json:"aggregates,omitempty"`
	// Stats is set for reenactment variants when requested.
	Stats *core.Stats `json:"stats,omitempty"`
	// NaiveStats is set for variant N when requested.
	NaiveStats *core.NaiveStats `json:"naive_stats,omitempty"`
}

// BatchRequest is the body of POST /v1/batch.
type BatchRequest struct {
	Scenarios []Scenario `json:"scenarios"`
	Variant   string     `json:"variant,omitempty"`
	Workers   int        `json:"workers,omitempty"`
	TimeoutMs int        `json:"timeout_ms,omitempty"`
	Stats     bool       `json:"stats,omitempty"`
	// MinVersion is the read-your-writes bound (see WhatIfRequest).
	MinVersion int `json:"min_version,omitempty"`
}

// BatchScenarioResult is one scenario's outcome on the wire. Exactly
// one of Delta and Error is meaningful.
type BatchScenarioResult struct {
	Scenario   int                    `json:"scenario"`
	Label      string                 `json:"label,omitempty"`
	Delta      delta.Set              `json:"delta,omitempty"`
	Aggregates []core.AggregateReport `json:"aggregates,omitempty"`
	Stats      *core.Stats            `json:"stats,omitempty"`
	Error      string                 `json:"error,omitempty"`
}

// BatchResponse is the body of a successful POST /v1/batch.
type BatchResponse struct {
	Results []BatchScenarioResult `json:"results"`
	Stats   *core.BatchStats      `json:"stats,omitempty"`
}

// AppendRequest is the body of POST /v1/history: new statements to
// commit to the end of the transactional history, as SQL text.
type AppendRequest struct {
	Statements []string `json:"statements"`
	// TimeoutMs tightens (never extends) the server's per-request
	// timeout.
	TimeoutMs int `json:"timeout_ms,omitempty"`
}

// DecodeStatements parses the SQL statements of an append request.
func DecodeStatements(stmts []string) ([]history.Statement, error) {
	if len(stmts) == 0 {
		return nil, fmt.Errorf("no statements")
	}
	out := make([]history.Statement, len(stmts))
	for i, text := range stmts {
		st, err := sql.ParseStatement(text)
		if err != nil {
			return nil, fmt.Errorf("statement %d: %w", i+1, err)
		}
		out[i] = st
	}
	return out, nil
}

// AppendResponse is the body of a successful POST /v1/history.
type AppendResponse struct {
	// Version is the history length after the append.
	Version int `json:"version"`
	// Appended is how many statements this request committed.
	Appended int `json:"appended"`
	// Durable reports whether the statements were committed to a
	// write-ahead log before this response (false for a memory-only
	// server).
	Durable bool `json:"durable"`
}

// HistoryResponse is the body of GET /v1/history. The unpaged form
// (no since/limit query parameters) returns the whole history and
// omits the paging fields, byte-identical to the pre-paging wire
// format.
type HistoryResponse struct {
	// Version is the number of applied statements in the whole history,
	// not just this page.
	Version int `json:"version"`
	// Statements renders the returned window in order; in the unpaged
	// form 1-based positions on the wire refer to this list directly,
	// in the paged form position = since + index + 1.
	Statements []string `json:"statements"`
	// Since echoes the paged request's offset (paged responses only).
	Since int `json:"since,omitempty"`
	// More reports that statements beyond this page exist (paged
	// responses only).
	More bool `json:"more,omitempty"`
}

// StatusResponse is the body of GET /v1/status: the identity and
// replication position of one server, cheap enough for health polls.
type StatusResponse struct {
	// Role is the process role: "single", "leader", "replica", or
	// "router".
	Role string `json:"role"`
	// Version is the server's applied history length — on a replica,
	// how far replication has caught up.
	Version int `json:"version"`
	// Durable reports whether appends commit to a WAL first.
	Durable bool `json:"durable"`
	// ReadOnly reports whether POST /v1/history is rejected here.
	ReadOnly bool `json:"read_only"`
	// Replication is present on replicas: the follower's stream state.
	Replication *ReplicationStatus `json:"replication,omitempty"`
}

// ReplicationStatus describes a follower's WAL stream position.
type ReplicationStatus struct {
	// LeaderURL is the leader this follower streams from.
	LeaderURL string `json:"leader_url"`
	// Connected reports a live stream; a disconnected follower is
	// retrying with backoff.
	Connected bool `json:"connected"`
	// AppliedVersion is the follower's history length; LeaderVersion is
	// the newest leader version the follower has observed; Lag is their
	// difference (≥ 0).
	AppliedVersion int `json:"applied_version"`
	LeaderVersion  int `json:"leader_version"`
	Lag            int `json:"lag"`
	// RecordsApplied counts statements applied off the stream since the
	// process started; Reconnects counts stream re-establishments after
	// the initial connect.
	RecordsApplied int64 `json:"records_applied_total"`
	Reconnects     int64 `json:"reconnects_total"`
	// LastError is the most recent stream failure, if any.
	LastError string `json:"last_error,omitempty"`
}

// ReplicationReporter feeds a follower's stream state into /v1/status
// and /metrics. internal/replica's follower implements it.
type ReplicationReporter interface {
	ReplicationStatus() ReplicationStatus
}

// ErrorResponse is the body of every non-2xx response, with one
// exception: a batch cut short by its deadline returns 504 with a
// BatchResponse carrying the partial results (per-scenario errors
// identify what was cancelled) — clients should decode /v1/batch
// bodies as BatchResponse whenever "results" is present.
type ErrorResponse struct {
	Error string `json:"error"`
}
