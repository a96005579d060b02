package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"github.com/mahif/mahif/internal/core"
	"github.com/mahif/mahif/internal/lru"
	"github.com/mahif/mahif/internal/persist"
)

// Options tunes a Server.
type Options struct {
	// Timeout is the per-request evaluation budget (default 30s). A
	// request's timeout_ms can tighten it but never extend it.
	Timeout time.Duration
	// MaxBodyBytes bounds request bodies (default 1 MiB).
	MaxBodyBytes int64
	// Store, when set, is the durability layer behind the engine. It
	// feeds the /metrics exposition and serves the replication
	// endpoints: GET /v1/wal (the record stream) and GET /v1/checkpoint
	// (bootstrap images) exist only on a store-backed server.
	Store *persist.Store
	// Role labels this process in /v1/status: "single" (default),
	// "leader", or "replica" (the router has its own handler in
	// internal/replica).
	Role string
	// ReadOnly rejects POST /v1/history with 403 — the replica stance:
	// writes go to the leader, the local history only advances through
	// the replication stream.
	ReadOnly bool
	// Replication, when set, reports the follower's stream position in
	// /v1/status and /metrics.
	Replication ReplicationReporter
}

func (o Options) withDefaults() Options {
	if o.Timeout <= 0 {
		o.Timeout = 30 * time.Second
	}
	if o.MaxBodyBytes <= 0 {
		o.MaxBodyBytes = 1 << 20
	}
	if o.Role == "" {
		o.Role = "single"
	}
	return o
}

// maxRegisteredTemplates bounds the template id registry; an id evicted
// from it answers 404 like one never issued, and its owner re-posts the
// template, which compiles it again.
const maxRegisteredTemplates = 1024

// Server answers what-if queries over HTTP through one long-lived
// session. Create with New, mount with Handler.
type Server struct {
	engine *core.Engine
	opts   Options
	// sess serves every request without exclusive checkout: a Session
	// is concurrency-safe, so any number of requests evaluate through
	// it simultaneously (that sharing is what makes the caches
	// effective). It keeps or invalidates its caches itself when the
	// history advances between requests.
	sess *core.Session

	// WAL stream traffic (leader side), for /metrics.
	walStreams       atomic.Int64
	walStreamRecords atomic.Int64

	// Compiled scenario templates registered via POST /v1/template,
	// addressed by id in /v1/template/{id}/eval. Ids are monotonic per
	// process, and each id owns the template its POST compiled: the
	// registry is the only thing that keeps a template alive. It keeps
	// the maxRegisteredTemplates most recently used ids: each entry pins
	// a compiled artifact, so it cannot be left to grow.
	templates     *lru.Cache[string, *core.Template]
	tseq          atomic.Int64
	templateEvals atomic.Int64

	// encodeErrors counts responses that could not be encoded and
	// answered 500 instead (see WriteJSON).
	encodeErrors atomic.Int64

	// streamStop ends live WAL streams on shutdown: they outlive any
	// drain window by design, so Shutdown would otherwise never finish.
	streamStop     chan struct{}
	streamStopOnce sync.Once
}

// StopStreams ends the open WAL streams (idempotent). Wire it to
// http.Server.RegisterOnShutdown so followers are cut loose while
// ordinary requests drain; they reconnect to the restarted leader.
func (s *Server) StopStreams() {
	s.streamStopOnce.Do(func() { close(s.streamStop) })
}

// New builds a server over an engine whose history is already loaded.
func New(engine *core.Engine, opts Options) *Server {
	opts = opts.withDefaults()
	s := &Server{
		engine:     engine,
		opts:       opts,
		sess:       engine.NewSession(),
		templates:  lru.New[string, *core.Template](maxRegisteredTemplates),
		streamStop: make(chan struct{}),
	}
	return s
}

// SessionStats reports the session's cache counters (for logging and
// tests) as a one-entry slice, the shape /metrics labels session="0".
func (s *Server) SessionStats() []core.SessionStats {
	return []core.SessionStats{s.sess.Stats()}
}

// Handler returns the v1 API:
//
//	POST /v1/whatif      one what-if query             → WhatIfResponse
//	POST /v1/batch       a scenario batch              → BatchResponse
//	POST /v1/template    compile a parameterized scenario → TemplateResponse
//	POST /v1/template/{id}/eval  answer binding(s)     → TemplateEvalResponse
//	GET  /v1/history     the history (paged: ?since=N&limit=M) → HistoryResponse
//	POST /v1/history     append statements (live)      → AppendResponse
//	GET  /v1/status      role + replication position   → StatusResponse
//	GET  /v1/wal         committed WAL record stream (store-backed only)
//	GET  /v1/checkpoint  checkpoint image (store-backed only)
//	GET  /metrics        Prometheus text exposition
//	GET  /healthz        liveness                      → 200 "ok"
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/whatif", s.handleWhatIf)
	mux.HandleFunc("POST /v1/batch", s.handleBatch)
	mux.HandleFunc("POST /v1/template", s.handleTemplateCreate)
	mux.HandleFunc("POST /v1/template/{id}/eval", s.handleTemplateEval)
	mux.HandleFunc("POST /v1/howto", s.handleHowto)
	mux.HandleFunc("GET /v1/history", s.handleHistory)
	mux.HandleFunc("POST /v1/history", s.handleAppend)
	mux.HandleFunc("GET /v1/status", s.handleStatus)
	mux.HandleFunc("GET /v1/wal", s.handleWALStream)
	mux.HandleFunc("GET /v1/checkpoint", s.handleCheckpoint)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	})
	return mux
}

// handleAppend commits new history statements. Sessions keep their
// caches (the history is append-only; see core.Session), so serving
// continues warm across the advance. On a durable engine the response
// is written only after the WAL fsync.
func (s *Server) handleAppend(w http.ResponseWriter, r *http.Request) {
	if s.opts.ReadOnly {
		WriteError(w, http.StatusForbidden, fmt.Errorf("read-only %s: appends go to the leader", s.opts.Role))
		return
	}
	var req AppendRequest
	if err := s.decodeBody(w, r, &req); err != nil {
		WriteError(w, http.StatusBadRequest, err)
		return
	}
	stmts, err := DecodeStatements(req.Statements)
	if err != nil {
		WriteError(w, http.StatusBadRequest, err)
		return
	}
	ctx, cancel := s.requestCtx(r, req.TimeoutMs)
	defer cancel()
	ver, err := s.engine.AppendCtx(ctx, stmts)
	if err != nil {
		// Statements before the failing one stay committed; the error
		// carries the detail, the version the survivors.
		s.writeJSON(w, statusFor(err), struct {
			ErrorResponse
			Version int `json:"version"`
		}{ErrorResponse{Error: err.Error()}, ver})
		return
	}
	s.writeJSON(w, http.StatusOK, AppendResponse{
		Version:  ver,
		Appended: len(stmts),
		Durable:  s.engine.Durable(),
	})
}

// requestCtx derives the evaluation context: the request context
// (cancelled when the client disconnects) bounded by the server
// timeout, optionally tightened by the request's own timeout_ms.
func (s *Server) requestCtx(r *http.Request, timeoutMs int) (context.Context, context.CancelFunc) {
	timeout := s.opts.Timeout
	if timeoutMs > 0 {
		if d := time.Duration(timeoutMs) * time.Millisecond; d < timeout {
			timeout = d
		}
	}
	return context.WithTimeout(r.Context(), timeout)
}

// decodeBody reads a bounded JSON body, rejecting unknown fields so
// client typos surface as 400s instead of silently ignored options.
func (s *Server) decodeBody(w http.ResponseWriter, r *http.Request, into any) error {
	r.Body = http.MaxBytesReader(w, r.Body, s.opts.MaxBodyBytes)
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(into); err != nil {
		return err
	}
	if dec.More() {
		return fmt.Errorf("trailing data after JSON body")
	}
	return nil
}

// statusFor maps evaluation errors to HTTP codes: deadline overruns
// are the server's fault (504), everything else surfaced by the
// engine at this point is a bad query (400).
func statusFor(err error) int {
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout
	case errors.Is(err, context.Canceled):
		// Client went away; the code is moot but 499-style 400 keeps
		// logs sane.
		return http.StatusBadRequest
	default:
		return http.StatusBadRequest
	}
}

func variantOptions(name string) (core.Options, bool) {
	switch core.Variant(name) {
	case "", core.VariantRFull:
		return core.OptionsFor(core.VariantRFull), true
	case core.VariantR, core.VariantRPS, core.VariantRDS:
		return core.OptionsFor(core.Variant(name)), true
	}
	return core.Options{}, false
}

func (s *Server) handleWhatIf(w http.ResponseWriter, r *http.Request) {
	var req WhatIfRequest
	if err := s.decodeBody(w, r, &req); err != nil {
		WriteError(w, http.StatusBadRequest, err)
		return
	}
	mods, err := DecodeModifications(req.Modifications)
	if err != nil {
		WriteError(w, http.StatusBadRequest, err)
		return
	}
	queries, err := DecodeAggregateQueries(req.Queries)
	if err != nil {
		WriteError(w, http.StatusBadRequest, err)
		return
	}
	ctx, cancel := s.requestCtx(r, req.TimeoutMs)
	defer cancel()
	if err := s.waitMinVersion(ctx, req.MinVersion); err != nil {
		WriteError(w, statusFor(err), err)
		return
	}
	if req.Variant == string(core.VariantNaive) {
		d, reps, stats, err := s.sess.NaiveAggregatesCtx(ctx, mods, queries)
		if err != nil {
			WriteError(w, statusFor(err), err)
			return
		}
		resp := WhatIfResponse{Delta: d, Aggregates: reps}
		if req.Stats {
			resp.NaiveStats = stats
		}
		s.writeJSON(w, http.StatusOK, resp)
		return
	}

	opts, ok := variantOptions(req.Variant)
	if !ok {
		WriteError(w, http.StatusBadRequest, fmt.Errorf("unknown variant %q (want N, R, R+PS, R+DS, R+PS+DS)", req.Variant))
		return
	}
	d, reps, stats, err := s.sess.WhatIfAggregatesCtx(ctx, mods, queries, opts)
	if err != nil {
		WriteError(w, statusFor(err), err)
		return
	}
	resp := WhatIfResponse{Delta: d, Aggregates: reps}
	if req.Stats {
		resp.Stats = stats
	}
	s.writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	var req BatchRequest
	if err := s.decodeBody(w, r, &req); err != nil {
		WriteError(w, http.StatusBadRequest, err)
		return
	}
	scenarios, err := DecodeScenarios(req.Scenarios)
	if err != nil {
		WriteError(w, http.StatusBadRequest, err)
		return
	}
	opts, ok := variantOptions(req.Variant)
	if !ok {
		WriteError(w, http.StatusBadRequest, fmt.Errorf("unknown variant %q (want R, R+PS, R+DS, R+PS+DS)", req.Variant))
		return
	}
	ctx, cancel := s.requestCtx(r, req.TimeoutMs)
	defer cancel()
	if err := s.waitMinVersion(ctx, req.MinVersion); err != nil {
		WriteError(w, statusFor(err), err)
		return
	}
	results, bstats, err := s.sess.WhatIfBatchCtx(ctx, scenarios, core.BatchOptions{
		Options: opts,
		Workers: req.Workers,
	})
	if err != nil && results == nil {
		WriteError(w, statusFor(err), err)
		return
	}
	// err != nil with results means the batch was cut short by the
	// deadline: per-scenario errors carry the detail, so the partial
	// results are still worth returning — with the timeout status.
	status := http.StatusOK
	if err != nil {
		status = statusFor(err)
	}
	resp := BatchResponse{Results: make([]BatchScenarioResult, len(results))}
	for i, res := range results {
		out := BatchScenarioResult{Scenario: res.Scenario + 1, Label: res.Label, Delta: res.Delta, Aggregates: res.Aggregates}
		if res.Err != nil {
			out.Error = res.Err.Error()
		}
		if req.Stats {
			out.Stats = res.Stats
		}
		resp.Results[i] = out
	}
	if req.Stats {
		resp.Stats = bstats
	}
	s.writeJSON(w, status, resp)
}

// waitMinVersion enforces a request's read-your-writes bound: block
// until the local history reaches minVersion or the deadline maps the
// wait to a 504. The no-bound case is free.
func (s *Server) waitMinVersion(ctx context.Context, minVersion int) error {
	if minVersion <= 0 {
		return nil
	}
	if err := s.engine.WaitVersionCtx(ctx, minVersion); err != nil {
		return fmt.Errorf("waiting for version %d (at %d): %w", minVersion, s.engine.Version(), err)
	}
	return nil
}

// handleHistory serves the history, whole (no query parameters — the
// original wire format, unchanged) or paged with ?since=N&limit=M,
// where since counts statements to skip and the response echoes it
// plus a "more" marker. The paged shape is what a replica's catch-up
// and any UI scrolling a long history want.
func (s *Server) handleHistory(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	since, err := queryInt(q.Get("since"), 0)
	if err != nil {
		WriteError(w, http.StatusBadRequest, fmt.Errorf("bad since: %w", err))
		return
	}
	limit, err := queryInt(q.Get("limit"), 0)
	if err != nil {
		WriteError(w, http.StatusBadRequest, fmt.Errorf("bad limit: %w", err))
		return
	}
	paged := q.Has("since") || q.Has("limit")
	h, total, err := s.engine.HistoryRange(since, limit)
	if err != nil {
		WriteError(w, http.StatusInternalServerError, err)
		return
	}
	resp := HistoryResponse{Version: total, Statements: make([]string, len(h))}
	for i, st := range h {
		resp.Statements[i] = st.String()
	}
	if paged {
		resp.Since = since
		resp.More = since+len(h) < total
	}
	s.writeJSON(w, http.StatusOK, resp)
}

// queryInt parses a non-negative integer query parameter.
func queryInt(raw string, def int) (int, error) {
	if raw == "" {
		return def, nil
	}
	n, err := strconv.Atoi(raw)
	if err != nil {
		return 0, err
	}
	if n < 0 {
		return 0, fmt.Errorf("%d is negative", n)
	}
	return n, nil
}
