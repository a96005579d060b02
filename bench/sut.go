package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"sync/atomic"
	"time"

	"github.com/mahif/mahif/internal/core"
	"github.com/mahif/mahif/internal/delta"
	"github.com/mahif/mahif/internal/history"
	"github.com/mahif/mahif/internal/persist"
	"github.com/mahif/mahif/internal/service"
	"github.com/mahif/mahif/internal/sql"
	"github.com/mahif/mahif/internal/storage"
	"github.com/mahif/mahif/internal/types"
	"github.com/mahif/mahif/internal/workload"
)

// opTimeout bounds one op. A timed-out op is a failed op whose latency
// is the timeout.
const opTimeout = 10 * time.Second

// sut is the system under test for one workload: everything set-up
// builds and the timed phase drives. The three library workloads call a
// core.Session directly; serve_mixed goes through an in-process
// service.Server on an httptest loopback listener, over a persist.Store
// with fsync on.
type sut struct {
	sp  spec
	w   *workload.Workload
	ops []op // the warm-up ops, then the timed ops

	vdb     *storage.VersionedDatabase
	engine  *core.Engine
	sess    *core.Session
	tplMods [][]history.Modification
	tpls    []*core.Template
	queries []core.AggregateQuery

	loadDur time.Duration // applying the history, for history.load_stmts_per_s
	warm    []answer      // what the first oracleOps warm-up ops returned

	// serve_mixed only.
	dir         string
	store       *persist.Store
	srv         *service.Server
	ts          *httptest.Server
	tplIDs      []string
	baseVersion int
	acked       atomic.Int64 // appends the server acknowledged
	respBytes   atomic.Int64
	httpErrors  atomic.Int64
}

// answer is what an op returned, in the form the oracle compares.
type answer struct {
	delta delta.Set
	aggs  []core.AggregateReport
	ver   int // append: the acknowledged history version
}

// setup builds the system from the seed: the Taxi table, the history
// applied statement by statement, the session or server, the compiled
// templates, then the warm-up ops, keeping the answers verify checks.
// tmp is the directory under which serve_mixed creates its store; tr is
// non-nil only in a traced run, where the store's appends are recorded.
func setup(ctx context.Context, sp spec, seed int64, timedOps int, tmp string, tr *tracer) (_ *sut, err error) {
	s := &sut{sp: sp}
	defer func() {
		if err != nil {
			s.close()
		}
	}()
	if s.w, err = sp.generate(seed); err != nil {
		return nil, err
	}
	s.ops = sp.genOps(s.w, seed, sp.warmup+timedOps)
	q, err := sql.ParseQuery(aggregateSQL)
	if err != nil {
		return nil, err
	}
	aq, err := core.NewAggregateQuery(aggregateSQL, q)
	if err != nil {
		return nil, err
	}
	s.queries = []core.AggregateQuery{aq}
	s.tplMods = templateMods(s.w)

	if sp.durable {
		err = s.setupServer(ctx, tmp, tr)
	} else {
		err = s.setupLibrary()
	}
	if err != nil {
		return nil, err
	}

	for i, o := range s.ops[:sp.warmup] {
		got, err := s.do(ctx, o, i < oracleOps)
		if err != nil {
			return nil, fmt.Errorf("warm-up op %d (%s): %w", i, o, err)
		}
		if i < oracleOps {
			s.warm = append(s.warm, got)
		}
	}
	return s, nil
}

func (s *sut) hasTemplates() bool {
	for _, k := range s.sp.mix {
		if k == opTemplate {
			return true
		}
	}
	return false
}

func (s *sut) setupLibrary() error {
	s.vdb = storage.NewVersioned(s.w.Dataset.Database())
	t0 := time.Now()
	for _, st := range s.w.History {
		if err := s.vdb.Apply(st); err != nil {
			return err
		}
	}
	s.loadDur = time.Since(t0)
	s.engine = core.New(s.vdb)
	s.sess = s.engine.NewSession()
	if s.hasTemplates() {
		for _, mods := range s.tplMods {
			t, err := s.sess.CompileTemplate(mods, core.DefaultOptions())
			if err != nil {
				return err
			}
			s.tpls = append(s.tpls, t)
		}
	}
	return nil
}

// tracedStore records a span around every Store.Append. It exists so
// that a traced run can time the WAL without tracing code inside
// internal/persist.
type tracedStore struct {
	*persist.Store
	tr *tracer
}

func (t tracedStore) Append(ctx context.Context, stmts []history.Statement) (int, error) {
	op, root := t.tr.current()
	sp := t.tr.start("persist.append", op, root)
	defer t.tr.end(sp)
	return t.Store.Append(ctx, stmts)
}

func (s *sut) setupServer(ctx context.Context, tmp string, tr *tracer) (err error) {
	if s.dir, err = os.MkdirTemp(tmp, "store-"); err != nil {
		return err
	}
	// Flush policy: persist.Options zero value, i.e. fsync on — every
	// acknowledged append is on stable storage.
	if s.store, err = persist.Create(s.dir, s.w.Dataset.Database(), persist.Options{}); err != nil {
		return err
	}
	var durable core.DurableStore = s.store
	if tr != nil {
		durable = tracedStore{s.store, tr}
	}
	s.vdb = s.store.Database()
	s.engine = core.NewDurable(durable)
	t0 := time.Now()
	if _, err := s.engine.AppendCtx(ctx, s.w.History); err != nil {
		return err
	}
	s.loadDur = time.Since(t0)
	s.baseVersion = s.engine.Version()

	s.srv = service.New(s.engine, service.Options{Store: s.store, Timeout: opTimeout})
	s.ts = httptest.NewServer(s.srv.Handler())
	// The bench-side session answers the session-level replay of a traced
	// run; the server's own sessions are not reachable from outside.
	s.sess = s.engine.NewSession()
	for _, mods := range s.tplMods {
		var resp service.TemplateResponse
		if err := s.post(ctx, "/v1/template", service.TemplateRequest{Modifications: wireMods(mods)}, &resp); err != nil {
			return err
		}
		s.tplIDs = append(s.tplIDs, resp.ID)
	}
	return nil
}

// close releases everything set-up created; it is safe on a partly
// built sut and may be called more than once.
func (s *sut) close() {
	if s.ts != nil {
		s.ts.CloseClientConnections()
		s.ts.Close()
		s.ts = nil
	}
	if s.store != nil {
		_ = s.store.Close() // the run is over or failed; nothing depends on this sync
		s.store = nil
	}
	if s.dir != "" {
		_ = os.RemoveAll(s.dir)
		s.dir = ""
	}
}

// do runs one op the way a user would: a session call on the library
// workloads, an HTTP round trip on serve_mixed. The timed phase only
// drains an HTTP response; with decode set (oracle-checked warm-up ops)
// the body is parsed into the answer.
func (s *sut) do(ctx context.Context, o op, decode bool) (answer, error) {
	ctx, cancel := context.WithTimeout(ctx, opTimeout)
	defer cancel()
	if s.sp.durable {
		return s.doHTTP(ctx, o, decode)
	}
	switch o.kind {
	case opWhatIf:
		d, _, err := s.sess.WhatIfCtx(ctx, whatIfMods(s.w, o), core.DefaultOptions())
		return answer{delta: d}, err
	case opTemplate:
		d, aggs, err := s.tpls[o.tpl].EvalAggregatesCtx(ctx, o.binding(), s.queries)
		return answer{delta: d, aggs: aggs}, err
	}
	return answer{}, fmt.Errorf("op kind %s outside workload %s", o.kind, s.sp.name)
}

// wireMods renders modifications as the service's wire form (positions
// are 1-based there).
func wireMods(mods []history.Modification) []service.Modification {
	out := make([]service.Modification, len(mods))
	for i, m := range mods {
		r := m.(history.Replace)
		out[i] = service.Modification{Op: "replace", Pos: r.Pos + 1, Statement: r.Stmt.String()}
	}
	return out
}

// request returns the path and body of an op's HTTP request.
func (s *sut) request(o op) (string, any) {
	switch o.kind {
	case opWhatIf:
		return "/v1/whatif", service.WhatIfRequest{Modifications: wireMods(whatIfMods(s.w, o)), Queries: []string{aggregateSQL}}
	case opTemplate:
		return "/v1/template/" + s.tplIDs[o.tpl] + "/eval", service.TemplateEvalRequest{Binding: o.binding(), Queries: []string{aggregateSQL}}
	default:
		return "/v1/history", service.AppendRequest{Statements: []string{appendStmt(s.w, o).String()}}
	}
}

// doHTTP posts an op and, if asked, decodes the reply.
func (s *sut) doHTTP(ctx context.Context, o op, decode bool) (answer, error) {
	path, body := s.request(o)
	raw, err := s.postRaw(ctx, path, body)
	if err != nil {
		return answer{}, err
	}
	if o.kind == opAppend {
		s.acked.Add(1)
	}
	if !decode {
		return answer{}, nil
	}
	return decodeAnswer(o, raw)
}

// decodeAnswer parses an op's response body.
func decodeAnswer(o op, raw []byte) (answer, error) {
	var a answer
	var err error
	switch o.kind {
	case opWhatIf:
		var resp service.WhatIfResponse
		err = json.Unmarshal(raw, &resp)
		a.delta, a.aggs = resp.Delta, resp.Aggregates
	case opTemplate:
		var resp service.TemplateEvalResponse
		err = json.Unmarshal(raw, &resp)
		a.delta, a.aggs = resp.Delta, resp.Aggregates
	case opAppend:
		var resp service.AppendResponse
		err = json.Unmarshal(raw, &resp)
		a.ver = resp.Version
		if err == nil && !resp.Durable {
			err = fmt.Errorf("append acknowledged without durability")
		}
	}
	return a, err
}

// postRaw sends one JSON request and returns the body of a 2xx reply.
func (s *sut) postRaw(ctx context.Context, path string, body any) ([]byte, error) {
	payload, err := json.Marshal(body)
	if err != nil {
		return nil, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, s.ts.URL+path, bytes.NewReader(payload))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := s.ts.Client().Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	s.respBytes.Add(int64(len(raw)))
	if err != nil {
		return nil, err
	}
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		s.httpErrors.Add(1)
		return nil, fmt.Errorf("POST %s: status %d: %.200s", path, resp.StatusCode, raw)
	}
	return raw, nil
}

func (s *sut) post(ctx context.Context, path string, body, into any) error {
	raw, err := s.postRaw(ctx, path, body)
	if err != nil {
		return err
	}
	return json.Unmarshal(raw, into)
}

// substituted closes a template's modifications under a binding: the
// input of the equivalent fresh what-if.
func substituted(mods []history.Modification, binding map[string]types.Value) []history.Modification {
	out := make([]history.Modification, len(mods))
	for i, m := range mods {
		out[i] = history.SubstModParams(m, binding)
	}
	return out
}

// verify checks the retained warm-up answers against the oracle. It
// runs once per process, on the system that is then measured, and
// outside the set-up clock: an Alg. 1 answer costs ten to twenty ops,
// and eight of them would bury the system's own set-up time. The
// history may have grown by a warm-up append since an answer was given;
// appended statements touch neither the rows nor the columns a what-if
// of this benchmark changes, so the oracle's answer is unaffected.
func (s *sut) verify(ctx context.Context) error {
	appends := 0
	for i, got := range s.warm {
		o := s.ops[i]
		if o.kind == opAppend {
			appends++
			if want := s.baseVersion + appends; got.ver != want {
				return fmt.Errorf("oracle, warm-up op %d (%s): acknowledged version %d, want %d", i, o, got.ver, want)
			}
			continue
		}
		if err := s.check(ctx, o, got); err != nil {
			return fmt.Errorf("oracle, warm-up op %d (%s): %w", i, o, err)
		}
	}
	return nil
}

// check compares an op's answer with an oracle that shares no cache and
// no slicing with the path under test: Alg. 1 (Engine.NaiveCtx: copy,
// re-execute, diff) for a what-if's delta, and a fresh unsliced
// reenactment (variant R) over the substituted modifications for a
// template's delta and for every aggregate report.
func (s *sut) check(ctx context.Context, o op, got answer) error {
	var mods []history.Modification
	switch o.kind {
	case opWhatIf:
		mods = whatIfMods(s.w, o)
		want, _, err := s.engine.NaiveCtx(ctx, mods)
		if err != nil {
			return err
		}
		if !sameDelta(got.delta, want) {
			return fmt.Errorf("delta differs from Alg. 1: got %d tuples, want %d", got.delta.Size(), want.Size())
		}
		if got.aggs == nil {
			return nil
		}
	case opTemplate:
		mods = substituted(s.tplMods[o.tpl], o.binding())
	}
	want, aggs, _, err := s.engine.WhatIfAggregatesCtx(ctx, mods, s.queries, core.OptionsFor(core.VariantR))
	if err != nil {
		return err
	}
	if !sameDelta(got.delta, want) {
		return fmt.Errorf("delta differs from a fresh what-if: got %d tuples, want %d", got.delta.Size(), want.Size())
	}
	return sameJSON(got.aggs, aggs)
}

// sameJSON compares two values by their wire encoding.
func sameJSON(got, want any) error {
	g, err := json.Marshal(got)
	if err != nil {
		return err
	}
	w, err := json.Marshal(want)
	if err != nil {
		return err
	}
	if !bytes.Equal(g, w) {
		return fmt.Errorf("aggregate reports differ: got %.300s, want %.300s", g, w)
	}
	return nil
}

// finish ends a serve_mixed run with the durability check: close the
// store, recover the directory, and require the recovered history to
// be exactly the loaded one plus every acknowledged append, answering
// one fixed what-if identically. It returns how long recovery took.
func (s *sut) finish(ctx context.Context) (recover time.Duration, err error) {
	if !s.sp.durable {
		return 0, nil
	}
	fixed := whatIfMods(s.w, s.ops[0])
	before, _, err := s.engine.WhatIfCtx(ctx, fixed, core.DefaultOptions())
	if err != nil {
		return 0, err
	}
	want := s.baseVersion + int(s.acked.Load())
	s.ts.CloseClientConnections()
	s.ts.Close()
	s.ts = nil
	err = s.store.Close()
	s.store = nil
	if err != nil {
		return 0, err
	}

	t0 := time.Now()
	reopened, err := persist.Open(s.dir, persist.Options{})
	if err != nil {
		return 0, fmt.Errorf("recovery: %w", err)
	}
	recover = time.Since(t0)
	defer reopened.Close()
	if got := reopened.Version(); got != want {
		return 0, fmt.Errorf("recovered version %d, want %d (loaded %d + %d acknowledged appends)", got, want, s.baseVersion, s.acked.Load())
	}
	after, _, err := core.NewDurable(reopened).WhatIfCtx(ctx, fixed, core.DefaultOptions())
	if err != nil {
		return 0, err
	}
	if !sameDelta(before, after) {
		return 0, fmt.Errorf("recovered store answers the fixed what-if differently")
	}
	return recover, nil
}
