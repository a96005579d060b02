package replica

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync/atomic"
	"time"

	"github.com/mahif/mahif/internal/service"
)

// RouterOptions tunes a Router.
type RouterOptions struct {
	// LeaderURL receives every append and is the read fallback when no
	// replica qualifies.
	LeaderURL string
	// Backends are the read replicas' base URLs.
	Backends []string
	// HealthEvery is the health-poll cadence (default 250ms).
	HealthEvery time.Duration
	// HealthTimeout bounds one health probe (default 2s).
	HealthTimeout time.Duration
	// MaxBodyBytes bounds buffered request bodies (default 1 MiB —
	// bodies are buffered so a failed backend can be retried).
	MaxBodyBytes int64
	// Client performs the proxied requests; defaults to a client
	// without a global timeout (the inbound request context governs).
	Client *http.Client
	// Logf receives backend state transitions. Nil discards them.
	Logf func(format string, args ...any)
}

func (o RouterOptions) withDefaults() RouterOptions {
	if o.HealthEvery <= 0 {
		o.HealthEvery = 250 * time.Millisecond
	}
	if o.HealthTimeout <= 0 {
		o.HealthTimeout = 2 * time.Second
	}
	if o.MaxBodyBytes <= 0 {
		o.MaxBodyBytes = 1 << 20
	}
	if o.Client == nil {
		o.Client = &http.Client{}
	}
	o.LeaderURL = strings.TrimRight(o.LeaderURL, "/")
	for i := range o.Backends {
		o.Backends[i] = strings.TrimRight(o.Backends[i], "/")
	}
	return o
}

func (o RouterOptions) logf(format string, args ...any) {
	if o.Logf != nil {
		o.Logf(format, args...)
	}
}

// backend is one routing target with its health-poll state.
type backend struct {
	url      string
	isLeader bool
	healthy  atomic.Bool
	version  atomic.Int64
	inflight atomic.Int64
	requests atomic.Int64
	errors   atomic.Int64
}

// BackendStatus is one backend's row in the router's status response.
type BackendStatus struct {
	URL      string `json:"url"`
	Leader   bool   `json:"leader"`
	Healthy  bool   `json:"healthy"`
	Version  int    `json:"version"`
	Inflight int    `json:"inflight"`
	Requests int64  `json:"requests_total"`
	Errors   int64  `json:"errors_total"`
}

// RouterStatus is the body of the router's GET /v1/status.
type RouterStatus struct {
	Role string `json:"role"`
	// Version is the newest version any healthy backend reports.
	Version  int             `json:"version"`
	Backends []BackendStatus `json:"backends"`
}

// Router spreads reads over replicas and forwards writes to the
// leader. Routing is least-loaded-at-version: a read bounded by
// min_version goes to the healthy backend with the fewest requests in
// flight among those already at that version, so it is answered
// without blocking; with no qualifying replica it falls back to the
// leader, which by definition is current.
type Router struct {
	opts  RouterOptions
	reads []*backend // replicas first, leader last (fallback order)
	lead  *backend
}

// NewRouter builds a router over a leader and its read replicas.
func NewRouter(opts RouterOptions) (*Router, error) {
	opts = opts.withDefaults()
	if opts.LeaderURL == "" {
		return nil, fmt.Errorf("replica: router needs a leader URL")
	}
	r := &Router{opts: opts}
	for _, u := range opts.Backends {
		r.reads = append(r.reads, &backend{url: u})
	}
	r.lead = &backend{url: opts.LeaderURL, isLeader: true}
	r.reads = append(r.reads, r.lead)
	return r, nil
}

// Run polls backend health until ctx ends. It blocks; run it in a
// goroutine.
func (r *Router) Run(ctx context.Context) {
	tick := time.NewTicker(r.opts.HealthEvery)
	defer tick.Stop()
	for {
		r.pollAll(ctx)
		select {
		case <-ctx.Done():
			return
		case <-tick.C:
		}
	}
}

func (r *Router) pollAll(ctx context.Context) {
	for _, b := range r.reads {
		pctx, cancel := context.WithTimeout(ctx, r.opts.HealthTimeout)
		st, err := r.probe(pctx, b.url)
		cancel()
		was := b.healthy.Load()
		if err != nil {
			b.healthy.Store(false)
			if was {
				r.opts.logf("router: backend %s unhealthy: %v", b.url, err)
			}
			continue
		}
		b.version.Store(int64(st.Version))
		b.healthy.Store(true)
		if !was {
			r.opts.logf("router: backend %s healthy at version %d", b.url, st.Version)
		}
	}
}

func (r *Router) probe(ctx context.Context, url string) (service.StatusResponse, error) {
	var st service.StatusResponse
	req, err := http.NewRequestWithContext(ctx, "GET", url+"/v1/status", nil)
	if err != nil {
		return st, err
	}
	resp, err := r.opts.Client.Do(req)
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return st, fmt.Errorf("status %d", resp.StatusCode)
	}
	if err := json.NewDecoder(io.LimitReader(resp.Body, 1<<16)).Decode(&st); err != nil {
		return st, err
	}
	return st, nil
}

// Handler returns the router's API: reads routed by version and load,
// writes and history reads forwarded to the leader, plus the router's
// own status, metrics, and liveness.
func (r *Router) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/whatif", r.routeRead)
	mux.HandleFunc("POST /v1/batch", r.routeRead)
	mux.HandleFunc("GET /v1/history", r.toLeader)
	mux.HandleFunc("POST /v1/history", r.toLeader)
	mux.HandleFunc("GET /v1/status", r.handleStatus)
	mux.HandleFunc("GET /metrics", r.handleMetrics)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	})
	return mux
}

// readBody buffers the inbound body so it can be resent on retry.
func (r *Router) readBody(w http.ResponseWriter, req *http.Request) ([]byte, error) {
	defer req.Body.Close()
	return io.ReadAll(http.MaxBytesReader(w, req.Body, r.opts.MaxBodyBytes))
}

// routeRead proxies one read to the best backend, retrying the next
// candidate on transport errors (an HTTP error status is the answer,
// not a routing failure).
func (r *Router) routeRead(w http.ResponseWriter, req *http.Request) {
	body, err := r.readBody(w, req)
	if err != nil {
		service.WriteError(w, http.StatusBadRequest, err)
		return
	}
	// Peek the read's version bound; garbage bodies route anywhere and
	// get their 400 from the backend.
	var bound struct {
		MinVersion int `json:"min_version"`
	}
	_ = json.Unmarshal(body, &bound)

	tried := map[*backend]bool{}
	for attempt := 0; attempt < 3; attempt++ {
		b := r.pick(bound.MinVersion, tried)
		if b == nil {
			break
		}
		tried[b] = true
		if err := r.proxy(w, req, b, body); err == nil {
			return
		}
		// A canceled or timed-out inbound request surfaces as a proxy
		// transport error too, but it says nothing about the backend:
		// the client hung up, not the replica. Don't mark it unhealthy,
		// don't count a backend error, don't burn retries re-asking on
		// the same dead context.
		if cerr := req.Context().Err(); cerr != nil {
			return
		}
		// Transport failure: the health poll will confirm, but don't
		// wait for it to route around the dead backend.
		b.healthy.Store(false)
		b.errors.Add(1)
		r.opts.logf("router: %s %s via %s failed: retrying", req.Method, req.URL.Path, b.url)
	}
	service.WriteError(w, http.StatusServiceUnavailable, fmt.Errorf("no healthy backend at version ≥ %d", bound.MinVersion))
}

// toLeader proxies appends and history reads to the leader.
func (r *Router) toLeader(w http.ResponseWriter, req *http.Request) {
	body, err := r.readBody(w, req)
	if err != nil {
		service.WriteError(w, http.StatusBadRequest, err)
		return
	}
	if err := r.proxy(w, req, r.lead, body); err != nil {
		service.WriteError(w, http.StatusBadGateway, fmt.Errorf("leader unreachable: %v", err))
	}
}

// pick selects the least-loaded healthy backend at or past minVersion,
// preferring replicas (the leader sorts last at equal load only when
// no replica qualifies — it is the explicit fallback).
func (r *Router) pick(minVersion int, tried map[*backend]bool) *backend {
	var best *backend
	for _, b := range r.reads {
		if tried[b] || !b.healthy.Load() {
			continue
		}
		if minVersion > 0 && b.version.Load() < int64(minVersion) && !b.isLeader {
			// A lagging replica would block the read; the leader always
			// qualifies (its status version is at worst one poll stale).
			continue
		}
		if b.isLeader && best != nil {
			continue // a qualifying replica beats the leader
		}
		if best == nil || b.inflight.Load() < best.inflight.Load() {
			best = b
		}
	}
	return best
}

// proxy forwards the request to b and relays the response. A non-nil
// error means nothing was written to w (safe to retry elsewhere).
func (r *Router) proxy(w http.ResponseWriter, req *http.Request, b *backend, body []byte) error {
	b.inflight.Add(1)
	defer b.inflight.Add(-1)
	b.requests.Add(1)
	out, err := http.NewRequestWithContext(req.Context(), req.Method, b.url+req.URL.RequestURI(), bytes.NewReader(body))
	if err != nil {
		return err
	}
	if ct := req.Header.Get("Content-Type"); ct != "" {
		out.Header.Set("Content-Type", ct)
	}
	resp, err := r.opts.Client.Do(out)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	for _, h := range []string{"Content-Type", "X-Mahif-Served-By"} {
		if v := resp.Header.Get(h); v != "" {
			w.Header().Set(h, v)
		}
	}
	w.Header().Set("X-Mahif-Backend", b.url)
	w.WriteHeader(resp.StatusCode)
	if _, err := io.Copy(w, resp.Body); err != nil {
		// The status line and headers are already on the wire, so the
		// response cannot be retried against another backend; all we
		// can do is record the truncation instead of swallowing it.
		// Client disconnects land here too and are not the backend's
		// fault, so only its counter moves on a genuine mid-body break.
		if req.Context().Err() == nil {
			b.errors.Add(1)
		}
		r.opts.logf("router: %s %s via %s: response copy aborted after headers: %v",
			req.Method, req.URL.Path, b.url, err)
	}
	return nil
}

func (r *Router) handleStatus(w http.ResponseWriter, req *http.Request) {
	st := RouterStatus{Role: "router"}
	for _, b := range r.reads {
		bs := BackendStatus{
			URL:      b.url,
			Leader:   b.isLeader,
			Healthy:  b.healthy.Load(),
			Version:  int(b.version.Load()),
			Inflight: int(b.inflight.Load()),
			Requests: b.requests.Load(),
			Errors:   b.errors.Load(),
		}
		if bs.Healthy && bs.Version > st.Version {
			st.Version = bs.Version
		}
		st.Backends = append(st.Backends, bs)
	}
	_ = service.WriteJSON(w, http.StatusOK, st)
}

func (r *Router) handleMetrics(w http.ResponseWriter, req *http.Request) {
	var b strings.Builder
	m := func(name, help, typ string) {
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
	}
	m("mahif_router_backend_healthy", "1 while the backend passes health polls.", "gauge")
	m("mahif_router_backend_version", "History version the backend last reported.", "gauge")
	m("mahif_router_backend_inflight", "Requests currently proxied to the backend.", "gauge")
	m("mahif_router_backend_requests_total", "Requests proxied to the backend.", "counter")
	m("mahif_router_backend_errors_total", "Transport failures talking to the backend.", "counter")
	for _, bk := range r.reads {
		l := fmt.Sprintf("{backend=%q,leader=\"%t\"}", bk.url, bk.isLeader)
		fmt.Fprintf(&b, "mahif_router_backend_healthy%s %d\n", l, boolInt(bk.healthy.Load()))
		fmt.Fprintf(&b, "mahif_router_backend_version%s %d\n", l, bk.version.Load())
		fmt.Fprintf(&b, "mahif_router_backend_inflight%s %d\n", l, bk.inflight.Load())
		fmt.Fprintf(&b, "mahif_router_backend_requests_total%s %d\n", l, bk.requests.Load())
		fmt.Fprintf(&b, "mahif_router_backend_errors_total%s %d\n", l, bk.errors.Load())
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_, _ = w.Write([]byte(b.String()))
}

func boolInt(v bool) int {
	if v {
		return 1
	}
	return 0
}
