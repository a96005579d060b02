package service

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"

	"github.com/mahif/mahif/internal/core"
	"github.com/mahif/mahif/internal/persist"
	"github.com/mahif/mahif/internal/schema"
	"github.com/mahif/mahif/internal/storage"
	"github.com/mahif/mahif/internal/types"
)

func TestAppendEndpoint(t *testing.T) {
	srv := newTestServer(t, Options{})
	h := srv.Handler()

	// Warm a session so the advance has caches to keep.
	warm := postJSON(t, h, "/v1/whatif", WhatIfRequest{
		Modifications: []Modification{{Op: "replace", Pos: 1, Statement: `UPDATE orders SET fee = 0 WHERE price >= 60`}},
	})
	if warm.Code != http.StatusOK {
		t.Fatalf("warm status %d: %s", warm.Code, warm.Body)
	}

	w := postJSON(t, h, "/v1/history", AppendRequest{
		Statements: []string{`UPDATE orders SET fee = 2 WHERE price < 35`},
	})
	if w.Code != http.StatusOK {
		t.Fatalf("append status %d: %s", w.Code, w.Body)
	}
	var resp AppendResponse
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Version != 3 || resp.Appended != 1 || resp.Durable {
		t.Fatalf("append response %+v", resp)
	}

	// The appended statement is visible and modifiable.
	g := httptest.NewRecorder()
	h.ServeHTTP(g, httptest.NewRequest("GET", "/v1/history", nil))
	var hist HistoryResponse
	if err := json.Unmarshal(g.Body.Bytes(), &hist); err != nil {
		t.Fatal(err)
	}
	if hist.Version != 3 || len(hist.Statements) != 3 {
		t.Fatalf("history after append: %+v", hist)
	}
	q := postJSON(t, h, "/v1/whatif", WhatIfRequest{
		Modifications: []Modification{{Op: "delete", Pos: 3}},
	})
	if q.Code != http.StatusOK {
		t.Fatalf("what-if over appended tail: %d %s", q.Code, q.Body)
	}

	// The session survived the advance with caches intact.
	for _, st := range srv.SessionStats() {
		if st.Invalidations != 0 {
			t.Fatalf("append invalidated the session: %+v", st)
		}
	}

	// Bad requests.
	if w := postJSON(t, h, "/v1/history", AppendRequest{}); w.Code != http.StatusBadRequest {
		t.Fatalf("empty append: %d", w.Code)
	}
	if w := postJSON(t, h, "/v1/history", AppendRequest{Statements: []string{"UPDATE"}}); w.Code != http.StatusBadRequest {
		t.Fatalf("unparseable append: %d", w.Code)
	}
	if w := postJSON(t, h, "/v1/history", AppendRequest{Statements: []string{"UPDATE nosuch SET a = 1"}}); w.Code != http.StatusBadRequest {
		t.Fatalf("unappliable append: %d", w.Code)
	}
}

func TestMetricsEndpoint(t *testing.T) {
	srv := newTestServer(t, Options{})
	h := srv.Handler()
	postJSON(t, h, "/v1/whatif", WhatIfRequest{
		Modifications: []Modification{{Op: "replace", Pos: 1, Statement: `UPDATE orders SET fee = 0 WHERE price >= 60`}},
	})
	w := httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest("GET", "/metrics", nil))
	if w.Code != http.StatusOK {
		t.Fatalf("metrics status %d", w.Code)
	}
	if ct := w.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("metrics content type %q", ct)
	}
	body := w.Body.String()
	for _, want := range []string{
		"# TYPE mahif_session_calls_total counter",
		`mahif_session_calls_total{session="0"} 1`,
		"mahif_history_version 2",
		"mahif_session_snapshot_misses_total",
		// One what-if sliced one relation: Φ_D was scanned once, and
		// nothing fell back to the interpreter.
		`mahif_session_compress_misses_total{session="0"} 1`,
		`mahif_session_compress_hits_total{session="0"} 0`,
		// Φ_D was read from that relation's view, built once, and both
		// sides of the what-if scanned the relation through it.
		`mahif_session_columnar_misses_total{session="0"} 1`,
		`mahif_session_columnar_hits_total{session="0"} 2`,
		"mahif_interpreter_fallbacks_total 0",
		// The what-if moved five orders: its two sides were compared where
		// data slicing left them (the 30 orders at or above 50), and only
		// the five rows a side that differ became tuples.
		"# TYPE mahif_delta_rows_compared_total counter",
		"mahif_delta_rows_compared_total 30",
		"mahif_delta_rows_boxed_total 10",
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("metrics missing %q in:\n%s", want, body)
		}
	}
	// No store → no WAL series.
	if strings.Contains(body, "mahif_wal_") {
		t.Fatalf("in-memory server exposes WAL metrics:\n%s", body)
	}
}

// memBase builds the fixture's base state (the orders relation of
// newTestServer, before any history ran).
func memBase(t *testing.T) *storage.Database {
	t.Helper()
	s := schema.New("orders",
		schema.Col("id", types.KindInt),
		schema.Col("price", types.KindFloat),
		schema.Col("fee", types.KindFloat),
	)
	rel := storage.NewRelation(s)
	for i := 0; i < 40; i++ {
		rel.Add(schema.NewTuple(types.Int(int64(i)), types.Float(float64(30+i*2)), types.Float(5)))
	}
	db := storage.NewDatabase()
	db.AddRelation(rel)
	return db
}

// newDurableServer builds (or on a second call, recovers) a server
// over a store directory.
func newDurableServer(t *testing.T, dir string) (*Server, *persist.Store) {
	t.Helper()
	var store *persist.Store
	var err error
	if persist.Detect(dir) {
		store, err = persist.Open(dir, persist.Options{})
	} else {
		store, err = persist.Create(dir, memBase(t), persist.Options{})
	}
	if err != nil {
		t.Fatal(err)
	}
	return New(core.NewDurable(store), Options{Store: store}), store
}

func TestDurableAppendAndRestartGolden(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "data")
	srv, store := newDurableServer(t, dir)
	h := srv.Handler()

	// Build the history live, over HTTP.
	for _, stmt := range []string{
		`UPDATE orders SET fee = 0 WHERE price >= 50`,
		`UPDATE orders SET fee = fee + 1 WHERE price < 40`,
		`INSERT INTO orders VALUES (100, 99.5, 0.0)`,
	} {
		w := postJSON(t, h, "/v1/history", AppendRequest{Statements: []string{stmt}})
		if w.Code != http.StatusOK {
			t.Fatalf("append %q: %d %s", stmt, w.Code, w.Body)
		}
		var resp AppendResponse
		if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
			t.Fatal(err)
		}
		if !resp.Durable {
			t.Fatalf("durable server reported Durable=false")
		}
	}

	query := WhatIfRequest{
		Modifications: []Modification{{Op: "replace", Pos: 1, Statement: `UPDATE orders SET fee = 0 WHERE price >= 60`}},
	}
	before := postJSON(t, h, "/v1/whatif", query)
	if before.Code != http.StatusOK {
		t.Fatalf("whatif before restart: %d %s", before.Code, before.Body)
	}
	// Kill: close only the files (no graceful engine teardown exists to
	// skip; the WAL was fsynced per append).
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}

	srv2, store2 := newDurableServer(t, dir)
	defer store2.Close()
	after := postJSON(t, srv2.Handler(), "/v1/whatif", query)
	if after.Code != http.StatusOK {
		t.Fatalf("whatif after restart: %d %s", after.Code, after.Body)
	}
	if before.Body.String() != after.Body.String() {
		t.Fatalf("restart changed the answer:\nbefore: %s\nafter:  %s", before.Body, after.Body)
	}

	// WAL metrics present on a durable server.
	w := httptest.NewRecorder()
	srv2.Handler().ServeHTTP(w, httptest.NewRequest("GET", "/metrics", nil))
	if !strings.Contains(w.Body.String(), "mahif_wal_segments") {
		t.Fatalf("durable server missing WAL metrics:\n%s", w.Body)
	}
}
