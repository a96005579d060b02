package service

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"github.com/mahif/mahif/internal/core"
	"github.com/mahif/mahif/internal/schema"
	"github.com/mahif/mahif/internal/sql"
	"github.com/mahif/mahif/internal/storage"
	"github.com/mahif/mahif/internal/types"
)

// newTestServer builds a server over the paper's running example: an
// orders relation and a two-statement fee history.
func newTestServer(t testing.TB, opts Options) *Server {
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
	vdb := storage.NewVersioned(db)
	for _, src := range []string{
		`UPDATE orders SET fee = 0 WHERE price >= 50`,
		`UPDATE orders SET fee = fee + 1 WHERE price < 40`,
	} {
		if err := vdb.Apply(sql.MustParseStatement(src)); err != nil {
			t.Fatal(err)
		}
	}
	return New(core.New(vdb), opts)
}

func postJSON(t *testing.T, h http.Handler, path string, body any) *httptest.ResponseRecorder {
	t.Helper()
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	req := httptest.NewRequest("POST", path, bytes.NewReader(raw))
	req.Header.Set("Content-Type", "application/json")
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	return w
}

func TestWhatIfEndpoint(t *testing.T) {
	srv := newTestServer(t, Options{})
	h := srv.Handler()
	w := postJSON(t, h, "/v1/whatif", WhatIfRequest{
		Modifications: []Modification{{Op: "replace", Pos: 1, Statement: `UPDATE orders SET fee = 0 WHERE price >= 60`}},
		Stats:         true,
	})
	if w.Code != http.StatusOK {
		t.Fatalf("status %d: %s", w.Code, w.Body)
	}
	var resp WhatIfResponse
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Delta["orders"] == nil || resp.Delta["orders"].Empty() {
		t.Fatalf("expected a non-empty orders delta, got %s", w.Body)
	}
	if resp.Stats == nil || resp.Stats.TotalStatements == 0 {
		t.Errorf("expected stats in response, got %s", w.Body)
	}

	// The same query again must be served from the session caches.
	w = postJSON(t, h, "/v1/whatif", WhatIfRequest{
		Modifications: []Modification{{Op: "replace", Pos: 1, Statement: `UPDATE orders SET fee = 0 WHERE price >= 60`}},
	})
	if w.Code != http.StatusOK {
		t.Fatalf("second call: status %d: %s", w.Code, w.Body)
	}
	stats := srv.SessionStats()
	if len(stats) != 1 || stats[0].Calls != 2 {
		t.Fatalf("session stats = %+v, want 2 calls on one session", stats)
	}
	if stats[0].SnapshotHits == 0 {
		t.Errorf("second identical request did not hit the snapshot cache: %+v", stats[0])
	}
	// Each what-if compiles its own two reenactment sides; with no
	// report attached, no program is reused.
	if stats[0].QueryMisses != 4 || stats[0].QueryHits != 0 {
		t.Errorf("programs compiled/reused = %d/%d, want 4/0: %+v", stats[0].QueryMisses, stats[0].QueryHits, stats[0])
	}
}

func TestWhatIfNaiveVariant(t *testing.T) {
	srv := newTestServer(t, Options{})
	w := postJSON(t, srv.Handler(), "/v1/whatif", WhatIfRequest{
		Modifications: []Modification{{Op: "delete", Pos: 2}},
		Variant:       "N",
		Stats:         true,
	})
	if w.Code != http.StatusOK {
		t.Fatalf("status %d: %s", w.Code, w.Body)
	}
	var resp WhatIfResponse
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.NaiveStats == nil {
		t.Errorf("variant N with stats should return naive_stats: %s", w.Body)
	}
}

func TestWhatIfBadRequests(t *testing.T) {
	srv := newTestServer(t, Options{})
	h := srv.Handler()
	cases := []struct {
		name string
		body any
	}{
		{"no modifications", WhatIfRequest{}},
		{"bad op", WhatIfRequest{Modifications: []Modification{{Op: "munge", Pos: 1}}}},
		{"bad sql", WhatIfRequest{Modifications: []Modification{{Op: "replace", Pos: 1, Statement: "SELECT nope"}}}},
		{"zero pos", WhatIfRequest{Modifications: []Modification{{Op: "delete", Pos: 0}}}},
		{"out of range", WhatIfRequest{Modifications: []Modification{{Op: "delete", Pos: 99}}}},
		{"unknown field", map[string]any{"modificatons": []any{}}},
		{"unknown variant", WhatIfRequest{Variant: "R+XX", Modifications: []Modification{{Op: "delete", Pos: 1}}}},
	}
	for _, c := range cases {
		if w := postJSON(t, h, "/v1/whatif", c.body); w.Code != http.StatusBadRequest {
			t.Errorf("%s: status %d (want 400): %s", c.name, w.Code, w.Body)
		}
	}
	// Wrong method.
	req := httptest.NewRequest("GET", "/v1/whatif", nil)
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	if w.Code != http.StatusMethodNotAllowed {
		t.Errorf("GET /v1/whatif: status %d (want 405)", w.Code)
	}
}

func TestBatchEndpoint(t *testing.T) {
	srv := newTestServer(t, Options{})
	var scs []Scenario
	for _, threshold := range []string{"55", "60", "65"} {
		scs = append(scs, Scenario{
			Label: "fee" + threshold,
			Modifications: []Modification{{
				Op: "replace", Pos: 1,
				Statement: `UPDATE orders SET fee = 0 WHERE price >= ` + threshold,
			}},
		})
	}
	w := postJSON(t, srv.Handler(), "/v1/batch", BatchRequest{Scenarios: scs, Stats: true})
	if w.Code != http.StatusOK {
		t.Fatalf("status %d: %s", w.Code, w.Body)
	}
	var resp BatchResponse
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Results) != 3 {
		t.Fatalf("got %d results, want 3: %s", len(resp.Results), w.Body)
	}
	for i, res := range resp.Results {
		if res.Error != "" {
			t.Errorf("scenario %d failed: %s", i, res.Error)
		}
		if res.Label != scs[i].Label {
			t.Errorf("scenario %d label %q, want %q", i, res.Label, scs[i].Label)
		}
		if res.Delta["orders"] == nil {
			t.Errorf("scenario %d missing orders delta", i)
		}
	}
	if resp.Stats == nil || resp.Stats.Scenarios != 3 {
		t.Errorf("batch stats missing or wrong: %+v", resp.Stats)
	}
}

func TestHistoryEndpoint(t *testing.T) {
	srv := newTestServer(t, Options{})
	req := httptest.NewRequest("GET", "/v1/history", nil)
	w := httptest.NewRecorder()
	srv.Handler().ServeHTTP(w, req)
	if w.Code != http.StatusOK {
		t.Fatalf("status %d: %s", w.Code, w.Body)
	}
	var resp HistoryResponse
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Version != 2 || len(resp.Statements) != 2 {
		t.Fatalf("history = %+v, want 2 statements", resp)
	}
	if !strings.Contains(strings.ToLower(resp.Statements[0]), "update orders") {
		t.Errorf("statement 1 = %q", resp.Statements[0])
	}
}

func TestHealthz(t *testing.T) {
	srv := newTestServer(t, Options{})
	req := httptest.NewRequest("GET", "/healthz", nil)
	w := httptest.NewRecorder()
	srv.Handler().ServeHTTP(w, req)
	if w.Code != http.StatusOK {
		t.Fatalf("healthz status %d", w.Code)
	}
}
