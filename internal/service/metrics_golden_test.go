package service

import (
	"net/http"
	"net/http/httptest"
	"os"
	"testing"

	"github.com/mahif/mahif/internal/types"
)

// TestMetricsGolden pins the full /metrics exposition of a store-less
// server after a fixed sequential request sequence: every series name,
// HELP and TYPE line, label and value, byte for byte.
func TestMetricsGolden(t *testing.T) {
	srv := newTestServer(t, Options{})
	h := srv.Handler()
	fee60 := []Modification{{Op: "replace", Pos: 1, Statement: `UPDATE orders SET fee = 0 WHERE price >= 60`}}
	for _, step := range []struct {
		path string
		body any
	}{
		{"/v1/whatif", WhatIfRequest{Modifications: fee60}},
		{"/v1/whatif", WhatIfRequest{Modifications: fee60, Queries: []string{
			"SELECT SUM(fee) AS s FROM orders", "SELECT MIN(fee) AS lo FROM orders",
		}}},
		{"/v1/batch", BatchRequest{Scenarios: []Scenario{
			{Label: "fee55", Modifications: []Modification{{Op: "replace", Pos: 1, Statement: `UPDATE orders SET fee = 0 WHERE price >= 55`}}},
			{Label: "drop2", Modifications: []Modification{{Op: "delete", Pos: 2}}},
		}}},
		{"/v1/template", TemplateRequest{Modifications: []Modification{{Op: "replace", Pos: 1, Statement: `UPDATE orders SET fee = 0 WHERE price >= $cut`}}}},
		{"/v1/template/t1/eval", TemplateEvalRequest{Binding: map[string]types.Value{"cut": types.Float(60)}}},
		{"/v1/template/t1/eval", TemplateEvalRequest{Binding: map[string]types.Value{"cut": types.Float(70)}}},
		{"/v1/history", AppendRequest{Statements: []string{`UPDATE orders SET fee = 2 WHERE price < 35`}}},
		{"/v1/whatif", WhatIfRequest{Modifications: []Modification{{Op: "delete", Pos: 3}}}},
		{"/v1/whatif", WhatIfRequest{Modifications: fee60}},
	} {
		if w := postJSON(t, h, step.path, step.body); w.Code != http.StatusOK {
			t.Fatalf("POST %s: status %d: %s", step.path, w.Code, w.Body)
		}
	}
	w := httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest("GET", "/metrics", nil))
	if w.Code != http.StatusOK {
		t.Fatalf("metrics status %d", w.Code)
	}
	const golden = "testdata/metrics.golden"
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if got := w.Body.String(); got != string(want) {
		t.Errorf("/metrics differs from %s:\n%s", golden, got)
	}
}
