package service

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"github.com/mahif/mahif/internal/types"
)

// createTemplate posts the standard fee template and returns its id.
func createTemplate(t *testing.T, h http.Handler) TemplateResponse {
	t.Helper()
	w := postJSON(t, h, "/v1/template", TemplateRequest{
		Modifications: []Modification{{Op: "replace", Pos: 1, Statement: `UPDATE orders SET fee = 0 WHERE price >= $cut`}},
	})
	if w.Code != http.StatusOK {
		t.Fatalf("template create: status %d: %s", w.Code, w.Body)
	}
	var resp TemplateResponse
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	return resp
}

func TestTemplateEndpoint(t *testing.T) {
	srv := newTestServer(t, Options{})
	h := srv.Handler()
	created := createTemplate(t, h)
	if created.ID == "" || created.Params["cut"] != "numeric" {
		t.Fatalf("create response = %+v, want an id and cut:numeric", created)
	}
	if created.Version != 2 || created.TotalStatements == 0 {
		t.Fatalf("create response = %+v, want version 2 with statements", created)
	}

	// One binding: the delta must match a plain what-if with the
	// constant substituted.
	w := postJSON(t, h, "/v1/template/"+created.ID+"/eval", TemplateEvalRequest{
		Binding: map[string]types.Value{"cut": types.Float(60)},
	})
	if w.Code != http.StatusOK {
		t.Fatalf("eval: status %d: %s", w.Code, w.Body)
	}
	var evalResp TemplateEvalResponse
	if err := json.Unmarshal(w.Body.Bytes(), &evalResp); err != nil {
		t.Fatal(err)
	}
	if evalResp.Delta["orders"] == nil || evalResp.Delta["orders"].Empty() {
		t.Fatalf("expected a non-empty orders delta, got %s", w.Body)
	}
	ww := postJSON(t, h, "/v1/whatif", WhatIfRequest{
		Modifications: []Modification{{Op: "replace", Pos: 1, Statement: `UPDATE orders SET fee = 0 WHERE price >= 60.0`}},
	})
	var whatIf WhatIfResponse
	if err := json.Unmarshal(ww.Body.Bytes(), &whatIf); err != nil {
		t.Fatal(err)
	}
	if !evalResp.Delta["orders"].Equal(whatIf.Delta["orders"]) {
		t.Fatalf("template delta differs from plain what-if:\n%s\nvs\n%s", w.Body, ww.Body)
	}

	// A sweep keeps submission order and 1-based binding indexes.
	bindings := make([]map[string]types.Value, 5)
	for i := range bindings {
		bindings[i] = map[string]types.Value{"cut": types.Float(float64(52 + 4*i))}
	}
	w = postJSON(t, h, "/v1/template/"+created.ID+"/eval", TemplateEvalRequest{Bindings: bindings})
	if w.Code != http.StatusOK {
		t.Fatalf("sweep: status %d: %s", w.Code, w.Body)
	}
	evalResp = TemplateEvalResponse{}
	if err := json.Unmarshal(w.Body.Bytes(), &evalResp); err != nil {
		t.Fatal(err)
	}
	if len(evalResp.Results) != len(bindings) {
		t.Fatalf("sweep returned %d results, want %d", len(evalResp.Results), len(bindings))
	}
	for i, res := range evalResp.Results {
		if res.Binding != i+1 {
			t.Errorf("result %d carries binding %d, want %d", i, res.Binding, i+1)
		}
		if res.Error != "" {
			t.Errorf("binding %d failed: %s", i+1, res.Error)
		}
	}

	// The metrics expose the registry and eval traffic.
	req, _ := http.NewRequest("GET", "/metrics", nil)
	rec := postJSON(t, h, "/v1/template", TemplateRequest{
		Modifications: []Modification{{Op: "replace", Pos: 1, Statement: `UPDATE orders SET fee = 0 WHERE price >= $cut`}},
	})
	if rec.Code != http.StatusOK {
		t.Fatalf("second create: %d", rec.Code)
	}
	mrec := getPath(t, h, req)
	for _, want := range []string{
		"mahif_templates_registered 2",
		"mahif_template_evals_total 6",
	} {
		if !strings.Contains(mrec, want) {
			t.Errorf("metrics missing %q:\n%s", want, mrec)
		}
	}
	// price >= $cut is a range template: a band table answered every
	// eval.
	if prov := sumMetric(mrec, "mahif_session_template_provisioned_evals_total"); prov != 6 {
		t.Errorf("%d provisioned evals, want 6", prov)
	}
}

// TestTemplateResubmissionCompilesAgain: two POSTs of one template get
// two ids, each owning a template of its own that the POST compiled,
// and each id answers what a plain what-if answers.
func TestTemplateResubmissionCompilesAgain(t *testing.T) {
	srv := newTestServer(t, Options{})
	h := srv.Handler()
	metrics := func() string {
		req, _ := http.NewRequest("GET", "/metrics", nil)
		return getPath(t, h, req)
	}
	first := createTemplate(t, h)
	memoHits := sumMetric(metrics(), "mahif_session_memo_hits_total")
	second := createTemplate(t, h)
	if first.ID == second.ID {
		t.Fatalf("two submissions share id %s", first.ID)
	}
	t1, _ := srv.templates.Lookup(first.ID)
	t2, _ := srv.templates.Lookup(second.ID)
	if t1 == nil || t1 == t2 {
		t.Fatalf("ids %s and %s hold templates %p and %p, want two", first.ID, second.ID, t1, t2)
	}
	mrec := metrics()
	// The second compile planned again: every slicing test it asked
	// was one the first had left in the solver memo.
	if hits := sumMetric(mrec, "mahif_session_memo_hits_total"); hits <= memoHits {
		t.Errorf("memo hits %d after the second compile, %d before: it did not plan", hits, memoHits)
	}
	if !strings.Contains(mrec, "mahif_templates_registered 2\n") {
		t.Errorf("metrics: want mahif_templates_registered 2:\n%s", mrec)
	}

	ww := postJSON(t, h, "/v1/whatif", WhatIfRequest{
		Modifications: []Modification{{Op: "replace", Pos: 1, Statement: `UPDATE orders SET fee = 0 WHERE price >= 56.0`}},
	})
	var whatIf WhatIfResponse
	if err := json.Unmarshal(ww.Body.Bytes(), &whatIf); err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{first.ID, second.ID} {
		w := postJSON(t, h, "/v1/template/"+id+"/eval", TemplateEvalRequest{
			Binding: map[string]types.Value{"cut": types.Float(56)},
		})
		if w.Code != http.StatusOK {
			t.Fatalf("eval %s: status %d: %s", id, w.Code, w.Body)
		}
		var got TemplateEvalResponse
		if err := json.Unmarshal(w.Body.Bytes(), &got); err != nil {
			t.Fatal(err)
		}
		if got.Delta["orders"] == nil || got.Delta["orders"].Empty() || !got.Delta["orders"].Equal(whatIf.Delta["orders"]) {
			t.Errorf("%s: template delta differs from plain what-if:\n%s\nvs\n%s", id, w.Body, ww.Body)
		}
	}
}

// sumMetric adds up a per-session metric's samples.
func sumMetric(text, name string) int {
	sum := 0
	for _, line := range strings.Split(text, "\n") {
		if rest, ok := strings.CutPrefix(line, name+"{"); ok {
			var n int
			fmt.Sscan(rest[strings.Index(rest, " ")+1:], &n)
			sum += n
		}
	}
	return sum
}

// TestTemplateRegistryBounded pins the id registry's bound: ids past
// maxRegisteredTemplates evict the least recently used one, which then
// answers the same 404 as an id never issued, and the gauge reports the
// resident count rather than every id ever handed out.
func TestTemplateRegistryBounded(t *testing.T) {
	srv := newTestServer(t, Options{})
	h := srv.Handler()
	first := createTemplate(t, h)
	var newest TemplateResponse
	for i := 0; i < maxRegisteredTemplates; i++ {
		newest = createTemplate(t, h)
	}
	eval := TemplateEvalRequest{Binding: map[string]types.Value{"cut": types.Float(60)}}
	if w := postJSON(t, h, "/v1/template/"+first.ID+"/eval", eval); w.Code != http.StatusNotFound {
		t.Errorf("evicted id %s: status %d, want 404: %s", first.ID, w.Code, w.Body)
	}
	if w := postJSON(t, h, "/v1/template/"+newest.ID+"/eval", eval); w.Code != http.StatusOK {
		t.Errorf("newest id %s: status %d: %s", newest.ID, w.Code, w.Body)
	}
	req, _ := http.NewRequest("GET", "/metrics", nil)
	if want, got := fmt.Sprintf("mahif_templates_registered %d\n", maxRegisteredTemplates), getPath(t, h, req); !strings.Contains(got, want) {
		t.Errorf("metrics missing %q", want)
	}
}

func getPath(t *testing.T, h http.Handler, req *http.Request) string {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("%s: %d", req.URL.Path, rec.Code)
	}
	return rec.Body.String()
}

func TestTemplateEvalErrors(t *testing.T) {
	srv := newTestServer(t, Options{})
	h := srv.Handler()
	created := createTemplate(t, h)

	cases := []struct {
		name     string
		path     string
		req      TemplateEvalRequest
		wantCode int
		wantBody string
	}{
		{
			name:     "unknown id",
			path:     "/v1/template/t999/eval",
			req:      TemplateEvalRequest{Binding: map[string]types.Value{"cut": types.Float(60)}},
			wantCode: http.StatusNotFound,
			wantBody: "unknown template",
		},
		{
			name: "missing parameter",
			path: "/v1/template/" + created.ID + "/eval",
			// A misnamed binding: the required-parameter check fires
			// before the unknown-name check.
			req:      TemplateEvalRequest{Binding: map[string]types.Value{"cutt": types.Float(60)}},
			wantCode: http.StatusBadRequest,
			wantBody: "missing parameter $cut",
		},
		{
			name:     "extra parameter",
			path:     "/v1/template/" + created.ID + "/eval",
			req:      TemplateEvalRequest{Binding: map[string]types.Value{"cut": types.Float(60), "extra": types.Int(1)}},
			wantCode: http.StatusBadRequest,
			wantBody: "unknown parameter $extra",
		},
		{
			name:     "kind mismatch",
			path:     "/v1/template/" + created.ID + "/eval",
			req:      TemplateEvalRequest{Binding: map[string]types.Value{"cut": types.String("sixty")}},
			wantCode: http.StatusBadRequest,
			wantBody: "wants a numeric value",
		},
		{
			name:     "neither binding nor bindings",
			path:     "/v1/template/" + created.ID + "/eval",
			req:      TemplateEvalRequest{},
			wantCode: http.StatusBadRequest,
			wantBody: "exactly one of binding and bindings",
		},
	}
	for _, tc := range cases {
		w := postJSON(t, h, tc.path, tc.req)
		if w.Code != tc.wantCode {
			t.Errorf("%s: status %d, want %d (%s)", tc.name, w.Code, tc.wantCode, w.Body)
		}
		if !strings.Contains(w.Body.String(), tc.wantBody) {
			t.Errorf("%s: body %s, want substring %q", tc.name, w.Body, tc.wantBody)
		}
	}

	// A binding sweep reports per-binding failures without failing the
	// sweep.
	w := postJSON(t, h, "/v1/template/"+created.ID+"/eval", TemplateEvalRequest{
		Bindings: []map[string]types.Value{
			{"cut": types.Float(60)},
			{},
		},
	})
	if w.Code != http.StatusOK {
		t.Fatalf("mixed sweep: status %d: %s", w.Code, w.Body)
	}
	var resp TemplateEvalResponse
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Results[0].Error != "" || resp.Results[1].Error == "" {
		t.Fatalf("mixed sweep results = %s", w.Body)
	}
}

// TestTemplateEvalMinVersion pins the read-your-writes bound on eval:
// the bound blocks until the history reaches it, and the answering
// artifact recompiles against the advanced version.
func TestTemplateEvalMinVersion(t *testing.T) {
	srv := newTestServer(t, Options{})
	h := srv.Handler()
	created := createTemplate(t, h)

	// Append one statement, then eval bounded by the new version.
	aw := postJSON(t, h, "/v1/history", AppendRequest{
		Statements: []string{`UPDATE orders SET fee = fee + 2 WHERE price >= 90`},
	})
	if aw.Code != http.StatusOK {
		t.Fatalf("append: %d %s", aw.Code, aw.Body)
	}
	w := postJSON(t, h, "/v1/template/"+created.ID+"/eval", TemplateEvalRequest{
		Binding:    map[string]types.Value{"cut": types.Float(60)},
		MinVersion: 3,
	})
	if w.Code != http.StatusOK {
		t.Fatalf("bounded eval: status %d: %s", w.Code, w.Body)
	}
	var resp TemplateEvalResponse
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	ww := postJSON(t, h, "/v1/whatif", WhatIfRequest{
		Modifications: []Modification{{Op: "replace", Pos: 1, Statement: `UPDATE orders SET fee = 0 WHERE price >= 60.0`}},
		MinVersion:    3,
	})
	var whatIf WhatIfResponse
	if err := json.Unmarshal(ww.Body.Bytes(), &whatIf); err != nil {
		t.Fatal(err)
	}
	if !resp.Delta["orders"].Equal(whatIf.Delta["orders"]) {
		t.Fatalf("post-append template delta differs from plain what-if:\n%s\nvs\n%s", w.Body, ww.Body)
	}

	// An unreachable bound with a short budget times out as 504.
	w = postJSON(t, h, "/v1/template/"+created.ID+"/eval", TemplateEvalRequest{
		Binding:    map[string]types.Value{"cut": types.Float(60)},
		MinVersion: 99,
		TimeoutMs:  30,
	})
	if w.Code != http.StatusGatewayTimeout {
		t.Fatalf("unreachable bound: status %d, want 504 (%s)", w.Code, w.Body)
	}
}

// TestTemplateCreateErrors pins compile-side validation.
func TestTemplateCreateErrors(t *testing.T) {
	srv := newTestServer(t, Options{})
	h := srv.Handler()

	w := postJSON(t, h, "/v1/template", TemplateRequest{
		Modifications: []Modification{{Op: "replace", Pos: 9, Statement: `UPDATE orders SET fee = 0 WHERE price >= $cut`}},
	})
	if w.Code != http.StatusBadRequest {
		t.Fatalf("out-of-range position: status %d, want 400 (%s)", w.Code, w.Body)
	}
	w = postJSON(t, h, "/v1/template", TemplateRequest{
		Modifications: []Modification{{Op: "replace", Pos: 1, Statement: `UPDATE orders SET fee = 0 WHERE price >= $cut`}},
		Variant:       "bogus",
	})
	if w.Code != http.StatusBadRequest || !strings.Contains(w.Body.String(), "unknown variant") {
		t.Fatalf("bogus variant: status %d (%s)", w.Code, w.Body)
	}
}

// TestTemplateCreateReportsSides: the fee template is a range template
// (price >= $cut replaces price >= 50), so its create response carries
// both sides of the bound 50; a set-slot template carries none.
func TestTemplateCreateReportsSides(t *testing.T) {
	srv := newTestServer(t, Options{})
	h := srv.Handler()
	created := createTemplate(t, h)
	if len(created.Sides) != 2 {
		t.Fatalf("create response = %+v, want two sides", created)
	}
	for i, dir := range []string{"above", "below"} {
		sd := created.Sides[i]
		if !sd.Bound.Equal(types.Int(50)) || sd.Direction != dir || sd.KeptStatements == 0 || sd.KeptStatements > created.TotalStatements {
			t.Fatalf("side %d = %+v, want bound 50, direction %s, a kept count within %d", i, sd, dir, created.TotalStatements)
		}
	}
	if max(created.Sides[0].KeptStatements, created.Sides[1].KeptStatements) != created.KeptStatements {
		t.Fatalf("kept_statements %d is not the larger side's (%+v)", created.KeptStatements, created.Sides)
	}
	w := postJSON(t, h, "/v1/template", TemplateRequest{
		Modifications: []Modification{{Op: "replace", Pos: 1, Statement: `UPDATE orders SET fee = $fee WHERE price >= 50`}},
	})
	if w.Code != http.StatusOK {
		t.Fatalf("set-slot create: status %d: %s", w.Code, w.Body)
	}
	if strings.Contains(w.Body.String(), `"sides"`) {
		t.Fatalf("a set-slot template's response carries sides: %s", w.Body)
	}
}
