package service

import (
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/mahif/mahif/internal/core"
	"github.com/mahif/mahif/internal/persist"
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

// fakeReplication reports a fixed follower stream state.
type fakeReplication struct{ st ReplicationStatus }

func (f *fakeReplication) ReplicationStatus() ReplicationStatus { return f.st }

// TestMetricsFollowerBlock scrapes a store-backed server whose
// Options.Replication reports a follower's stream: the six
// mahif_replication_* series follow the store block in table order,
// carry the reported values, and connected reads 1 and then 0 once the
// stream drops.
func TestMetricsFollowerBlock(t *testing.T) {
	store, err := persist.Create(filepath.Join(t.TempDir(), "data"), memBase(t), persist.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	rep := &fakeReplication{st: ReplicationStatus{
		LeaderURL: "http://leader", Connected: true,
		AppliedVersion: 3, LeaderVersion: 5, Lag: 2, RecordsApplied: 7, Reconnects: 1,
	}}
	h := New(core.NewDurable(store), Options{Store: store, Replication: rep}).Handler()
	scrape := func() string {
		t.Helper()
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest("GET", "/metrics", nil))
		if w.Code != http.StatusOK {
			t.Fatalf("metrics status %d", w.Code)
		}
		return w.Body.String()
	}

	body := scrape()
	at := strings.Index(body, "\nmahif_wal_stream_records_total ")
	if at < 0 {
		t.Fatalf("store block missing:\n%s", body)
	}
	for _, sample := range []string{
		"mahif_replication_connected 1",
		"mahif_replication_applied_version 3",
		"mahif_replication_leader_version 5",
		"mahif_replication_lag 2",
		"mahif_replication_records_applied_total 7",
		"mahif_replication_reconnects_total 1",
	} {
		i := strings.Index(body, "\n"+sample+"\n")
		if i <= at {
			t.Fatalf("%q missing or not after the store block and the series before it:\n%s", sample, body)
		}
		at = i
	}

	rep.st.Connected = false
	if body := scrape(); !strings.Contains(body, "\nmahif_replication_connected 0\n") {
		t.Fatalf("a dropped stream still reads connected:\n%s", body)
	}
}
