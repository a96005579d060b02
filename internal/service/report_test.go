package service

import (
	"net/http"
	"testing"
)

// TestReportRouteMetrics: /metrics counts each attached report by the
// route that answered it. Replacing the first fee statement's threshold
// 50 by 60 gives the orders priced 50–58 their fee 5 back: SUM(fee)
// merges those rows into the historical state, while MIN(fee) loses
// Minus rows whose fee 0 is the minimum and has to re-aggregate.
func TestReportRouteMetrics(t *testing.T) {
	h := newTestServer(t, Options{}).Handler()
	w := postJSON(t, h, "/v1/whatif", WhatIfRequest{
		Modifications: []Modification{{Op: "replace", Pos: 1, Statement: `UPDATE orders SET fee = 0 WHERE price >= 60`}},
		Queries:       []string{"SELECT SUM(fee) AS s FROM orders", "SELECT MIN(fee) AS lo FROM orders"},
	})
	if w.Code != http.StatusOK {
		t.Fatalf("whatif: status %d: %s", w.Code, w.Body)
	}
	req, _ := http.NewRequest("GET", "/metrics", nil)
	text := getPath(t, h, req)
	if merged, patched := sumMetric(text, "mahif_session_reports_merged_total"), sumMetric(text, "mahif_session_reports_patched_total"); merged != 1 || patched != 1 {
		t.Errorf("report routes on /metrics: %d merged, %d patched; want 1 and 1\n%s", merged, patched, text)
	}
}
