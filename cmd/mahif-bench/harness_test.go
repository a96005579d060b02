package main

import (
	"strings"
	"testing"

	"github.com/mahif/mahif/internal/core"
	"github.com/mahif/mahif/internal/workload"
)

func TestParseInts(t *testing.T) {
	got, err := parseInts("10, 20,50")
	if err != nil || len(got) != 3 || got[0] != 10 || got[2] != 50 {
		t.Errorf("parseInts = %v, %v", got, err)
	}
	if _, err := parseInts("10,x"); err == nil {
		t.Error("bad entry accepted")
	}
}

func TestHarnessDatasets(t *testing.T) {
	h := &harness{rows: 100, large: 2, seed: 1, updates: []int{5}}
	for _, id := range []string{dsTaxiS, dsTaxiL, dsTPCC, dsYCSB} {
		ds := h.dataset(id)
		want := 100
		if id == dsTaxiL {
			want = 200
		}
		if ds.Rel.Len() != want {
			t.Errorf("%s: %d rows, want %d", id, ds.Rel.Len(), want)
		}
	}
}

func TestHarnessRunVariants(t *testing.T) {
	h := &harness{rows: 300, large: 2, seed: 1, updates: []int{5}}
	ds := h.dataset(dsTPCC)
	w := h.gen(ds, workload.Config{Updates: 5})
	for _, v := range []core.Variant{core.VariantNaive, core.VariantR, core.VariantRFull} {
		m := h.run(w, v)
		if m.total <= 0 {
			t.Errorf("%s: non-positive runtime", v)
		}
		if v == core.VariantNaive && m.naive == nil {
			t.Errorf("naive stats missing")
		}
		if v != core.VariantNaive && m.stats == nil {
			t.Errorf("%s stats missing", v)
		}
	}
}

// TestExperimentsSmoke runs every experiment at tiny scale to ensure
// none of them panics or degenerates.
func TestExperimentsSmoke(t *testing.T) {
	h := &harness{rows: 400, large: 2, seed: 1, updates: []int{5}}
	for name, run := range map[string]func(){
		"fig14": h.fig14, "fig15": h.fig15, "fig16": h.fig16,
		"fig18": h.fig18, "fig24": h.fig24, "fig25": h.fig25,
	} {
		t.Run(name, func(t *testing.T) { run() })
	}
}

// TestExperimentNames pins the -exp ids: the paper's figures and the
// experiments no other harness measures.
func TestExperimentNames(t *testing.T) {
	want := "cluster fig14 fig15 fig16 fig17 fig18 fig19 fig20 fig21 fig22 fig23 fig24 fig25 howto persist template"
	if got := strings.Join(experimentIDs(), " "); got != want {
		t.Errorf("experiment ids = %q, want %q", got, want)
	}
}
