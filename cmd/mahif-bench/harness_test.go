package main

import (
	"fmt"
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
	for _, bad := range []string{"10,x", "0,5", "-5"} {
		if _, err := parseInts(bad); err == nil {
			t.Errorf("parseInts(%q) accepted", bad)
		}
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

// TestExperimentsSmoke runs every figure at tiny scale to ensure none
// of them panics or degenerates. At 400 rows fig17 alone takes seconds:
// its R+PS cells at M ≥ 5 slice slower on the smaller relation.
func TestExperimentsSmoke(t *testing.T) {
	h := &harness{rows: 2000, large: 2, seed: 1, updates: []int{5}}
	for _, f := range figures {
		t.Run(f.id, func(t *testing.T) { h.runFigure(f) })
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

// BenchmarkFigures times every cell of the figures table at reduced
// scale (8000 rows, U ∈ {10, 50}), one sub-benchmark per variant
// (fig14/Taxi(S)/U10/N). A cell loads its history outside the timer;
// each iteration answers the query on the loaded engine.
func BenchmarkFigures(b *testing.B) {
	h := &harness{rows: 8000, large: 4, seed: 1, updates: []int{10, 50}}
	for _, f := range figures {
		b.Run(f.id, func(b *testing.B) {
			for _, dsID := range f.datasets {
				b.Run(dsID, func(b *testing.B) {
					ds := h.dataset(dsID)
					for _, x := range h.points(f) {
						b.Run(fmt.Sprintf("%s%d", f.axis, x), func(b *testing.B) {
							w := h.gen(ds, f.config(x))
							for _, v := range f.variants {
								b.Run(string(v), func(b *testing.B) {
									engine := load(w)
									b.ResetTimer()
									for range b.N {
										answer(engine, w.Mods, v)
									}
								})
							}
						})
					}
				})
			}
		})
	}
}
