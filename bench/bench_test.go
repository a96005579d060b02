package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
	"time"

	"github.com/mahif/mahif/internal/core"
	"github.com/mahif/mahif/internal/workload"
)

// manifest is the part of BENCHMARK.json the program must agree with.
type manifest struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func readManifest(t *testing.T) manifest {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var m manifest
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatal(err)
	}
	return m
}

func TestOpSequenceFollowsSeed(t *testing.T) {
	for _, sp := range specs {
		sp = sp.smoke()
		hash := func(seed int64) string {
			w, err := sp.generate(seed)
			if err != nil {
				t.Fatal(err)
			}
			return opsHash(sp.genOps(w, seed, 200))
		}
		if a, b := hash(7), hash(7); a != b {
			t.Errorf("%s: seed 7 gave two op sequences: %s and %s", sp.name, a, b)
		}
		if a, b := hash(7), hash(8); a == b {
			t.Errorf("%s: seeds 7 and 8 gave the same op sequence", sp.name)
		}
	}
}

func TestPercentile(t *testing.T) {
	var hundred []time.Duration
	for i := 1; i <= 100; i++ {
		hundred = append(hundred, time.Duration(i))
	}
	for _, c := range []struct {
		sorted []time.Duration
		p      float64
		want   time.Duration
	}{
		{hundred, 50, 50},
		{hundred, 95, 95},
		{hundred, 100, 100},
		{hundred, 0.1, 1},
		{[]time.Duration{10, 20, 30, 40}, 50, 20},
		{[]time.Duration{10, 20, 30, 40}, 95, 40},
		{[]time.Duration{7}, 50, 7},
		{nil, 50, 0},
	} {
		if got := percentile(c.sorted, c.p); got != c.want {
			t.Errorf("percentile(%v, %g) = %d, want %d", c.sorted, c.p, got, c.want)
		}
	}
	if got := medianSeconds([]time.Duration{3 * time.Second, time.Second, 2 * time.Second, 10 * time.Second}); got != 2.5 {
		t.Errorf("medianSeconds of 1,2,3,10 s = %g, want 2.5", got)
	}
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// smokeRun runs one workload at test size and returns the result object
// printed on the last line.
func smokeRun(t *testing.T, name string, trace bool) result {
	t.Helper()
	tmp := t.TempDir()
	var stdout, stderr bytes.Buffer
	code := run(context.Background(), config{workload: name, seed: 3, seconds: 1, trace: trace, smoke: true, tmp: tmp}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("%s: exit code %d\n%s", name, code, stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var res result
	dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&res); err != nil {
		t.Fatalf("%s: last line is not the result object: %v\n%s", name, err, lines[len(lines)-1])
	}
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Errorf("%s: correct=%t attempted=%d failed=%d", name, res.Correct, res.Attempted, res.Failed)
	}
	for metric, m := range res.Metrics {
		if !metricName.MatchString(metric) {
			t.Errorf("%s: metric name %q outside the contract's alphabet", name, metric)
		}
		if m.Unit == "" {
			t.Errorf("%s: metric %s has no unit", name, metric)
		}
	}
	// Only the span dump of a traced run may stay behind.
	left, err := os.ReadDir(tmp)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range left {
		if e.IsDir() || !trace {
			t.Errorf("%s: left %s behind in its temporary directory", name, e.Name())
		}
	}
	return res
}

// sameMetrics requires the reported metrics to be exactly the declared
// ones, with the declared units.
func sameMetrics(t *testing.T, workload string, got map[string]metric, declared []struct{ Name, Unit string }) {
	t.Helper()
	var want, have []string
	for _, d := range declared {
		want = append(want, d.Name)
		if m, ok := got[d.Name]; ok && m.Unit != d.Unit {
			t.Errorf("%s: %s reported in %q, BENCHMARK.json says %q", workload, d.Name, m.Unit, d.Unit)
		}
	}
	for name := range got {
		have = append(have, name)
	}
	sort.Strings(want)
	sort.Strings(have)
	if strings.Join(want, " ") != strings.Join(have, " ") {
		t.Errorf("%s: reported metrics\n  %v\nBENCHMARK.json declares\n  %v", workload, have, want)
	}
}

func TestSmokeEveryWorkload(t *testing.T) {
	m := readManifest(t)
	if len(m.Workloads) != len(specs) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program has %d", len(m.Workloads), len(specs))
	}
	for i, sp := range specs {
		if m.Workloads[i].Name != sp.name {
			t.Errorf("BENCHMARK.json workload %d is %q, the program's is %q", i, m.Workloads[i].Name, sp.name)
		}
		t.Run(sp.name, func(t *testing.T) {
			res := smokeRun(t, sp.name, false)
			sameMetrics(t, sp.name, res.Metrics, m.EndToEnd)
			for name, v := range res.Metrics {
				if v.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s is %g; it must never be 0", sp.name, name, v.Value)
				}
			}
			traced := smokeRun(t, sp.name, true)
			sameMetrics(t, sp.name, traced.Metrics, m.PerLayer)
			if cov := traced.Metrics["trace.coverage"].Value; cov < 0.5 || cov > 1.5 {
				t.Errorf("%s: trace.coverage = %g: the staged spans do not account for the op", sp.name, cov)
			}
		})
	}
}

func TestUnknownWorkloadIsRefused(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run(context.Background(), config{workload: "nope", seconds: 1, tmp: t.TempDir()}, &stdout, &stderr); code == 0 || stdout.Len() != 0 {
		t.Errorf("unknown workload: exit code %d, printed %q", code, stdout.String())
	}
}

// A cancelled run (what SIGTERM does) prints no result, exits non-zero
// and leaves nothing behind: no store directory, no listener, and not
// the directory an earlier run that was killed outright left either.
func TestCancelledRunCleansUp(t *testing.T) {
	tmp := t.TempDir()
	if err := os.Mkdir(filepath.Join(tmp, "run-killed"), 0o755); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	time.AfterFunc(300*time.Millisecond, cancel)
	var stdout, stderr bytes.Buffer
	code := run(ctx, config{workload: "serve_mixed", seed: 1, seconds: 60, smoke: true, tmp: tmp}, &stdout, &stderr)
	if code == 0 || stdout.Len() != 0 {
		t.Errorf("cancelled run: exit code %d, printed %q", code, stdout.String())
	}
	left, err := os.ReadDir(tmp)
	if err != nil {
		t.Fatal(err)
	}
	if len(left) != 0 {
		t.Errorf("cancelled run left %d entries behind, first %s", len(left), left[0].Name())
	}
}

// The staged replay must answer exactly what Session.WhatIf answers,
// on an update-only history and on one with inserts (the §10 split).
func TestStagedReplayEqualsSession(t *testing.T) {
	for _, insertPct := range []int{0, 20} {
		w, err := workload.Generate(workload.Taxi(400, 5), workload.Config{
			Updates: 30, Mods: 1, DependentPct: 30, AffectedPct: 10, InsertPct: insertPct, Seed: 11,
		})
		if err != nil {
			t.Fatal(err)
		}
		vdb, err := w.Load()
		if err != nil {
			t.Fatal(err)
		}
		engine := core.New(vdb)
		sess := engine.NewSession()
		st := newStager(newTracer(), engine, vdb)
		sp := spec{positions: 8, mix: []opKind{opWhatIf}}
		tuples := 0
		for i, o := range sp.genOps(w, 1, 12) {
			mods := whatIfMods(w, o)
			want, _, err := sess.WhatIfCtx(context.Background(), mods, core.DefaultOptions())
			if err != nil {
				t.Fatal(err)
			}
			got, err := st.whatIf(context.Background(), i, 0, mods)
			if err != nil {
				t.Fatal(err)
			}
			if !sameDelta(got, want) {
				t.Errorf("inserts %d%%, op %d (%s): staged delta has %d tuples, session's %d", insertPct, i, o, got.Size(), want.Size())
			}
			tuples += want.Size()
		}
		if tuples == 0 {
			t.Errorf("inserts %d%%: every delta was empty, which proves nothing", insertPct)
		}
	}
}
