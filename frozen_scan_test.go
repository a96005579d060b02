package mahif_test

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"github.com/mahif/mahif/internal/algebra"
	"github.com/mahif/mahif/internal/core"
	"github.com/mahif/mahif/internal/delta"
	"github.com/mahif/mahif/internal/exec"
	"github.com/mahif/mahif/internal/history"
	"github.com/mahif/mahif/internal/reenact"
	"github.com/mahif/mahif/internal/sql"
	"github.com/mahif/mahif/internal/storage"
)

// TestFrozenScanDifferential runs the queries of the
// FuzzDifferentialExecutor seed corpus — both reenactment queries of
// each scenario's what-if (original and modified history) over the
// state it time-travels to, and its aggregate plans over the tip — with
// the vectorized executor over two forms of the same state: (a) a
// private database, which every scan transposes batch by batch, and
// (b) the database a SnapshotCache published, which scans read through
// windows of the frozen relation's shared columnar view. Sequentially
// and with forced partitions, both must return the interpreter's tuples
// in the interpreter's order, or fail where it fails, with one error
// text between them. The interpreter reads rows and knows nothing of
// either form.
func TestFrozenScanDifferential(t *testing.T) {
	// FuzzDifferentialExecutor's f.Add list.
	seeds := []int64{1, 2, 3, 42, 1234, 987654321,
		7, 99, 2024, 31337, 55555, 424242, 8675309, 1 << 40,
		11, 13, 31, 47, 1415, 2021, 4096, 271828,
		17, 23, 61, 101, 733, 3141, 16384, 650000}
	scans := map[string]exec.VecOptions{
		"sequential": {Workers: 1},
		"parallel":   {Workers: 4, MinParallelRows: 1},
	}
	var builds, reuses int64
	for _, seed := range seeds {
		rng := rand.New(rand.NewSource(seed))
		vdb, hist := randomScenario(t, rng)
		mod := randomModificationFor(rng, hist)
		pair, err := history.ApplyModifications(hist, []history.Modification{mod})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		cache := storage.NewSnapshotCache(vdb)

		check := func(label string, q algebra.Query, version int) {
			t.Helper()
			frozen, err := cache.SnapshotCtx(context.Background(), version)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			private := frozen.Clone()
			want, errI := algebra.Eval(q, private)
			for name, opts := range scans {
				prog, err := exec.CompileVec(q, private, opts)
				if err != nil {
					t.Fatalf("%s/%s: compile: %v", label, name, err)
				}
				gotP, errP := prog.RunCtx(context.Background(), private)
				gotF, errF := prog.RunCtx(context.Background(), frozen)
				if (errI == nil) != (errP == nil) || fmt.Sprint(errP) != fmt.Sprint(errF) {
					t.Fatalf("%s/%s: error divergence: interpreter=%v private=%v frozen=%v", label, name, errI, errP, errF)
				}
				if errI != nil {
					continue
				}
				for side, got := range map[string]*storage.Relation{"private": gotP, "frozen": gotF} {
					if !want.Schema.Equal(got.Schema) || len(want.Tuples) != len(got.Tuples) {
						t.Fatalf("%s/%s/%s: %s with %d tuples, want %s with %d", label, name, side,
							got.Schema, len(got.Tuples), want.Schema, len(want.Tuples))
					}
					for i := range want.Tuples {
						if !want.Tuples[i].Equal(got.Tuples[i]) {
							t.Fatalf("%s/%s/%s: tuple %d = %s, want %s", label, name, side, i, got.Tuples[i], want.Tuples[i])
						}
					}
				}
			}
		}

		base, err := cache.SnapshotCtx(context.Background(), 0)
		if err != nil {
			t.Fatal(err)
		}
		for side, h := range map[string]history.History{"orig": pair.Orig, "mod": pair.Mod} {
			qs, err := reenact.Queries(h, base, nil)
			if err != nil {
				t.Fatalf("seed %d: reenacting %s: %v", seed, side, err)
			}
			for rel, q := range qs {
				check(fmt.Sprintf("seed %d/%s/%s", seed, side, rel), q, 0)
			}
		}
		for i := 0; i < 2; i++ {
			src := randomAggregateSQL(rng)
			q, err := sql.ParseQuery(src)
			if err != nil {
				t.Fatalf("parse %q: %v", src, err)
			}
			check(fmt.Sprintf("seed %d/%s", seed, src), q, len(hist))
		}
		h, m := cache.ColumnarStats()
		reuses, builds = reuses+h, builds+m
	}
	// The frozen leg really went through shared views: built at most once
	// per published relation (2 relations × 2 versions per seed), reused
	// by every later scan.
	if builds == 0 || builds > int64(4*len(seeds)) || reuses < builds {
		t.Errorf("%d view builds, %d reuses over %d seeds", builds, reuses, len(seeds))
	}
}

// TestColumnarWhatIfDifferential takes the same seed corpus through
// Session.WhatIfCtx, where both reenactment results stay columnar — the
// session's snapshot is frozen, so the vectorized sides come from lanes
// of the shared view and are diffed lane-wise — sequentially and with
// forced-parallel scans, under all four reenactment variants. Every delta must Equal
// the interpreter's over the same session (rows, transposed once) and
// Alg. 1's, which re-executes the history and diffs rows with
// delta.Compute and so shares nothing with either the lanes or the
// reenactment; and the forced-parallel sink must give what the
// sequential one gives.
func TestColumnarWhatIfDifferential(t *testing.T) {
	seeds := []int64{1, 2, 3, 42, 1234, 987654321,
		7, 99, 2024, 31337, 55555, 424242, 8675309, 1 << 40,
		11, 13, 31, 47, 1415, 2021, 4096, 271828,
		17, 23, 61, 101, 733, 3141, 16384, 650000}
	var compared, boxed int64
	for _, seed := range seeds {
		rng := rand.New(rand.NewSource(seed))
		vdb, hist := randomScenario(t, rng)
		mods := []history.Modification{randomModificationFor(rng, hist)}
		// One session per evaluation: each vectorized check below compares
		// its session's cumulative delta counters with the one what-if that
		// session answered.
		engine := core.New(vdb)
		naive, _, errN := engine.Naive(mods)

		sameAs := func(label string, want, got delta.Set) {
			t.Helper()
			for rel := range want {
				if got[rel] == nil && !want[rel].Empty() {
					t.Fatalf("seed %d %s: no delta for %s, want\n%s", seed, label, rel, want[rel])
				}
			}
			for rel, gd := range got {
				wd := want[rel]
				if wd == nil {
					wd = &delta.Result{}
				}
				if !gd.Equal(wd) {
					t.Fatalf("seed %d %s: delta for %s\n%s\nwant\n%s\nhistory:\n%s\nmod: %s", seed, label, rel, gd, wd, hist, mods[0])
				}
			}
		}
		for _, v := range []core.Variant{core.VariantR, core.VariantRPS, core.VariantRDS, core.VariantRFull} {
			optsI := core.OptionsFor(v)
			optsI.Executor = core.ExecInterpreter
			want, _, errI := engine.NewSession().WhatIf(mods, optsI)
			if (errI == nil) != (errN == nil) {
				t.Fatalf("seed %d %s: interpreter=%v naive=%v", seed, v, errI, errN)
			}
			if errI == nil {
				sameAs(string(v)+"/interpreter vs naive", naive, want)
			}
			for name, vec := range map[string]exec.VecOptions{
				"vectorized":          {Workers: 1},
				"vectorized-parallel": {Workers: 4, MinParallelRows: 1, BatchSize: 100},
			} {
				o := core.OptionsFor(v)
				o.Executor, o.Vec = core.ExecVectorized, vec
				sess := engine.NewSession()
				got, st, err := sess.WhatIf(mods, o)
				if (errI == nil) != (err == nil) {
					t.Fatalf("seed %d %s/%s: error divergence: interpreter=%v got=%v", seed, v, name, errI, err)
				}
				if err != nil {
					continue
				}
				sameAs(string(v)+"/"+name, want, got)
				if st.RowsBoxed < got.Size() || st.RowsBoxed > 2*st.RowsCompared+got.Size() {
					t.Fatalf("seed %d %s/%s: %d rows boxed for a delta of %d after %d comparisons", seed, v, name, st.RowsBoxed, got.Size(), st.RowsCompared)
				}
				if ss := sess.Stats(); ss.DeltaRowsCompared != int64(st.RowsCompared) || ss.DeltaRowsBoxed != int64(st.RowsBoxed) {
					t.Fatalf("seed %d %s/%s: session counted %d/%d rows, the what-if %d/%d", seed, v, name, ss.DeltaRowsCompared, ss.DeltaRowsBoxed, st.RowsCompared, st.RowsBoxed)
				}
				compared, boxed = compared+int64(st.RowsCompared), boxed+int64(st.RowsBoxed)
			}
		}
	}
	// Both counters moved; on histories this small and this full of
	// inserts and deletes most rows are delta, so their ratio says nothing.
	if compared == 0 || boxed == 0 {
		t.Errorf("over %d seeds: %d positions compared, %d rows boxed; want some of each", len(seeds), compared, boxed)
	}
}
