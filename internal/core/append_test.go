package core

import (
	"context"
	"encoding/json"
	"sync"
	"testing"

	"github.com/mahif/mahif/internal/history"
	"github.com/mahif/mahif/internal/sql"
	"github.com/mahif/mahif/internal/workload"
)

// TestSessionCrossVersionReuseOnAppend pins the optimistic reuse
// contract: advancing the history through Append keeps every session
// cache warm (snapshots, compiled results, solver memo), re-pins the
// version, and still answers exactly like a fresh engine — both for
// queries below the old tip and for queries touching the new tail.
func TestSessionCrossVersionReuseOnAppend(t *testing.T) {
	ds := workload.Taxi(500, 2)
	w, err := workload.Generate(ds, workload.Config{
		Updates: 12, Mods: 1, DependentPct: 20, AffectedPct: 10, Seed: 9,
	})
	if err != nil {
		t.Fatal(err)
	}
	vdb, err := w.Load()
	if err != nil {
		t.Fatal(err)
	}
	engine := New(vdb)
	sess := engine.NewSession()
	ctx := context.Background()

	for i := 0; i < 2; i++ {
		if _, _, err := sess.WhatIfCtx(ctx, w.Mods, DefaultOptions()); err != nil {
			t.Fatalf("warm call %d: %v", i, err)
		}
	}
	warm := sess.Stats()
	if warm.SnapshotHits == 0 || warm.QueryHits == 0 {
		t.Fatalf("session not warm: %+v", warm)
	}

	// Append: re-run one of the history's own update statements (always
	// applicable).
	extra := w.History[len(w.History)-1]
	ver, err := engine.AppendCtx(ctx, []history.Statement{extra})
	if err != nil {
		t.Fatalf("append: %v", err)
	}
	if ver != len(w.History)+1 {
		t.Fatalf("append returned version %d, want %d", ver, len(w.History)+1)
	}

	// Same query, post-append: the snapshot at the first modified
	// position and the compiled programs must be reused, not rebuilt.
	if _, _, err := sess.WhatIfCtx(ctx, w.Mods, DefaultOptions()); err != nil {
		t.Fatalf("post-append call: %v", err)
	}
	st := sess.Stats()
	if st.Invalidations != 0 {
		t.Errorf("invalidations = %d, want 0", st.Invalidations)
	}
	if st.Advances != 1 {
		t.Errorf("advances = %d, want 1", st.Advances)
	}
	if st.Version != ver {
		t.Errorf("session version = %d, want %d", st.Version, ver)
	}
	if st.SnapshotHits <= warm.SnapshotHits {
		t.Errorf("snapshot cache not reused across append: %+v then %+v", warm, st)
	}
	if st.SnapshotMisses != warm.SnapshotMisses {
		t.Errorf("snapshots were rebuilt after append: %+v then %+v", warm, st)
	}

	// Correctness net: session answers equal a fresh engine's for a
	// query below the old tip and for one modifying the appended tail.
	tailMods := []history.Modification{history.DeleteStmt{Pos: ver - 1}}
	for _, mods := range [][]history.Modification{w.Mods, tailMods} {
		want, _, err := New(vdb).WhatIfCtx(ctx, mods, DefaultOptions())
		if err != nil {
			t.Fatalf("fresh: %v", err)
		}
		got, _, err := sess.WhatIfCtx(ctx, mods, DefaultOptions())
		if err != nil {
			t.Fatalf("session: %v", err)
		}
		wj, _ := json.Marshal(want)
		gj, _ := json.Marshal(got)
		if string(wj) != string(gj) {
			t.Fatalf("session answer diverged from fresh engine after append:\nfresh:   %s\nsession: %s", wj, gj)
		}
	}
}

// TestAppendEmptyAndErrors covers the in-memory append path's edges.
func TestAppendEmptyAndErrors(t *testing.T) {
	ds := workload.Taxi(50, 3)
	w, err := workload.Generate(ds, workload.Config{Updates: 3, Mods: 1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	vdb, err := w.Load()
	if err != nil {
		t.Fatal(err)
	}
	engine := New(vdb)
	if _, err := engine.Append(); err == nil {
		t.Fatalf("empty append succeeded")
	}
	v0 := vdb.NumVersions()
	bad := &history.Delete{Rel: "nosuch"}
	if _, err := engine.Append(bad); err == nil {
		t.Fatalf("append of statement on missing relation succeeded")
	}
	if vdb.NumVersions() != v0 {
		t.Fatalf("failed append advanced the history")
	}
}

// TestLiveAppendWhileServing runs appends concurrently with session
// queries and batches — the serving pattern mahifd's /v1/history
// enables. Under -race this pins the storage-level synchronization;
// the answers are checked for internal consistency (every query
// completes without error and the final state matches a sequential
// replay).
func TestLiveAppendWhileServing(t *testing.T) {
	ds := workload.Taxi(400, 5)
	w, err := workload.Generate(ds, workload.Config{
		Updates: 10, Mods: 1, DependentPct: 20, AffectedPct: 10, Seed: 12,
	})
	if err != nil {
		t.Fatal(err)
	}
	vdb, err := w.Load()
	if err != nil {
		t.Fatal(err)
	}
	engine := New(vdb)
	sess := engine.NewSession()
	ctx := context.Background()

	appends := 12
	var wg sync.WaitGroup
	errCh := make(chan error, 64)

	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < appends; i++ {
			st := w.History[i%len(w.History)]
			if _, err := engine.AppendCtx(ctx, []history.Statement{st}); err != nil {
				errCh <- err
				return
			}
		}
	}()
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 8; i++ {
				var err error
				switch g % 3 {
				case 0:
					_, _, err = sess.WhatIfCtx(ctx, w.Mods, DefaultOptions())
				case 1:
					_, _, err = engine.NaiveCtx(ctx, w.Mods)
				default:
					_, _, err = sess.WhatIfBatchCtx(ctx, []Scenario{{Mods: w.Mods}}, BatchOptions{Workers: 2})
				}
				if err != nil {
					errCh <- err
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatalf("live append/serve: %v", err)
	}
	if got, want := vdb.NumVersions(), len(w.History)+appends; got != want {
		t.Fatalf("final version %d, want %d", got, want)
	}

	// Post-quiesce, the session must answer exactly like a fresh
	// engine over the advanced history.
	want, _, err := New(vdb).WhatIfCtx(ctx, w.Mods, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := sess.WhatIfCtx(ctx, w.Mods, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	wj, _ := json.Marshal(want)
	gj, _ := json.Marshal(got)
	if string(wj) != string(gj) {
		t.Fatalf("post-stress divergence:\nfresh:   %s\nsession: %s", wj, gj)
	}
}

// TestNaivePinsTipUnderAppend (run under -race): Alg. 1 diffs against a
// private copy of the state at the tip it was admitted at, so whole-
// relation UPDATEs appended while it runs can neither race with its
// reads nor tear its actual side. Every appended statement bumps a
// column of every row on both sides alike, so every answer has the
// same size as the first.
func TestNaivePinsTipUnderAppend(t *testing.T) {
	ds := workload.Taxi(400, 1)
	w, err := workload.Generate(ds, workload.Config{
		Updates: 6, Mods: 1, DependentPct: 20, AffectedPct: 10, Seed: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	vdb, err := w.Load()
	if err != nil {
		t.Fatal(err)
	}
	engine := New(vdb)
	ctx := context.Background()
	rel := ds.Rel.Schema.Relation
	first, _, err := engine.NaiveCtx(ctx, w.Mods)
	if err != nil {
		t.Fatal(err)
	}
	if first[rel].Empty() {
		t.Fatal("empty delta: the what-if checks nothing")
	}
	bump := sql.MustParseStatement("UPDATE " + rel + " SET pickup_area = pickup_area + 1")

	const appends = 20
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < appends; i++ {
			if _, err := engine.AppendCtx(ctx, []history.Statement{bump}); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for i := 0; i < 10; i++ {
		d, _, err := engine.NaiveCtx(ctx, w.Mods)
		if err != nil {
			t.Fatalf("call %d: %v", i, err)
		}
		if d[rel].Size() != first[rel].Size() {
			t.Errorf("call %d: %d delta rows, want %d", i, d[rel].Size(), first[rel].Size())
		}
	}
	wg.Wait()
}
