package core

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"github.com/mahif/mahif/internal/delta"
	"github.com/mahif/mahif/internal/history"
	"github.com/mahif/mahif/internal/sql"
	"github.com/mahif/mahif/internal/types"
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

	warmTests := 0
	for i := 0; i < 2; i++ {
		_, st, err := sess.WhatIfCtx(ctx, w.Mods, DefaultOptions())
		if err != nil {
			t.Fatalf("warm call %d: %v", i, err)
		}
		warmTests = st.SolverTests
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
	// position and the compiled programs must be reused, not rebuilt,
	// and every test asked before the append must hit the memo: only
	// the appended statement's may miss (here it repeats the history's
	// last statement, so its question may have been asked already).
	_, post, err := sess.WhatIfCtx(ctx, w.Mods, DefaultOptions())
	if err != nil {
		t.Fatalf("post-append call: %v", err)
	}
	st := sess.Stats()
	if got, added := st.MemoMisses-warm.MemoMisses, int64(post.SolverTests-warmTests); got > added || added < 1 {
		t.Errorf("post-append what-if missed the memo %d times, want at most %d (its tests beyond the %d asked before)", got, added, warmTests)
	}
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

// requireFreshWhatIf fails unless got is what a fresh what-if over the
// template's substituted modifications answers at the current history.
func requireFreshWhatIf(t *testing.T, label string, tpl *Template, binding map[string]types.Value, got delta.Set) {
	t.Helper()
	want, _, err := tpl.e.WhatIf(tpl.SubstitutedMods(binding), tpl.opts)
	if err != nil {
		t.Fatalf("%s: fresh what-if: %v", label, err)
	}
	requireSetsEqual(t, label, got, want)
}

// TestTemplateAppendCostsWhatItAdds: after each of k appends, the two
// serving templates (cond-slot and set-slot) recompile, and between
// them the session's solver memo misses exactly the tests the appended
// statement added, one per template: every test asked before the
// append keeps its key. Every binding, narrow and wide, still answers
// what a fresh what-if over the substituted modifications answers.
func TestTemplateAppendCostsWhatItAdds(t *testing.T) {
	w, e := servingWorkload(t, 3000, 30)
	s := e.NewSession()
	var tpls []*Template
	for _, mods := range [][]history.Modification{paramMods(w), setSlotMods(w)} {
		tpl, err := s.CompileTemplate(mods, DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		tpls = append(tpls, tpl)
	}
	bindings := [][]map[string]types.Value{
		{{"cut": types.Int(9500)}, {"cut": types.Int(0)}},
		{{"bump": types.Float(2.25)}},
	}
	check := func(version int) {
		t.Helper()
		for i, tpl := range tpls {
			for _, b := range bindings[i] {
				got, err := tpl.Eval(b)
				if err != nil {
					t.Fatal(err)
				}
				requireFreshWhatIf(t, fmt.Sprintf("version %d, template %d, %v", version, i, b), tpl, b, got)
			}
		}
	}
	tests := func() (n int) {
		for _, tpl := range tpls {
			n += tpl.Stats().SolverTests
		}
		return n
	}
	check(e.Version())
	const appends = 3
	for k := 0; k < appends; k++ {
		misses, asked := s.Stats().MemoMisses, tests()
		if _, err := e.Append(appendedStmt(w, int64(1000*k+17))); err != nil {
			t.Fatal(err)
		}
		for i, tpl := range tpls {
			if _, err := tpl.Eval(bindings[i][0]); err != nil {
				t.Fatal(err)
			}
		}
		added := tests() - asked
		if added != len(tpls) {
			t.Fatalf("append %d: the recompiles asked %d more tests, want one per template", k, added)
		}
		if got := s.Stats().MemoMisses - misses; got != int64(added) {
			t.Errorf("append %d: the recompiles missed the memo %d times, want %d (the appended statement's tests)", k, got, added)
		}
		check(e.Version())
	}
	if st := s.Stats(); st.TemplateRecompiles != int64(appends*len(tpls)) {
		t.Errorf("session counts %d template recompiles, want %d", st.TemplateRecompiles, appends*len(tpls))
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

// cancelAfter is a context that reports itself cancelled once its Err
// has been called left times, so an eval can be cut at every point
// where it looks.
type cancelAfter struct {
	context.Context
	left atomic.Int64
}

func (c *cancelAfter) Err() error {
	if c.left.Add(-1) < 0 {
		return context.Canceled
	}
	return nil
}

// TestTemplateUnslicedPairBuiltOnFirstUse: the cond-slot template's
// unsliced pair is built by the first binding its sliced pair does not
// pay for, never at compile. Narrow bindings build none; after an
// append, N concurrent wide bindings build the new artifact's once; an
// eval cancelled at any point before its build has finished, in the
// middle of the build included, leaves nothing cached, and the pair is
// built once in all. Every answer equals a fresh what-if's.
func TestTemplateUnslicedPairBuiltOnFirstUse(t *testing.T) {
	w, e := servingWorkload(t, 3000, 20)
	s := e.NewSession()
	tpl, err := s.CompileTemplate(paramMods(w), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	eval := func(ctx context.Context, cut int64) error {
		b := map[string]types.Value{"cut": types.Int(cut)}
		got, err := tpl.EvalCtx(ctx, b)
		if err == nil {
			requireFreshWhatIf(t, fmt.Sprintf("cut %d", cut), tpl, b, got)
		}
		return err
	}
	builds := func(want int64) {
		t.Helper()
		if got, sess := tpl.Stats().UnslicedBuilds, s.Stats().TemplateUnslicedBuilds; got != want || sess != want {
			t.Fatalf("%d unsliced builds (session %d), want %d", got, sess, want)
		}
	}
	for _, cut := range []int64{9500, 9700, 9900} {
		if err := eval(context.Background(), cut); err != nil {
			t.Fatal(err)
		}
	}
	if st := tpl.Stats(); st.SlicedEvals != 3 || st.UnslicedEvals != 0 {
		t.Fatalf("narrow bindings ran %d sliced, %d unsliced evals, want 3 and 0", st.SlicedEvals, st.UnslicedEvals)
	}
	builds(0)

	if _, err := e.Append(appendedStmt(w, 4242)); err != nil {
		t.Fatal(err)
	}
	const wide = 8
	var wg sync.WaitGroup
	errs := make([]error, wide)
	for i := range wide {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = eval(context.Background(), int64(i))
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	if st := tpl.Stats(); st.Recompiles != 1 || st.UnslicedEvals != wide {
		t.Fatalf("%d recompiles, %d unsliced evals, want 1 and %d", st.Recompiles, st.UnslicedEvals, wide)
	}
	builds(1)

	// A second append, then a wide eval cut short at its n-th look at
	// the context, for n = 0, 1, … until one finishes: a narrow eval
	// recompiles first, so every cut lands in the wide eval itself. A
	// cut before the build's end leaves nothing cached; once a build has
	// finished, its pair stays, built once.
	if _, err := e.Append(appendedStmt(w, 5151)); err != nil {
		t.Fatal(err)
	}
	if err := eval(context.Background(), 9600); err != nil {
		t.Fatal(err)
	}
	wholes := tpl.art.Load().rels[0].slice.wholes
	looks := 0
	for ; ; looks++ {
		ctx := &cancelAfter{Context: context.Background()}
		ctx.left.Store(int64(looks))
		err := eval(ctx, 100)
		if err == nil {
			break
		}
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("cut after %d looks: %v", looks, err)
		}
		cached := int64(wholes.Len())
		if cached > 1 {
			t.Fatalf("cut after %d looks: %d unsliced pairs cached", looks, cached)
		}
		builds(1 + cached)
	}
	builds(2)
	// The cuts covered every look of a cold wide eval; a warm one looks
	// fewer times, so at least one cut fell inside the build.
	warm := &cancelAfter{Context: context.Background()}
	warm.left.Store(1 << 40)
	if err := eval(warm, 200); err != nil {
		t.Fatal(err)
	}
	if warmLooks := 1<<40 - warm.left.Load(); int64(looks) <= warmLooks {
		t.Fatalf("a cold wide eval looked at its context %d times, a warm one %d: no cut fell inside the build", looks, warmLooks)
	}
	builds(2)
}
