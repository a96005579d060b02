package core

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
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
// cache warm (snapshots, solver memo), re-pins the version, and still
// answers exactly like a fresh engine — both for queries below the old
// tip and for queries touching the new tail.
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
	if warm.SnapshotHits == 0 {
		t.Fatalf("session not warm (no snapshot reused): %+v", warm)
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
	// position must be reused, not rebuilt, and every test asked before
	// the append must hit the memo: only the appended statement's may
	// miss (here it repeats the history's last statement, so its
	// question may have been asked already).
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
// statement added, one per dependency run — the set-slot template's one,
// and one per end of the cond-slot (range) template's slot: every test
// asked before the append keeps its key. The set-slot template's test
// asks what the range template's FALSE end asks (the same affected
// tuples; neither writes what the appended statement reads), so it hits
// that run's entry: the misses are one fewer than the tests. Every
// binding, narrow and wide, still answers what a fresh what-if over the
// substituted modifications answers.
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
	runs := 0
	for _, tpl := range tpls {
		runs += max(1, len(tpl.Stats().Sides))
	}
	if runs != 3 {
		t.Fatalf("%d dependency runs per recompile, want 3: the cond-slot template is a range template", runs)
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
		if added != runs {
			t.Fatalf("append %d: the recompiles asked %d more tests, want one per dependency run (%d)", k, added, runs)
		}
		if got := s.Stats().MemoMisses - misses; got != int64(added-1) {
			t.Errorf("append %d: the recompiles missed the memo %d times, want %d (the appended statement's distinct tests)", k, got, added-1)
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

// TestTemplateFallbackBuiltOnFirstUse: a provisioned template's
// executed plan (templateArtifact.fallback) is built by its first
// binding off the order (NaN, 2^53 or more in magnitude), never at
// compile and never by a side binding. A build runs the plan's original
// side, so it scans the snapshot's relation once more than the binding
// alone: after an append, N concurrent off-order bindings scan it N
// times plus one build. An eval cancelled at any look at its context
// before its build has finished, in the middle of the build included,
// leaves nothing cached. Every answer equals a fresh what-if's.
func TestTemplateFallbackBuiltOnFirstUse(t *testing.T) {
	w, e := servingWorkload(t, 3000, 20)
	s := e.NewSession()
	tpl, err := s.CompileTemplate(paramMods(w), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if st := tpl.Stats(); st.Provision != "" {
		t.Fatalf("not provisioned: %s", st.Provision)
	}
	offOrder := []types.Value{
		types.Float(math.NaN()), types.Int(1 << 53), types.Int(-(1 << 53)), types.Float(1 << 53),
		types.Int(1<<53 + 1), types.Float(-(1 << 53)), types.Float(math.Inf(1)), types.Int(math.MaxInt64),
	}
	for _, v := range offOrder {
		if provisioned(tpl, v) {
			t.Fatalf("binding %s has a side", v)
		}
	}
	type answer struct {
		binding map[string]types.Value
		got     delta.Set
	}
	var (
		mu      sync.Mutex
		answers []answer
	)
	eval := func(ctx context.Context, v types.Value) error {
		b := map[string]types.Value{"cut": v}
		got, err := tpl.EvalCtx(ctx, b)
		if err == nil {
			mu.Lock()
			answers = append(answers, answer{b, got})
			mu.Unlock()
		}
		return err
	}
	// checkAnswers compares the answers since its last call with fresh
	// what-ifs at the current history. It runs between the scan counts:
	// a fresh what-if runs through a session of its own.
	checkAnswers := func() {
		t.Helper()
		for _, a := range answers {
			want, _, err := e.WhatIf(tpl.SubstitutedMods(a.binding), anchorOptions(tpl.opts, a.binding))
			if err != nil {
				t.Fatalf("binding %v: fresh what-if: %v", a.binding, err)
			}
			requireSetsEqual(t, fmt.Sprintf("binding %v", a.binding), a.got, want)
		}
		answers = nil
	}
	scans := func() int64 {
		st := s.Stats()
		return st.ColumnarHits + st.ColumnarMisses
	}
	built := func() bool {
		_, ok := tpl.art.Load().fallback.Load()
		return ok
	}

	for _, cut := range []int64{9500, 8000} {
		if err := eval(context.Background(), types.Int(cut)); err != nil {
			t.Fatal(err)
		}
	}
	if built() {
		t.Fatal("side bindings built the executed plan")
	}
	before := scans()
	if err := eval(context.Background(), offOrder[0]); err != nil {
		t.Fatal(err)
	}
	first := scans() - before
	body, _ := tpl.art.Load().fallback.Load()
	before = scans()
	if err := eval(context.Background(), offOrder[1]); err != nil {
		t.Fatal(err)
	}
	run := scans() - before
	build := first - run
	if again, _ := tpl.art.Load().fallback.Load(); again != body || build <= 0 || run <= 0 {
		t.Fatalf("first off-order binding scanned %d times, the second %d; plan rebuilt: %t", first, run, again != body)
	}
	checkAnswers()

	// After an append the next artifact builds its own plan, once,
	// however many off-order bindings ask for it at the same time.
	if _, err := e.Append(appendedStmt(w, 4242)); err != nil {
		t.Fatal(err)
	}
	if _, err := tpl.artifact(context.Background()); err != nil {
		t.Fatal(err)
	}
	if built() {
		t.Fatal("the recompile built the executed plan")
	}
	before = scans()
	var wg sync.WaitGroup
	errs := make([]error, len(offOrder))
	for i, v := range offOrder {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = eval(context.Background(), v)
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	if got, want := scans()-before, int64(len(offOrder))*run+build; got != want {
		t.Fatalf("%d concurrent off-order bindings scanned %d times, want %d: %d runs and one build", len(offOrder), got, want, len(offOrder))
	}
	if st := tpl.Stats(); st.Recompiles != 1 {
		t.Fatalf("%d recompiles, want 1", st.Recompiles)
	}
	checkAnswers()

	// A second append, then an off-order eval cut short at its n-th look
	// at the context, for n = 0, 1, … until one finishes: a side eval
	// recompiles first, so every cut lands in the off-order eval itself.
	// A cut before the build's end leaves nothing cached; once a build
	// has finished, its plan stays.
	if _, err := e.Append(appendedStmt(w, 5151)); err != nil {
		t.Fatal(err)
	}
	if err := eval(context.Background(), types.Int(9600)); err != nil {
		t.Fatal(err)
	}
	body = nil
	looks := 0
	for ; ; looks++ {
		ctx := &cancelAfter{Context: context.Background()}
		ctx.left.Store(int64(looks))
		err := eval(ctx, offOrder[0])
		if err == nil {
			break
		}
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("cut after %d looks: %v", looks, err)
		}
		// A cut after the build's end, in the binding's own run, keeps the
		// plan the build left.
		cached, ok := tpl.art.Load().fallback.Load()
		switch {
		case ok && cached == nil:
			t.Fatalf("cut after %d looks: an empty plan is cached", looks)
		case body == nil && ok:
			body = cached
		case body != nil && cached != body:
			t.Fatalf("cut after %d looks: the executed plan was built again", looks)
		}
	}
	if cached, _ := tpl.art.Load().fallback.Load(); body == nil {
		body = cached
	} else if cached != body {
		t.Fatal("the executed plan was built again")
	}
	// The cuts covered every look of a cold off-order eval; a warm one
	// looks fewer times, so at least one cut fell inside the build.
	warm := &cancelAfter{Context: context.Background()}
	warm.left.Store(1 << 40)
	if err := eval(warm, offOrder[1]); err != nil {
		t.Fatal(err)
	}
	if warmLooks := 1<<40 - warm.left.Load(); int64(looks) <= warmLooks {
		t.Fatalf("a cold off-order eval looked at its context %d times, a warm one %d: no cut fell inside the build", looks, warmLooks)
	}
	if again, _ := tpl.art.Load().fallback.Load(); again != body {
		t.Fatal("the executed plan was built twice")
	}
	checkAnswers()
}
