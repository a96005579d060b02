package progslice

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"github.com/mahif/mahif/internal/compile"
	"github.com/mahif/mahif/internal/expr"
	"github.com/mahif/mahif/internal/history"
	"github.com/mahif/mahif/internal/symbolic"
	"github.com/mahif/mahif/internal/workload"
)

// fanOutCorpus is the fuzz grammar's seed corpus plus two slice_heavy
// shaped Taxi runs (75 positions, half dependent), which give every
// worker many tests.
func fanOutCorpus(t *testing.T) []*Input {
	t.Helper()
	var ins []*Input
	for _, seed := range []int64{1, 2, 3, 42, 1234, 987654321, 7, 99, 2024, 31337, 55555, 424242, 8675309, 1 << 40} {
		ins = append(ins, fuzzInput(t, rand.New(rand.NewSource(seed))))
	}
	for _, seed := range []int64{3, 4} {
		w, err := workload.Generate(workload.Taxi(1000, 1), workload.Config{
			Updates: 75, Mods: 1, DependentPct: 50, AffectedPct: 10, Seed: seed,
		})
		if err != nil {
			t.Fatal(err)
		}
		pair, err := history.ApplyModifications(w.History, w.Mods)
		if err != nil {
			t.Fatal(err)
		}
		phiD, err := symbolic.Compress(w.Dataset.Rel, symbolic.CompressOptions{})
		if err != nil {
			t.Fatal(err)
		}
		ins = append(ins, &Input{Pair: pair, Schema: w.Dataset.Rel.Schema, PhiD: phiD})
	}
	return ins
}

// runWithProcs runs DependencyCtx with GOMAXPROCS set to procs and a
// memo of its own.
func runWithProcs(t *testing.T, in *Input, procs int) *Result {
	t.Helper()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	run := *in
	run.Compile.Memo = compile.NewMemo()
	res, err := DependencyCtx(context.Background(), &run)
	if err != nil {
		t.Fatal(err)
	}
	res.Stats.Duration = 0
	return res
}

// TestDependencyFanOutMatchesSequential: a run's tests solved on four
// workers keep what one worker keeps, with the same effort counted.
func TestDependencyFanOutMatchesSequential(t *testing.T) {
	for i, in := range fanOutCorpus(t) {
		one, four := runWithProcs(t, in, 1), runWithProcs(t, in, 4)
		if fmt.Sprint(one.Keep) != fmt.Sprint(four.Keep) || one.Stats != four.Stats {
			t.Fatalf("input %d: one worker kept %v with %+v; four kept %v with %+v", i, one.Keep, one.Stats, four.Keep, four.Stats)
		}
	}
}

// cancelAfter is a context that reports itself cancelled once its Err
// has been called left times: the run asks before each test and the
// solver at every node, so a run is cut in the middle of its tests.
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

// TestDependencyCancelledMidRun: a run cancelled while its tests are in
// flight on several workers returns ctx.Err(), leaves only finished
// outcomes in the memo, and a later run on that memo answers as a run on
// an empty one does.
func TestDependencyCancelledMidRun(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	ins := fanOutCorpus(t)
	in := ins[len(ins)-1]
	want := runWithProcs(t, in, 4)
	if want.Stats.Tests < 20 {
		t.Fatalf("only %d tests: too few to cancel mid-run", want.Stats.Tests)
	}
	// Count the Err calls of a whole run, then cut runs short of it.
	count := &cancelAfter{Context: context.Background()}
	count.left.Store(1 << 40)
	run := *in
	run.Compile.Memo = compile.NewMemo()
	if _, err := DependencyCtx(count, &run); err != nil {
		t.Fatal(err)
	}
	calls := 1<<40 - count.left.Load()
	for _, after := range []int64{0, calls / 10, calls / 2, calls * 9 / 10} {
		memo := compile.NewMemo()
		run := *in
		run.Compile.Memo = memo
		ctx := &cancelAfter{Context: context.Background()}
		ctx.left.Store(after)
		if _, err := DependencyCtx(ctx, &run); !errors.Is(err, context.Canceled) {
			t.Fatalf("cancelled after %d checks: err = %v", after, err)
		}
		// A build that failed is not an entry and not a miss: every entry
		// is a solve that finished.
		if _, misses := memo.Stats(); int(misses) != memo.Len() {
			t.Fatalf("cancelled after %d checks: %d builds completed, %d entries", after, misses, memo.Len())
		}
		res, err := DependencyCtx(context.Background(), &run)
		if err != nil {
			t.Fatal(err)
		}
		if fmt.Sprint(res.Keep) != fmt.Sprint(want.Keep) || res.Stats.Tests != want.Stats.Tests || res.Stats.SolverNodes != want.Stats.SolverNodes {
			t.Fatalf("cancelled after %d checks, then rerun: kept %v (%d tests, %d nodes), want %v (%d, %d)",
				after, res.Keep, res.Stats.Tests, res.Stats.SolverNodes, want.Keep, want.Stats.Tests, want.Stats.SolverNodes)
		}
	}
}

// TestDependencyMemoSharedAcrossSuffixes is an append seen by the
// slicer: two dependency runs over one history, the second with k
// independent statements appended, share one memo. The longer run's
// kind map holds the appended statements' fresh variables, which no
// test of the shorter run mentions, so every question of the shorter
// run keeps its key and the two runs together solve exactly what the
// longer run solves alone — in order, and concurrently on four workers
// each. Both keep what they keep on a memo of their own.
func TestDependencyMemoSharedAcrossSuffixes(t *testing.T) {
	w, err := workload.Generate(workload.Taxi(1000, 1), workload.Config{
		Updates: 40, Mods: 1, DependentPct: 50, AffectedPct: 10, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	phiD, err := symbolic.Compress(w.Dataset.Rel, symbolic.CompressOptions{})
	if err != nil {
		t.Fatal(err)
	}
	input := func(h history.History) *Input {
		pair, err := history.ApplyModifications(h, w.Mods)
		if err != nil {
			t.Fatal(err)
		}
		return &Input{Pair: pair, Schema: w.Dataset.Rel.Schema, PhiD: phiD}
	}
	long := append(history.History{}, w.History...)
	for k := range 5 {
		lo := int64(1000*k + 17)
		long = append(long, &history.Update{
			Rel: w.Dataset.Rel.Schema.Relation,
			Set: []history.SetClause{{Col: "extras", E: expr.Add(expr.Column("extras"), expr.FloatConst(1))}},
			Where: expr.AndOf(
				expr.Lt(expr.Column(w.Dataset.SelAttr), expr.IntConst(9000)),
				expr.Ge(expr.Column(w.Dataset.SelAttr2), expr.IntConst(lo)),
				expr.Lt(expr.Column(w.Dataset.SelAttr2), expr.IntConst(lo+5)),
			),
		})
	}
	run := func(in *Input, memo *compile.Memo) (*Result, error) {
		r := *in
		r.Compile.Memo = memo
		return DependencyCtx(context.Background(), &r)
	}
	runs := []*Input{input(w.History), input(long)}
	want := []*Result{runWithProcs(t, runs[0], 1), runWithProcs(t, runs[1], 1)}
	alone := compile.NewMemo()
	if _, err := run(runs[1], alone); err != nil {
		t.Fatal(err)
	}
	_, distinct := alone.Stats()
	if want[1].Stats.Tests <= want[0].Stats.Tests {
		t.Fatalf("the appended run has %d tests, the short one %d", want[1].Stats.Tests, want[0].Stats.Tests)
	}

	check := func(label string, memo *compile.Memo, got []*Result) {
		t.Helper()
		for i, res := range got {
			if fmt.Sprint(res.Keep) != fmt.Sprint(want[i].Keep) || res.Stats.Tests != want[i].Stats.Tests ||
				res.Stats.SolverNodes != want[i].Stats.SolverNodes || res.Stats.Indefinite != want[i].Stats.Indefinite {
				t.Fatalf("%s, run %d: kept %v with %+v, want %v with %+v", label, i, res.Keep, res.Stats, want[i].Keep, want[i].Stats)
			}
		}
		if _, misses := memo.Stats(); misses != distinct {
			t.Fatalf("%s: the two runs solved %d questions, the longer one alone %d", label, misses, distinct)
		}
	}

	memo := compile.NewMemo()
	got := make([]*Result, 2)
	for i, in := range runs {
		if got[i], err = run(in, memo); err != nil {
			t.Fatal(err)
		}
	}
	check("in order", memo, got)

	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	for round := range 3 {
		memo := compile.NewMemo()
		errs := make([]error, 2)
		var wg sync.WaitGroup
		for i, in := range runs {
			wg.Add(1)
			go func() {
				defer wg.Done()
				got[i], errs[i] = run(in, memo)
			}()
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				t.Fatal(err)
			}
		}
		check(fmt.Sprintf("concurrent round %d", round), memo, got)
	}
}
