package history

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"github.com/mahif/mahif/internal/expr"
	"github.com/mahif/mahif/internal/schema"
	"github.com/mahif/mahif/internal/storage"
	"github.com/mahif/mahif/internal/types"
)

// randomIndexedCond generates WHERE conditions that stress the indexed
// apply planner specifically: certified single- and multi-column
// constraints (equality and range probes of one ordered index, the most
// selective column chosen), contradictions, class mismatches, constant
// and NULL-constant conjuncts, Ne, NaN constants and a NaN-bearing
// column, and shapes outside the indexable subset (Or, IsNull,
// arithmetic, NULL and non-boolean constants, TRUE) that must take the
// scan plan.
func randomIndexedCond(rng *rand.Rand) expr.Expr {
	k, v, g := expr.Column("k"), expr.Column("v"), expr.Column("g")
	ic := func(n int) *expr.Const { return expr.IntConst(int64(n)) }
	grp := func() *expr.Const { return expr.StringConst([]string{"a", "b", "c"}[rng.Intn(3)]) }
	nan := expr.FloatConst(math.NaN())
	cmps := []func(l, r expr.Expr) *expr.Cmp{expr.Eq, expr.Ge, expr.Gt, expr.Le, expr.Lt}
	switch rng.Intn(21) {
	case 18: // NaN constant: Compare ties it with every number
		return cmps[rng.Intn(len(cmps))](k, nan)
	case 19: // NaN cells: f holds a NaN every 10th row
		return cmps[rng.Intn(len(cmps))](expr.Column("f"), ic(rng.Intn(40)))
	case 20: // contradiction ahead of a conjunct that errors where v = 0
		c := rng.Intn(40)
		return expr.AndOf(expr.Eq(k, ic(c)), expr.Eq(k, ic(c+1)), expr.Gt(expr.Div(ic(100), v), ic(0)))
	case 14: // col ∘ NULL conjunct: θ is never true, and NULL under DELETE
		return expr.AndOf(expr.Eq(k, expr.Constant(types.Null())), expr.Ge(v, ic(rng.Intn(40))))
	case 15: // non-boolean constant conjunct: errors on rows that reach it
		return expr.AndOf(expr.Eq(k, ic(rng.Intn(40))), ic(1))
	case 16: // opaque first conjunct ahead of an indexable one
		return expr.AndOf(expr.Ge(expr.Add(v, ic(0)), ic(rng.Intn(40))), expr.Eq(k, ic(rng.Intn(40))))
	case 17:
		return expr.True
	case 0: // equality probe
		return expr.Eq(k, ic(rng.Intn(40)))
	case 1: // ordered range probe
		return []func(l, r expr.Expr) *expr.Cmp{expr.Ge, expr.Gt, expr.Le, expr.Lt}[rng.Intn(4)](v, ic(rng.Intn(40)))
	case 2: // string equality probe
		return expr.Eq(g, grp())
	case 3: // multi-column: the most selective column drives the probe
		return expr.AndOf(expr.Eq(k, ic(rng.Intn(40))), expr.Ge(v, ic(rng.Intn(40))))
	case 4: // triple conjunction, mixed classes
		return expr.AndOf(expr.Eq(g, grp()), expr.Lt(k, ic(rng.Intn(40))), expr.Gt(v, ic(rng.Intn(20))))
	case 5: // contradiction via equalities: the probe returns the NULL rows alone
		c := rng.Intn(40)
		return expr.AndOf(expr.Eq(k, ic(c)), expr.Eq(k, ic(c+1)))
	case 6: // contradiction via an empty range
		return expr.AndOf(expr.Ge(v, ic(30)), expr.Lt(v, ic(5)))
	case 7: // class mismatch: int column against a string constant
		return expr.Eq(k, expr.StringConst("x"))
	case 8: // constant conjunct, sometimes false
		return expr.AndOf(expr.BoolConst(rng.Intn(2) == 0), expr.Eq(k, ic(rng.Intn(40))))
	case 9: // NULL constant: both paths must reject the statement alike
		return expr.Eq(k, expr.Constant(types.Null()))
	case 10: // Ne keeps the prefix certified but narrows nothing
		return expr.AndOf(expr.Ne(k, ic(rng.Intn(40))), expr.Ge(v, ic(rng.Intn(40))))
	case 11: // disjunction: outside the indexable subset
		return expr.OrOf(expr.Eq(k, ic(rng.Intn(40))), expr.Lt(v, ic(rng.Intn(15))))
	case 12: // IS NULL conjunct: kernel evaluation over NULL-keyed rows
		return expr.AndOf(expr.Ge(k, ic(rng.Intn(40))), &expr.IsNull{E: v})
	default: // arithmetic comparand: not a simple col∘const conjunct
		return expr.Ge(expr.Add(k, v), ic(rng.Intn(60)))
	}
}

// randomIndexedStatement biases toward UPDATE/DELETE (the statements the
// indexed path accelerates) and includes SETs that touch indexed
// predicate columns, forcing the NoteReplace maintenance path, and an
// insert of a NaN key, which must drop k's index.
func randomIndexedStatement(rng *rand.Rand, i int) Statement {
	switch rng.Intn(11) {
	case 10: // enough rows to merge k's delta into its sorted run, one with a NaN key
		rows := []schema.Tuple{schema.NewTuple(types.Float(math.NaN()), types.Int(int64(rng.Intn(40))), types.String("a"), types.Float(1))}
		for len(rows) < 100 {
			rows = append(rows, schema.NewTuple(types.Int(int64(rng.Intn(40))), types.Int(int64(rng.Intn(40))), types.String("b"), types.Float(2)))
		}
		return &InsertValues{Rel: "r", Rows: rows}
	case 0:
		return &Delete{Rel: "r", Where: randomIndexedCond(rng)}
	case 1:
		return &InsertValues{Rel: "r", Rows: []schema.Tuple{
			schema.NewTuple(types.Int(int64(rng.Intn(40))), types.Int(int64(rng.Intn(40))), types.String("a"), floatCell(i)),
			schema.NewTuple(types.Int(int64(rng.Intn(40))), types.Null(), types.String("b"), types.Float(math.NaN())),
		}}
	case 2: // SET on a predicate column: the rewrite moves indexed keys
		return &Update{Rel: "r",
			Set:   []SetClause{{Col: "k", E: expr.Add(expr.Column("k"), expr.IntConst(1))}},
			Where: randomIndexedCond(rng)}
	case 3: // multi-column SET crossing predicate and payload columns
		return &Update{Rel: "r",
			Set: []SetClause{
				{Col: "v", E: expr.IntConst(int64(rng.Intn(25)))},
				{Col: "g", E: expr.StringConst("z")},
			},
			Where: randomIndexedCond(rng)}
	default: // payload-only SET: the in-place fast path
		return &Update{Rel: "r",
			Set:   []SetClause{{Col: "v", E: expr.Add(expr.Column("v"), expr.IntConst(int64(1+rng.Intn(5))))}},
			Where: randomIndexedCond(rng)}
	}
}

// TestIndexedApplyEquivalence is the indexed-application property: for
// randomized histories over relations large enough to build indexes,
// applying each statement through ApplyIndexed with a
// persistent IndexSet (delta maintenance across statements, exactly the
// tip's regime) and through the reference loops yields identical states
// after every statement and identical error behavior. Relations below
// MinIndexRows keep the decline-to-index fallback honest.
func TestIndexedApplyEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	trials := 30
	if testing.Short() {
		trials = 8
	}
	for trial := 0; trial < trials; trial++ {
		rows := []int{40, 300, 700, 1023, 1025, 2100}[rng.Intn(6)]
		base := randomApplyDB(rng, rows)
		naiveDB := base.Clone()
		fastDB := base.Clone()
		ix := storage.NewIndexSet()
		for i := 0; i < 12; i++ {
			st := randomIndexedStatement(rng, i)
			before := naiveDB.Clone()
			errN := applyNaiveStatement(t, st, naiveDB)
			errF := st.ApplyIndexed(fastDB, ix)
			if (errN == nil) != (errF == nil) {
				t.Fatalf("trial %d rows %d: error divergence on %s: naive=%v indexed=%v",
					trial, rows, st, errN, errF)
			}
			if errN != nil {
				// Rejected statements never enter a log; restore both
				// sides to the pre-statement state and keep going so one
				// rejection doesn't end the trial.
				naiveDB, fastDB = before, before.Clone()
				ix = storage.NewIndexSet()
				continue
			}
			requireDatabasesEqual(t, fmt.Sprintf("trial %d rows %d after %s", trial, rows, st), naiveDB, fastDB)
		}
	}
}

// TestIndexedApplyAllVersionPositions pins the full versioned pipeline
// with tip indexing on: every version of a random history reconstructed
// by time travel (whose replay runs the indexed path against a
// replay-private IndexSet) must equal naive ground truth at every
// position.
func TestIndexedApplyAllVersionPositions(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 8; trial++ {
		base := randomApplyDB(rng, 320)
		vdb := storage.NewVersioned(base)
		states := []*storage.Database{base.Clone()}
		cur := base.Clone()
		for i := 0; i < 8; i++ {
			st := randomIndexedStatement(rng, i)
			next := cur.Clone()
			if err := applyNaiveStatement(t, st, next); err != nil {
				continue
			}
			if err := vdb.Apply(st); err != nil {
				t.Fatalf("trial %d: versioned apply of %s: %v", trial, st, err)
			}
			cur = next
			states = append(states, cur.Clone())
		}
		for ver := 0; ver < len(states); ver++ {
			got, err := vdb.Version(ver)
			if err != nil {
				t.Fatalf("trial %d: version %d: %v", trial, ver, err)
			}
			requireDatabasesEqual(t, fmt.Sprintf("trial %d version %d", trial, ver), states[ver], got)
		}
	}
}

// TestIndexedApplyUnderConcurrentReaders appends through the indexed
// tip while snapshot readers time-travel concurrently — under -race
// this is the shared-state safety test for in-place application: every
// shared view is a deep clone, so no reader may ever observe a rewrite.
// Each reader re-reads a version it captured earlier and requires the
// rows to be identical, in order and NaN for NaN, which would fail if a snapshot aliased tuples
// the writer mutates.
func TestIndexedApplyUnderConcurrentReaders(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	base := randomApplyDB(rng, 320)
	vdb := storage.NewVersioned(base)
	cache := storage.NewSnapshotCache(vdb)

	// Pre-generate the history so the writer goroutine owns rng.
	var stmts []Statement
	ground := base.Clone()
	for i := 0; len(stmts) < 60; i++ {
		st := randomIndexedStatement(rng, i)
		probe := ground.Clone()
		if err := applyNaiveStatement(t, st, probe); err != nil {
			continue
		}
		ground = probe
		stmts = append(stmts, st)
	}

	var wg sync.WaitGroup
	errs := make(chan error, 16)
	stop := make(chan struct{})
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			lrng := rand.New(rand.NewSource(int64(100 + g)))
			var pinVer int
			var pinned *storage.Database
			for n := 0; ; n++ {
				select {
				case <-stop:
					return
				default:
				}
				ver, snap := vdb.TipSnapshot()
				if lrng.Intn(2) == 0 && ver > 0 {
					v := lrng.Intn(ver + 1)
					var err error
					if snap, err = cache.SnapshotCtx(context.Background(), v); err != nil {
						errs <- err
						return
					}
					ver = v
				}
				if pinned == nil {
					pinVer, pinned = ver, snap
					continue
				}
				// A version's state is immutable forever: re-reading the
				// pinned version must reproduce the exact tuples captured
				// while the writer was elsewhere in the history.
				re, err := vdb.Version(pinVer)
				if err != nil {
					errs <- err
					return
				}
				for _, name := range pinned.RelationNames() {
					pr, _ := pinned.Relation(name)
					rr, _ := re.Relation(name)
					if !slices.EqualFunc(pr.Tuples, rr.Tuples, sameTuple) {
						errs <- fmt.Errorf("reader %d: version %d changed between reads", g, pinVer)
						return
					}
				}
				pinVer, pinned = ver, snap
			}
		}(g)
	}
	for _, st := range stmts {
		if err := vdb.Apply(st); err != nil {
			t.Fatalf("apply %s: %v", st, err)
		}
	}
	close(stop)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	final, err := vdb.Version(len(stmts))
	if err != nil {
		t.Fatal(err)
	}
	requireDatabasesEqual(t, "final state", ground, final)
}

// errorProneDB builds relation r at index-building scale with
// controlled payloads: k = i, v = i+1 except v = 0 at row zeroAt, g =
// "a" everywhere. A division by v errors mid-relation, after hundreds
// of earlier rows have already qualified and evaluated.
func errorProneDB(rows, zeroAt int) *storage.Database {
	db := storage.NewDatabase()
	r := storage.NewRelation(schema.New("r", applyCols()...))
	for i := 0; i < rows; i++ {
		v := int64(i + 1)
		if i == zeroAt {
			v = 0
		}
		r.Add(schema.NewTuple(types.Int(int64(i)), types.Int(v), types.String("a"), types.Float(float64(i))))
	}
	db.AddRelation(r)
	return db
}

// TestIndexedApplyErrorRollsBack pins the all-or-nothing guarantee of
// the indexed apply path: an evaluation error mid-relation, after
// earlier qualified rows evaluated cleanly — past 1024 candidates,
// whole earlier batches of them — must leave the state byte-for-byte
// untouched. A failed statement never enters the history, so the tip
// must stay exactly the pre-statement state.
func TestIndexedApplyErrorRollsBack(t *testing.T) {
	whereA := func() expr.Expr { return expr.Eq(expr.Column("g"), expr.StringConst("a")) }
	divByV := func() expr.Expr { return expr.Div(expr.IntConst(100), expr.Column("v")) }
	cases := []struct {
		name         string
		rows, zeroAt int
		st           Statement
	}{
		{"single SET, exact plan", 600, 400, &Update{Rel: "r",
			Set:   []SetClause{{Col: "v", E: divByV()}},
			Where: whereA()}},
		{"multi SET, error after first column written", 600, 400, &Update{Rel: "r",
			Set: []SetClause{
				{Col: "k", E: expr.Add(expr.Column("k"), expr.IntConst(1))},
				{Col: "v", E: divByV()},
			},
			Where: whereA()}},
		{"residual predicate error after earlier writes", 600, 400, &Update{Rel: "r",
			Set:   []SetClause{{Col: "v", E: expr.Add(expr.Column("v"), expr.IntConst(1))}},
			Where: expr.AndOf(whereA(), expr.Ge(divByV(), expr.IntConst(0)))}},
		{"single SET, error past the first 1024 candidates", 2100, 1500, &Update{Rel: "r",
			Set:   []SetClause{{Col: "v", E: divByV()}},
			Where: whereA()}},
		{"residual predicate error past the first 1024 candidates", 2100, 1500, &Update{Rel: "r",
			Set:   []SetClause{{Col: "v", E: expr.Add(expr.Column("v"), expr.IntConst(1))}},
			Where: expr.AndOf(whereA(), expr.Ge(divByV(), expr.IntConst(0)))}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			db := errorProneDB(tc.rows, tc.zeroAt)
			ix := storage.NewIndexSet()
			// Build the index on g through a no-op delete so the
			// failing statement probes a maintained index rather than
			// triggering the first build itself.
			warm := &Delete{Rel: "r", Where: expr.Eq(expr.Column("g"), expr.StringConst("zzz"))}
			if err := warm.ApplyIndexed(db, ix); err != nil {
				t.Fatalf("warm-up delete: %v", err)
			}
			want := db.Clone()
			if err := tc.st.ApplyIndexed(db, ix); err == nil {
				t.Fatalf("expected a mid-relation evaluation error from %s", tc.st)
			}
			requireDatabasesEqual(t, "state after failed statement", want, db)
			// The store and index set must stay fully usable after the
			// rollback: a follow-up statement still matches the oracle.
			good := &Update{Rel: "r",
				Set:   []SetClause{{Col: "v", E: expr.Add(expr.Column("v"), expr.IntConst(7))}},
				Where: whereA()}
			naive := want.Clone()
			if err := applyNaiveStatement(t, good, naive); err != nil {
				t.Fatalf("oracle follow-up: %v", err)
			}
			if err := good.ApplyIndexed(db, ix); err != nil {
				t.Fatalf("indexed follow-up: %v", err)
			}
			requireDatabasesEqual(t, "follow-up after rollback", naive, db)
		})
	}
}

// TestIndexedApplyScanPlanKeepsIndexes pins that a statement no index
// answers leaves the index set intact: an UPDATE behind an opaque first
// conjunct that SETs an unindexed column takes the scan plan between
// two indexed statements, the availability epoch does not move, and
// every state matches the reference loops.
func TestIndexedApplyScanPlanKeepsIndexes(t *testing.T) {
	db := randomApplyDB(rand.New(rand.NewSource(5)), 2100)
	naive := db.Clone()
	ix := storage.NewIndexSet()
	k := expr.Column("k")
	stmts := []Statement{
		&Update{Rel: "r",
			Set:   []SetClause{{Col: "g", E: expr.StringConst("x")}},
			Where: expr.Eq(k, expr.IntConst(5))},
		&Update{Rel: "r",
			Set:   []SetClause{{Col: "v", E: expr.Add(expr.Column("v"), expr.IntConst(3))}},
			Where: expr.AndOf(expr.Ge(expr.Add(k, expr.IntConst(0)), expr.IntConst(20)), expr.Ne(k, expr.IntConst(30)))},
		&Delete{Rel: "r", Where: expr.Eq(k, expr.IntConst(7))},
	}
	var epoch uint64
	for i, st := range stmts {
		if err := applyNaiveStatement(t, st, naive); err != nil {
			t.Fatalf("oracle %s: %v", st, err)
		}
		if err := st.ApplyIndexed(db, ix); err != nil {
			t.Fatalf("indexed %s: %v", st, err)
		}
		requireDatabasesEqual(t, fmt.Sprintf("after %s", st), naive, db)
		if i > 0 && ix.Epoch() != epoch {
			t.Fatalf("%s moved the index epoch %d → %d", st, epoch, ix.Epoch())
		}
		epoch = ix.Epoch()
	}
}

// TestIndexedApplySeqUnsafeSetVector pins why the indexed path stages
// before it writes: the reference loop evaluates the whole SET vector
// against the pre-update tuple, so a SET expression reading a column
// an earlier SET clause writes must see the original value.
func TestIndexedApplySeqUnsafeSetVector(t *testing.T) {
	db := errorProneDB(600, 400)
	naive := db.Clone()
	ix := storage.NewIndexSet()
	st := &Update{Rel: "r",
		Set: []SetClause{
			{Col: "k", E: expr.Add(expr.Column("k"), expr.IntConst(1))},
			// Reads k, which the clause above rewrites first in column
			// order: must still see the original k.
			{Col: "v", E: expr.Add(expr.Column("k"), expr.IntConst(1000))},
		},
		Where: expr.Eq(expr.Column("g"), expr.StringConst("a"))}
	if err := applyNaiveStatement(t, st, naive); err != nil {
		t.Fatalf("oracle: %v", err)
	}
	if err := st.ApplyIndexed(db, ix); err != nil {
		t.Fatalf("indexed: %v", err)
	}
	requireDatabasesEqual(t, "seq-unsafe SET vector", naive, db)
}
