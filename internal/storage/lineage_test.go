package storage_test

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"github.com/mahif/mahif/internal/schema"
	"github.com/mahif/mahif/internal/sql"
	"github.com/mahif/mahif/internal/storage"
	"github.com/mahif/mahif/internal/types"
)

// lineageBase builds t(a int, b int, f float, s string, m int, nb int,
// c int) over n rows: a is the key, m mixes ints and strings (a boxed
// lane), and nb is NULL at a < 3 and nowhere else (a masked lane).
func lineageBase(n int) *storage.Database {
	r := storage.NewRelation(schema.New("t",
		schema.Col("a", types.KindInt), schema.Col("b", types.KindInt), schema.Col("f", types.KindFloat),
		schema.Col("s", types.KindString), schema.Col("m", types.KindInt), schema.Col("nb", types.KindInt),
		schema.Col("c", types.KindInt)))
	for i := 0; i < n; i++ {
		m := types.Int(int64(i % 5))
		if i%97 == 0 {
			m = types.String("odd")
		}
		nb := types.Int(int64(i % 11))
		if i < 3 {
			nb = types.Null()
		}
		r.Add(schema.Tuple{types.Int(int64(i)), types.Int(int64(i % 13)), types.Float(float64(i) / 4),
			types.String(fmt.Sprintf("s%d", i%9)), m, nb, types.Int(int64(i % 4))})
	}
	db := storage.NewDatabase()
	db.AddRelation(r)
	return db
}

// lineageStatement returns a random statement of the kinds a derived
// view must follow: one- and many-column SETs over a key range, a NULL
// written into an int, float or string lane (with or without a mask
// yet), the NULLs of nb written and all removed again, a float written
// into an int lane, a write into the boxed lane, DELETE, INSERT, and a
// rewrite of every row.
func lineageStatement(rng *rand.Rand, n int) string {
	lo, w, k := rng.Intn(n), 1+rng.Intn(n/20), rng.Intn(n)
	switch rng.Intn(10) {
	case 0:
		col := []string{"b", "c"}[k%2]
		return fmt.Sprintf(`UPDATE t SET %s = %s + 1 WHERE a >= %d AND a < %d`, col, col, lo, lo+w)
	case 1:
		return fmt.Sprintf(`UPDATE t SET b = b * 2, f = f + 0.5, s = 'x%d' WHERE a >= %d AND a < %d`, k%4, lo, lo+w)
	case 2:
		return fmt.Sprintf(`UPDATE t SET %s = NULL WHERE a = %d`, []string{"c", "f", "s"}[k%3], k)
	case 3:
		return `UPDATE t SET nb = NULL WHERE a < 3`
	case 4:
		return `UPDATE t SET nb = 1 WHERE a < 3`
	case 5:
		return fmt.Sprintf(`UPDATE t SET b = 2.5 WHERE a = %d`, k)
	case 6:
		return fmt.Sprintf(`UPDATE t SET m = 'q' WHERE a >= %d AND a < %d`, lo, lo+w)
	case 7:
		return fmt.Sprintf(`DELETE FROM t WHERE a = %d`, k)
	case 8:
		return fmt.Sprintf(`INSERT INTO t VALUES (%d, 1, 0.5, 'i', 3, 4, 5)`, n+k)
	}
	return fmt.Sprintf(`UPDATE t SET s = 'all%d' WHERE a >= 0`, k%3)
}

// sameCells reports whether two lanes of one kind hold the same cells,
// floats bit for bit.
func sameCells(a, b *storage.ColVec) bool {
	switch a.Kind {
	case types.KindInt:
		return reflect.DeepEqual(a.Ints, b.Ints)
	case types.KindFloat:
		if len(a.Floats) != len(b.Floats) {
			return false
		}
		for i := range a.Floats {
			if math.Float64bits(a.Floats[i]) != math.Float64bits(b.Floats[i]) {
				return false
			}
		}
		return true
	case types.KindString:
		return reflect.DeepEqual(a.Strs, b.Strs)
	}
	if len(a.Vals) != len(b.Vals) {
		return false
	}
	for i := range a.Vals {
		x, y := a.Vals[i], b.Vals[i]
		if x.Kind() != y.Kind() || !x.Equal(y) || x.String() != y.String() {
			return false
		}
	}
	return true
}

// requireSameView fails unless got is want lane for lane: the same
// kinds, cells, masks (nil-ness included) and NULL block summaries.
func requireSameView(t *testing.T, label string, got, want *storage.ColumnarView) {
	t.Helper()
	if got.Rows != want.Rows || len(got.Cols) != len(want.Cols) {
		t.Fatalf("%s: %d rows × %d columns, want %d × %d", label, got.Rows, len(got.Cols), want.Rows, len(want.Cols))
	}
	for c := range want.Cols {
		g, w := &got.Cols[c], &want.Cols[c]
		switch {
		case g.Kind != w.Kind:
			t.Fatalf("%s: column %d on lane %s, want %s", label, c, g.Kind, w.Kind)
		case (g.Nulls == nil) != (w.Nulls == nil) || !reflect.DeepEqual(g.Nulls, w.Nulls):
			t.Fatalf("%s: column %d mask %v, want %v", label, c, g.Nulls != nil, w.Nulls != nil)
		case !sameCells(g, w):
			t.Fatalf("%s: column %d cells differ", label, c)
		case !reflect.DeepEqual(got.NullBlocks()[c], want.NullBlocks()[c]):
			t.Fatalf("%s: column %d NULL blocks %v, want %v", label, c, got.NullBlocks()[c], want.NullBlocks()[c])
		}
	}
}

// sameLane reports whether two lanes share their backing array.
func sameLane(a, b *storage.ColVec) bool {
	switch a.Kind {
	case types.KindInt:
		return len(a.Ints) > 0 && len(b.Ints) > 0 && &a.Ints[0] == &b.Ints[0]
	case types.KindFloat:
		return len(a.Floats) > 0 && len(b.Floats) > 0 && &a.Floats[0] == &b.Floats[0]
	case types.KindString:
		return len(a.Strs) > 0 && len(b.Strs) > 0 && &a.Strs[0] == &b.Strs[0]
	}
	return len(a.Vals) > 0 && len(b.Vals) > 0 && &a.Vals[0] == &b.Vals[0]
}

// untouched reports whether column c holds the same cells in both row
// sets, position by position.
func untouched(a, b []schema.Tuple, c int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		x, y := a[i][c], b[i][c]
		if x.Kind() != y.Kind() || !x.Equal(y) || x.String() != y.String() {
			return false
		}
	}
	return true
}

// TestDerivedViewMatchesTranspose: over random histories, each snapshot
// replayed from a cached one is asked for its view, which is derived
// from the start's lanes whenever the replay leaves at most half of the
// rows changed. Every view is BuildColumnar's lane for lane, and a
// derived view's untouched columns are the start's lanes themselves.
// Some versions are skipped (a replay of several statements, a DELETE
// and an INSERT that keep the length among them) and some snapshots are
// never asked for their view (the next replay starts from a relation
// without one and transposes).
func TestDerivedViewMatchesTranspose(t *testing.T) {
	const n, steps = 2500, 60
	trials := 6
	if testing.Short() {
		trials = 2
	}
	derived := int64(0)
	for trial := 0; trial < trials; trial++ {
		rng := rand.New(rand.NewSource(int64(trial) + 1))
		v := storage.NewVersioned(lineageBase(n))
		for k := 0; k < steps; k++ {
			if err := v.Apply(sql.MustParseStatement(lineageStatement(rng, n))); err != nil {
				t.Fatal(err)
			}
		}
		c := storage.NewSnapshotCache(v)
		c.SetLimit(0)
		var start *storage.Relation // the last snapshot asked for, where the next replay starts
		var startView *storage.ColumnarView
		for ver := 0; ver < steps; ver++ {
			if ver > 0 && rng.Intn(4) == 0 {
				continue // not asked for: the next replay covers this statement too
			}
			snap, err := c.SnapshotCtx(context.Background(), ver)
			if err != nil {
				t.Fatal(err)
			}
			rel, _ := snap.Relation("t")
			label := fmt.Sprintf("trial %d version %d", trial, ver)
			if rng.Intn(5) == 0 {
				start, startView = rel, nil // a start without a built view
				continue
			}
			before := c.ColumnarDerived()
			got, err := rel.SharedColumnar()
			if err != nil {
				t.Fatal(err)
			}
			requireSameView(t, label, got, storage.BuildColumnar(rel))
			if c.ColumnarDerived() > before {
				derived++
				if startView == nil {
					t.Fatalf("%s: derived from a start without a view", label)
				}
				for col := range got.Cols {
					if untouched(start.Tuples, rel.Tuples, col) && !sameLane(&got.Cols[col], &startView.Cols[col]) {
						t.Fatalf("%s: untouched column %d was copied, not aliased from the start's lane", label, col)
					}
				}
			}
			start, startView = rel, got
		}
	}
	if derived == 0 {
		t.Fatal("no view was derived: the lineage never applied")
	}
}

// probeLog counts how replays applied the statements of a history.
type probeLog struct {
	plain, indexed int
	built          bool // an indexed apply left an index behind
}

// replayProbe wraps a statement and records into log how it is applied:
// plainly (Apply, or ApplyIndexed without a set) or with an index set.
type replayProbe struct {
	storage.Mutator
	log *probeLog
}

func (p replayProbe) Apply(db *storage.Database) error {
	p.log.plain++
	return p.Mutator.Apply(db)
}

func (p replayProbe) ApplyIndexed(db *storage.Database, ix *storage.IndexSet) error {
	if ix == nil {
		p.log.plain++
		return p.Mutator.ApplyIndexed(db, nil)
	}
	p.log.indexed++
	err := p.Mutator.ApplyIndexed(db, ix)
	p.log.built = p.log.built || ix.Epoch() > 0
	return err
}

// TestShortReplayScans: a replay of fewer than ⌈log₂ n⌉ statements
// passes no index set and applies each statement plainly (the scan
// plan); one of ⌈log₂ n⌉ statements keeps its private index set and
// builds the index its range predicates bind. Either way the state is
// the one plain Apply reaches.
func TestShortReplayScans(t *testing.T) {
	n := 2 * storage.MinIndexRows // ⌈log₂ 512⌉ = 9
	const long = 9
	base := sharedBase(n)
	v := storage.NewVersioned(base)
	var stmts []storage.Mutator
	log := &probeLog{}
	for k := 0; k <= long; k++ {
		m := replayProbe{sql.MustParseStatement(fmt.Sprintf(`UPDATE t SET b = b + %d WHERE a >= %d AND a < %d`, k+1, 40*k, 40*k+25)), log}
		if err := v.Apply(m); err != nil {
			t.Fatal(err)
		}
		stmts = append(stmts, m)
	}
	for _, tc := range []struct {
		ver     int
		indexed bool
	}{{1, false}, {long - 1, false}, {long, true}} {
		*log = probeLog{}
		snap, err := storage.NewSnapshotCache(v).SnapshotCtx(context.Background(), tc.ver) // replayed from the base
		if err != nil {
			t.Fatal(err)
		}
		want := probeLog{plain: tc.ver}
		if tc.indexed {
			want = probeLog{indexed: tc.ver, built: true}
		}
		if *log != want {
			t.Fatalf("replay of %d statements over %d rows: %+v, want %+v", tc.ver, n, *log, want)
		}
		applied := base.Clone()
		for _, m := range stmts[:tc.ver] {
			if err := m.Apply(applied); err != nil {
				t.Fatal(err)
			}
		}
		requireSameRows(t, fmt.Sprintf("version %d", tc.ver), rowsOf(t, snap), rowsOf(t, applied))
	}
}

// TestDerivedViewsUnderConcurrentReaders (run under -race): goroutines
// walk adjacent versions through a small cache, each asking for every
// snapshot's view and reading all of its lanes, so a miss derives its
// view from a start whose view another goroutine is building or
// reading. Every view must be BuildColumnar's.
func TestDerivedViewsUnderConcurrentReaders(t *testing.T) {
	const n, steps, walkers = 1500, 24, 4
	rng := rand.New(rand.NewSource(7))
	v := storage.NewVersioned(lineageBase(n))
	for k := 0; k < steps; k++ {
		if err := v.Apply(sql.MustParseStatement(lineageStatement(rng, n))); err != nil {
			t.Fatal(err)
		}
	}
	c := storage.NewSnapshotCache(v)
	c.SetLimit(6)
	var wg sync.WaitGroup
	errs := make(chan error, walkers)
	for g := 0; g < walkers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for step := 0; step < 2*steps; step++ {
				ver := (g*3 + step) % steps
				snap, err := c.SnapshotCtx(context.Background(), ver)
				if err != nil {
					errs <- err
					return
				}
				rel, _ := snap.Relation("t")
				got, err := rel.SharedColumnar()
				if err != nil {
					errs <- err
					return
				}
				if want := storage.BuildColumnar(rel); !reflect.DeepEqual(got, want) {
					errs <- fmt.Errorf("walker %d: version %d's view differs from BuildColumnar's", g, ver)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if c.ColumnarDerived() == 0 {
		t.Error("no view was derived")
	}
}
