package storage_test

import (
	"context"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"github.com/mahif/mahif/internal/schema"
	"github.com/mahif/mahif/internal/sql"
	"github.com/mahif/mahif/internal/storage"
	"github.com/mahif/mahif/internal/types"
)

// sharedBase builds t(a, b) with rows (i, i%7) for i < n.
func sharedBase(n int) *storage.Database {
	r := storage.NewRelation(schema.New("t", schema.Col("a", types.KindInt), schema.Col("b", types.KindInt)))
	for i := 0; i < n; i++ {
		r.Add(schema.Tuple{types.Int(int64(i)), types.Int(int64(i % 7))})
	}
	db := storage.NewDatabase()
	db.AddRelation(r)
	return db
}

func rowsOf(t *testing.T, db *storage.Database) []schema.Tuple {
	t.Helper()
	r, err := db.Relation("t")
	if err != nil {
		t.Fatal(err)
	}
	return r.Tuples
}

// requireSameRows fails unless got and want hold equal rows in the same
// order.
func requireSameRows(t *testing.T, label string, got, want []schema.Tuple) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d rows, want %d", label, len(got), len(want))
	}
	for i := range got {
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Fatalf("%s: row %d = %v, want %v", label, i, got[i], want[i])
		}
	}
}

// requireShares checks row identity between a replayed snapshot and the
// state its replay started from: snapshot row j must be the start
// state's tuple from[j] (the same backing array), and a row with
// from[j] < 0 — one the statement wrote — must be no start-state tuple.
func requireShares(t *testing.T, label string, snap, start []schema.Tuple, from []int) {
	t.Helper()
	if len(snap) != len(from) {
		t.Fatalf("%s: %d rows, want %d", label, len(snap), len(from))
	}
	owned := make(map[*types.Value]bool, len(start))
	for _, row := range start {
		owned[&row[0]] = true
	}
	for j, row := range snap {
		switch at := from[j]; {
		case at >= 0 && &row[0] != &start[at][0]:
			t.Fatalf("%s: untouched row %d %v is a copy of the start state's row %d, not the row itself", label, j, row, at)
		case at < 0 && owned[&row[0]]:
			t.Fatalf("%s: written row %d %v is a start-state tuple", label, j, row)
		}
	}
}

// TestSnapshotReplaySharesUntouchedRows pins time travel's row sharing:
// a replay onto a published state copies its row slice, keeps the rows
// its statement leaves alone, writes the rows it changes as fresh
// tuples, and so leaves the state it started from exactly as it was.
// Each statement kind replays from a cached snapshot, itself replayed
// from the base, over a relation large enough for the replay to index.
func TestSnapshotReplaySharesUntouchedRows(t *testing.T) {
	n := 2 * storage.MinIndexRows
	const prep = `UPDATE t SET b = b + 1 WHERE a >= 500`
	identity := func(m int) []int {
		from := make([]int, m)
		for j := range from {
			from[j] = j
		}
		return from
	}
	// appended returns identity over the first n rows and k new rows.
	appended := func(k int) []int {
		from := identity(n + k)
		for j := n; j < n+k; j++ {
			from[j] = -1
		}
		return from
	}
	// rewritten returns identity with the first k rows written.
	rewritten := func(k int) []int {
		from := identity(n)
		for j := 0; j < k; j++ {
			from[j] = -1
		}
		return from
	}
	cases := []struct {
		name, stmt string
		from       []int // per snapshot row, the start-state row it is, or -1
	}{
		{"update", `UPDATE t SET b = b + 100 WHERE a < 20`, rewritten(20)},
		{"update-indexed-set-column", `UPDATE t SET a = a + 100000 WHERE a < 20`, rewritten(20)},
		{"delete", `DELETE FROM t WHERE a < 20`, identity(n)[20:]},
		{"insert-values", `INSERT INTO t VALUES (-1, -1), (-2, -2)`, appended(2)},
		{"insert-select", `INSERT INTO t SELECT a, b FROM t WHERE a < 5`, appended(5)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			v := storage.NewVersioned(sharedBase(n))
			// A third statement keeps version 2 off the tip, which a
			// snapshot copies deeply from the live state instead.
			for _, src := range []string{prep, tc.stmt, `DELETE FROM t WHERE a = 0`} {
				if err := v.Apply(sql.MustParseStatement(src)); err != nil {
					t.Fatal(err)
				}
			}
			c := storage.NewSnapshotCache(v)
			base := rowsOf(t, v.Base())
			baseBefore := rowsOf(t, v.Base().Clone())

			s1, err := c.SnapshotCtx(context.Background(), 1)
			if err != nil {
				t.Fatal(err)
			}
			rows1 := rowsOf(t, s1)
			from1 := identity(n)
			for j := 500; j < n; j++ {
				from1[j] = -1 // written by prep
			}
			requireShares(t, "snapshot 1 vs base", rows1, base, from1)
			rows1Before := rowsOf(t, s1.Clone())

			s2, err := c.SnapshotCtx(context.Background(), 2)
			if err != nil {
				t.Fatal(err)
			}
			if _, misses := c.Stats(); misses != 2 {
				t.Fatalf("misses = %d, want 2: snapshot 2 must be replayed from snapshot 1", misses)
			}
			rows2 := rowsOf(t, s2)
			requireShares(t, "snapshot 2 vs snapshot 1", rows2, rows1, tc.from)

			requireSameRows(t, "base after replays", base, baseBefore)
			requireSameRows(t, "snapshot 1 after replay", rows1, rows1Before)
			for i, got := range [][]schema.Tuple{base, rows1, rows2} {
				want, err := v.Version(i)
				if err != nil {
					t.Fatal(err)
				}
				requireSameRows(t, fmt.Sprintf("snapshot %d vs Version(%d)", i, i), got, rowsOf(t, want))
			}
		})
	}
}

// TestSnapshotLongReplayCopiesOnce pins the bound on a replay's fresh
// rows: once its UPDATEs would have written more than half of the
// relation fresh, the replay copies the relation and writes the rest in
// place — and the start state is still as it was.
func TestSnapshotLongReplayCopiesOnce(t *testing.T) {
	n := 2 * storage.MinIndexRows
	v := storage.NewVersioned(sharedBase(n))
	// The first statement writes 200 rows fresh, the second would take
	// that to 300 > n/2. No statement touches rows 200–399, which only
	// the copy takes out of the base. The last statement keeps version 2
	// off the tip.
	for _, src := range []string{
		`UPDATE t SET b = b + 1 WHERE a < 200`,
		`UPDATE t SET b = b + 2 WHERE a >= 400 AND a < 500`,
		`DELETE FROM t WHERE a = 511`,
	} {
		if err := v.Apply(sql.MustParseStatement(src)); err != nil {
			t.Fatal(err)
		}
	}
	c := storage.NewSnapshotCache(v)
	base := rowsOf(t, v.Base())
	baseBefore := rowsOf(t, v.Base().Clone())
	snap, err := c.SnapshotCtx(context.Background(), 2)
	if err != nil {
		t.Fatal(err)
	}
	from := make([]int, n)
	for j := range from {
		from[j] = -1
	}
	requireShares(t, "snapshot 2 vs base", rowsOf(t, snap), base, from)
	requireSameRows(t, "base after replay", base, baseBefore)
	want, err := v.Version(2)
	if err != nil {
		t.Fatal(err)
	}
	requireSameRows(t, "snapshot 2 vs Version(2)", rowsOf(t, snap), rowsOf(t, want))
}

// sharedHistory returns the k-th statement of a history cycling
// through every statement kind, with and without an index on a SET
// column.
func sharedHistory(k int) string {
	lo := (k * 37) % 400
	switch k % 5 {
	case 0:
		return fmt.Sprintf(`UPDATE t SET b = b + 1 WHERE a >= %d AND a < %d`, lo, lo+30)
	case 1:
		return fmt.Sprintf(`UPDATE t SET a = a + 1 WHERE a >= %d AND a < %d`, lo, lo+10)
	case 2:
		return fmt.Sprintf(`DELETE FROM t WHERE a >= %d AND a < %d`, lo, lo+5)
	case 3:
		return fmt.Sprintf(`INSERT INTO t VALUES (%d, %d), (%d, 0)`, lo, k, lo+1)
	default:
		return fmt.Sprintf(`INSERT INTO t SELECT a, b + %d FROM t WHERE a >= %d AND a < %d`, k, lo, lo+3)
	}
}

// TestSnapshotSharedRowsConcurrentReplay chains replays off each
// other's shared rows: goroutines walk adjacent versions through a
// small cache, so each miss replays from a neighbour another goroutine
// published, while the tip keeps appending. Every snapshot must equal
// the deep-copy replay Version(i); under -race a write into a shared
// row is a reported race.
func TestSnapshotSharedRowsConcurrentReplay(t *testing.T) {
	const initial, appended, walkers = 20, 10, 4
	v := storage.NewVersioned(sharedBase(2 * storage.MinIndexRows))
	for k := 0; k < initial; k++ {
		if err := v.Apply(sql.MustParseStatement(sharedHistory(k))); err != nil {
			t.Fatal(err)
		}
	}
	c := storage.NewSnapshotCache(v)
	c.SetLimit(4)
	var wg sync.WaitGroup
	errs := make(chan error, walkers+1)
	wg.Add(1)
	go func() {
		defer wg.Done()
		for k := initial; k < initial+appended; k++ {
			if err := v.Apply(sql.MustParseStatement(sharedHistory(k))); err != nil {
				errs <- err
				return
			}
		}
	}()
	for g := 0; g < walkers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for step := 0; step < 2*initial; step++ {
				ver := (g*5 + step) % (initial + 1)
				got, err := c.SnapshotCtx(context.Background(), ver)
				if err != nil {
					errs <- err
					return
				}
				want, err := v.Version(ver)
				if err != nil {
					errs <- err
					return
				}
				gr, _ := got.Relation("t")
				wr, _ := want.Relation("t")
				if !reflect.DeepEqual(gr.Tuples, wr.Tuples) {
					errs <- fmt.Errorf("walker %d: Snapshot(%d) differs from Version(%d)", g, ver, ver)
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
}

// BenchmarkSnapshotReplay measures one snapshot miss: a one-statement
// replay of a 5 000-row relation from a cached version. Run with
// -benchmem: the allocations follow the rows the statement writes, not
// the relation's size.
func BenchmarkSnapshotReplay(b *testing.B) {
	v := storage.NewVersioned(sharedBase(5000))
	// The last statement keeps version 2 off the tip.
	for _, src := range []string{
		`UPDATE t SET b = b + 1 WHERE a = 1`,
		`UPDATE t SET b = b + 2 WHERE a < 3`,
		`DELETE FROM t WHERE a = 4999`,
	} {
		if err := v.Apply(sql.MustParseStatement(src)); err != nil {
			b.Fatal(err)
		}
	}
	v1, err := v.Version(1)
	if err != nil {
		b.Fatal(err)
	}
	if err := v.AddCheckpoint(1, v1); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := storage.NewSnapshotCache(v)
		if _, err := c.SnapshotCtx(context.Background(), 1); err != nil { // cached: the checkpoint itself
			b.Fatal(err)
		}
		if _, err := c.SnapshotCtx(context.Background(), 2); err != nil {
			b.Fatal(err)
		}
	}
}
