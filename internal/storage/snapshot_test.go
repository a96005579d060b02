package storage

import (
	"context"
	"fmt"
	"sync"
	"testing"
)

func newBumpStore(t *testing.T, statements int) *VersionedDatabase {
	t.Helper()
	db := NewDatabase()
	db.AddRelation(intRel("t", 100))
	v := NewVersioned(db)
	for i := 0; i < statements; i++ {
		if err := v.Apply(bump{rel: "t", by: 1}); err != nil {
			t.Fatal(err)
		}
	}
	return v
}

func TestSnapshotMatchesVersion(t *testing.T) {
	v := newBumpStore(t, 8)
	c := NewSnapshotCache(v)
	for i := 0; i <= 8; i++ {
		want, err := v.Version(i)
		if err != nil {
			t.Fatal(err)
		}
		got, err := c.SnapshotCtx(context.Background(), i)
		if err != nil {
			t.Fatal(err)
		}
		wr, _ := want.Relation("t")
		gr, _ := got.Relation("t")
		if !wr.EqualAsBag(gr) {
			t.Errorf("Snapshot(%d) differs from Version(%d)", i, i)
		}
	}
}

func TestSnapshotIsShared(t *testing.T) {
	v := newBumpStore(t, 4)
	c := NewSnapshotCache(v)
	a, err := c.SnapshotCtx(context.Background(), 2)
	if err != nil {
		t.Fatal(err)
	}
	b, err := c.SnapshotCtx(context.Background(), 2)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Error("repeated Snapshot(2) returned distinct databases")
	}
	hits, misses := c.Stats()
	if hits != 1 || misses != 1 {
		t.Errorf("Stats() = %d hits, %d misses, want 1, 1", hits, misses)
	}
}

// TestSnapshotPrefixReuse: building a later version after an earlier one
// must replay from the cached earlier snapshot, not from the base. The
// observable contract is correctness plus cache accounting; replay
// depth is covered indirectly by TestSnapshotMatchesVersion over a
// store whose mutators are order-sensitive (each bump compounds).
func TestSnapshotPrefixReuse(t *testing.T) {
	v := newBumpStore(t, 10)
	c := NewSnapshotCache(v)
	early, err := c.SnapshotCtx(context.Background(), 4)
	if err != nil {
		t.Fatal(err)
	}
	late, err := c.SnapshotCtx(context.Background(), 9)
	if err != nil {
		t.Fatal(err)
	}
	er, _ := early.Relation("t")
	lr, _ := late.Relation("t")
	if er.Tuples[0][0].AsInt() != 104 || lr.Tuples[0][0].AsInt() != 109 {
		t.Errorf("snapshots = %v, %v, want 104, 109", er.Tuples[0][0], lr.Tuples[0][0])
	}
	// The later build cloned the earlier snapshot; the earlier one must
	// be unaffected.
	if er.Tuples[0][0].AsInt() != 104 {
		t.Error("building Snapshot(9) mutated the shared Snapshot(4)")
	}
}

func TestSnapshotWithCheckpoints(t *testing.T) {
	db := NewDatabase()
	db.AddRelation(intRel("t", 0))
	v := NewVersioned(db)
	for i := 0; i < 10; i++ {
		if err := v.Apply(bump{rel: "t", by: 1}); err != nil {
			t.Fatal(err)
		}
		if i%3 == 2 {
			addTipCheckpoint(t, v)
		}
	}
	c := NewSnapshotCache(v)
	for _, i := range []int{10, 7, 3, 0, 5} {
		got, err := c.SnapshotCtx(context.Background(), i)
		if err != nil {
			t.Fatal(err)
		}
		r, _ := got.Relation("t")
		if r.Tuples[0][0].AsInt() != int64(i) {
			t.Errorf("Snapshot(%d) = %v", i, r.Tuples[0][0])
		}
	}
}

func TestSnapshotOutOfRange(t *testing.T) {
	c := NewSnapshotCache(newBumpStore(t, 3))
	if _, err := c.SnapshotCtx(context.Background(), -1); err == nil {
		t.Error("Snapshot(-1) succeeded")
	}
	if _, err := c.SnapshotCtx(context.Background(), 4); err == nil {
		t.Error("Snapshot(4) succeeded beyond the log")
	}
}

// TestSnapshotConcurrent hammers the cache from many goroutines asking
// for overlapping versions; run under -race this is the shared-state
// safety test for the cache itself.
func TestSnapshotConcurrent(t *testing.T) {
	v := newBumpStore(t, 12)
	c := NewSnapshotCache(v)
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i <= 12; i++ {
				ver := (g + i) % 13
				db, err := c.SnapshotCtx(context.Background(), ver)
				if err != nil {
					errs <- err
					return
				}
				r, _ := db.Relation("t")
				if got := r.Tuples[0][0].AsInt(); got != int64(100+ver) {
					errs <- fmt.Errorf("Snapshot(%d) = %d, want %d", ver, got, 100+ver)
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
	hits, misses := c.Stats()
	if misses != 13 {
		t.Errorf("misses = %d, want 13 (one per distinct version)", misses)
	}
	if hits+misses != 16*13 {
		t.Errorf("hits+misses = %d, want %d", hits+misses, 16*13)
	}
}

// TestSnapshotEvictionBound drives the append-then-query pattern that
// motivated retention: each version is touched once, so nothing is ever
// reused and an unbounded cache would pin one clone per version
// forever. The bound must hold throughout, evicted versions must
// rebuild correctly on re-demand, and recently used versions must
// survive over stale ones.
// TestSnapshotTipEviction pins the append+query loop: each round
// appends one statement and snapshots the new tip. Tip snapshots are
// private full copies of the live state, touched exactly once each, so
// without eager eviction they would pile up to the LRU bound as dead
// weight; with it, at most one stays resident and superseded ones are
// rebuilt by replay if ever re-demanded.
func TestSnapshotTipEviction(t *testing.T) {
	v := newBumpStore(t, 1)
	c := NewSnapshotCache(v)
	const rounds = 10
	for i := 0; i < rounds; i++ {
		if _, err := c.SnapshotCtx(context.Background(), v.NumVersions()); err != nil {
			t.Fatal(err)
		}
		if got := c.TipResident(); got > 1 {
			t.Fatalf("round %d: TipResident = %d, want at most 1", i, got)
		}
		if err := v.Apply(bump{rel: "t", by: 1}); err != nil {
			t.Fatal(err)
		}
	}
	if got := c.TipEvictions(); got != rounds-1 {
		t.Errorf("TipEvictions = %d, want %d", got, rounds-1)
	}
	// A superseded tip re-demanded is rebuilt by replay, correctly.
	db, err := c.SnapshotCtx(context.Background(), 3)
	if err != nil {
		t.Fatal(err)
	}
	r, _ := db.Relation("t")
	if got := r.Tuples[0][0].AsInt(); got != 103 {
		t.Errorf("rebuilt superseded tip Snapshot(3) = %d, want 103", got)
	}
}

// TestTipSnapshotReplayedIsTipPinned: a version asked for as a tip
// after an append superseded it is built by replay, correctly, and is
// tip-pinned like a copy of the live state — the next tip build drops
// it — while the same replay asked for as a time-travel state stays.
func TestTipSnapshotReplayedIsTipPinned(t *testing.T) {
	v := newBumpStore(t, 1)
	for _, tip := range []bool{true, false} {
		c := NewSnapshotCache(v)
		stale := v.NumVersions()
		if err := v.Apply(bump{rel: "t", by: 1}); err != nil {
			t.Fatal(err)
		}
		get := c.SnapshotCtx
		if tip {
			get = c.TipSnapshotCtx
		}
		db, err := get(context.Background(), stale)
		if err != nil {
			t.Fatal(err)
		}
		want, err := v.Version(stale)
		if err != nil {
			t.Fatal(err)
		}
		if r, _ := db.Relation("t"); !r.EqualAsBag(mustRel(t, want, "t")) {
			t.Fatalf("replayed Snapshot(%d) differs from Version(%d)", stale, stale)
		}
		resident := c.Resident()
		if _, err := c.SnapshotCtx(context.Background(), v.NumVersions()); err != nil {
			t.Fatal(err)
		}
		if got := c.Resident(); tip && got != resident || !tip && got != resident+1 {
			t.Errorf("asked for as a tip=%v: %d resident before the next tip build, %d after", tip, resident, got)
		}
	}
}

func mustRel(t *testing.T, db *Database, name string) *Relation {
	t.Helper()
	r, err := db.Relation(name)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestSnapshotEvictionBound(t *testing.T) {
	v := newBumpStore(t, 20)
	c := NewSnapshotCache(v)
	c.SetLimit(4)
	for i := 0; i <= 20; i++ {
		if _, err := c.SnapshotCtx(context.Background(), i); err != nil {
			t.Fatal(err)
		}
		if got := c.Resident(); got > 4 {
			t.Fatalf("after Snapshot(%d): Resident = %d exceeds limit 4", i, got)
		}
	}
	if got := c.Evictions(); got != 17 {
		t.Errorf("Evictions = %d, want 17 (21 builds over a 4-slot bound)", got)
	}
	// Version 0 was evicted long ago: re-demand rebuilds it correctly
	// and counts as a miss, not a hit.
	_, missesBefore := c.Stats()
	db, err := c.SnapshotCtx(context.Background(), 0)
	if err != nil {
		t.Fatal(err)
	}
	r, _ := db.Relation("t")
	if got := r.Tuples[0][0].AsInt(); got != 100 {
		t.Errorf("rebuilt Snapshot(0) = %d, want 100", got)
	}
	if _, misses := c.Stats(); misses != missesBefore+1 {
		t.Errorf("rebuild after eviction counted as a hit")
	}
	// LRU order: touch 18, then build a fresh version; 18 must survive
	// the eviction that admits it.
	if _, err := c.SnapshotCtx(context.Background(), 18); err != nil {
		t.Fatal(err)
	}
	if _, err := c.SnapshotCtx(context.Background(), 5); err != nil {
		t.Fatal(err)
	}
	hitsBefore, missesBefore := c.Stats()
	if _, err := c.SnapshotCtx(context.Background(), 18); err != nil {
		t.Fatal(err)
	}
	if hits, misses := c.Stats(); hits != hitsBefore+1 || misses != missesBefore {
		t.Error("recently touched version 18 was evicted ahead of staler residents")
	}
	// Tightening the limit evicts immediately.
	c.SetLimit(1)
	if got := c.Resident(); got != 1 {
		t.Errorf("after SetLimit(1): Resident = %d", got)
	}
	// Unbounded (0) stops evicting.
	c.SetLimit(0)
	evicted := c.Evictions()
	for i := 0; i <= 20; i++ {
		if _, err := c.SnapshotCtx(context.Background(), i); err != nil {
			t.Fatal(err)
		}
	}
	if c.Resident() != 21 || c.Evictions() != evicted {
		t.Errorf("unbounded cache evicted: Resident=%d Evictions=%d (was %d)",
			c.Resident(), c.Evictions(), evicted)
	}
}

// TestDeriveOnlyOnFrozenRelations pins the contract behind the Φ_D
// memo: a relation a SnapshotCache published remembers derived values
// per key (computed once, however many ask at once); a private relation
// — one never published, or a Clone of a published one — remembers
// nothing; and the memo dies with the snapshot.
func TestDeriveOnlyOnFrozenRelations(t *testing.T) {
	v := newBumpStore(t, 6)
	c := NewSnapshotCache(v)
	db, err := c.SnapshotCtx(context.Background(), 3)
	if err != nil {
		t.Fatal(err)
	}
	rel, _ := db.Relation("t")
	if rel.frozen.Load() == nil {
		t.Fatal("a published snapshot's relation is not frozen")
	}

	var computed [2]int
	var mu sync.Mutex
	derive := func(r *Relation, key int) any {
		got, err := r.Derive(key, func() (any, error) {
			mu.Lock()
			computed[key]++
			mu.Unlock()
			return fmt.Sprintf("derived-%d-from-%d-rows", key, r.Len()), nil
		})
		if err != nil {
			t.Error(err)
		}
		return got
	}
	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			if got, want := derive(rel, g%2), fmt.Sprintf("derived-%d-from-1-rows", g%2); got != want {
				t.Errorf("Derive(%d) = %v, want %v", g%2, got, want)
			}
		}(g)
	}
	wg.Wait()
	if computed != [2]int{1, 1} {
		t.Errorf("16 concurrent Derive calls over 2 keys computed %v times, want once per key", computed)
	}
	if hits, misses := c.DerivedStats(); hits != 14 || misses != 2 {
		t.Errorf("DerivedStats() = %d hits, %d misses, want 14, 2", hits, misses)
	}

	// A clone is private again: neither the mark nor the memo travel.
	cl := rel.Clone()
	if cl.frozen.Load() != nil {
		t.Error("Clone carried the frozen mark")
	}
	derive(cl, 0)
	derive(cl, 0)
	if computed[0] != 3 {
		t.Errorf("a private clone computed %d times over two calls, want 2 (never remembered)", computed[0]-1)
	}
	if hits, misses := c.DerivedStats(); hits != 14 || misses != 2 {
		t.Errorf("a private relation moved the cache's counters: %d hits, %d misses", hits, misses)
	}

	// Evicted and rebuilt: a new relation object, an empty memo.
	c.SetLimit(1)
	if _, err := c.SnapshotCtx(context.Background(), 5); err != nil {
		t.Fatal(err)
	}
	db2, err := c.SnapshotCtx(context.Background(), 3)
	if err != nil {
		t.Fatal(err)
	}
	rel2, _ := db2.Relation("t")
	if rel2 == rel {
		t.Fatal("version 3 was not rebuilt after its eviction")
	}
	derive(rel2, 1)
	if computed[1] != 2 {
		t.Errorf("a rebuilt snapshot computed key 1 %d times in total, want 2 (its memo starts empty)", computed[1])
	}
}

// TestDeriveBoundsKeysPerRelation: past maxDerived keys a frozen
// relation computes without remembering, so a caller that varies its
// key without end cannot grow a snapshot.
func TestDeriveBoundsKeysPerRelation(t *testing.T) {
	v := newBumpStore(t, 1)
	db, err := NewSnapshotCache(v).SnapshotCtx(context.Background(), 1)
	if err != nil {
		t.Fatal(err)
	}
	rel, _ := db.Relation("t")
	calls := 0
	for round := 0; round < 2; round++ {
		for key := 0; key < maxDerived+3; key++ {
			if _, err := rel.Derive(key, func() (any, error) { calls++; return key, nil }); err != nil {
				t.Fatal(err)
			}
		}
	}
	if want := maxDerived + 2*3; calls != want {
		t.Errorf("computed %d times, want %d: %d keys remembered, 3 recomputed per round", calls, want, maxDerived)
	}
}
