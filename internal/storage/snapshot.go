package storage

import (
	"context"
	"fmt"
	"sync/atomic"

	"github.com/mahif/mahif/internal/lru"
)

// SnapshotCache serves shared, read-only time-travel snapshots of one
// versioned database. A batch of what-if scenarios over the same history
// time-travels to a handful of distinct versions — usually just one, the
// state before the earliest modified statement — so the cache computes
// each requested version once and hands the same *Database to every
// caller instead of replaying the redo log per scenario.
//
// Reconstruction is prefix-aware: a missing version is built from the
// nearest earlier materialized state (a cached snapshot, a store
// checkpoint, or the base), so scenarios whose first-modified positions
// are close share almost all replay work.
//
// Contract: databases returned by SnapshotCtx are shared and MUST be
// treated as read-only. The reenactment path of the engine only reads
// them (Alg. 2 evaluates queries over D and materializes fresh results);
// anything that needs to mutate the state must Clone first — a deep
// copy that owns its rows — which is the copy-on-write boundary. The
// underlying store may advance concurrently (live append): the history
// is append-only, so every cached snapshot — including one taken at
// what was then the tip — remains the correct state after its first i
// statements forever.
//
// Shared rows: because published states never change, versions share
// the rows they have in common. A replay starts from a copy of its start
// state's row slice, not of its rows (Database.shareRows), and the
// replayed statements write every row they change as a fresh tuple
// (Relation.PrepareRewrite). A miss that replays a few statements
// therefore allocates only the rows they change, and resident versions
// hold one copy of each unchanged row between them, not one each. A
// replay that would write more than half of a relation fresh copies it
// instead, as a deep copy would. A replay of fewer statements than
// ⌈log₂ n⌉ for n rows builds no index of its own either (replayCtx):
// it scans, where an index would sort the whole relation.
//
// Frozen snapshots: because of that contract, the cache marks every
// relation of a database frozen at the moment it publishes it. A
// frozen relation remembers values that are pure
// functions of its contents (Relation.Derive) — the compressed database
// Φ_D of program slicing is the one in use — so the data-sized pass is
// paid once per snapshot, not once per what-if. The relation's columnar
// view (Relation.SharedColumnar) is remembered the same way, in a slot
// of its own: the vectorized executor scans a frozen relation by
// aliasing windows of that view as its source batches instead of
// transposing the row store per scan, so it is a second reader that
// must — and does — leave what it is handed untouched. The memo lives on
// the relation and dies with it: an evicted and rebuilt version starts
// empty. Every relation the cache publishes is its own — a version that
// lands on the base or a checkpoint is published as a row-sharing copy
// of it — so what is derived from a snapshot is counted by this cache,
// goes with this cache's snapshot, and is never seen by another cache.
// A caller that broke the read-only contract would now also get stale
// derived values, not only corrupt a shared state. DerivedStats and
// ColumnarStats count the reuse.
//
// Lineage: the artifacts of a miss follow what its replay wrote. A
// relation replayed from a published one whose view is built, to the
// same length and with at most half of its positions holding another
// row than the start's, records the start's view and those positions
// before it is published (viewLineage). Its own view is then derived,
// not transposed: a column the replay did not write aliases the start's
// lane, one it wrote is transposed alone — the same view, lane for
// lane, that a transposition gives (ColumnarDerived counts these
// builds). The lineage holds the start's view, never the start
// relation, and goes once the view is built; Φ_D reads the view's lanes,
// so it is built on a miss's first Compress.
//
// Retention is bounded: completed snapshots beyond the limit are
// evicted least-recently-used. Without a bound, a session that reports
// an aggregate after every append pins a fresh tip clone per version
// forever (each version is touched exactly once, so no amount of reuse
// saves it). The bound, the build-once protocol and its counters are
// lru.Cache.Do's: a build in flight is never evicted, and an evicted
// version is simply rebuilt on next demand, so the bound trades replay
// time for memory, never correctness. What is left here is what is
// specific to snapshots: the prefix-aware build, tip pinning, and
// freezing a database when it is published.
type SnapshotCache struct {
	vdb        *VersionedDatabase
	snaps      *lru.Cache[int, snapshot]
	tipEvicted atomic.Int64

	derived derivedStats // Derive traffic on the relations this cache froze
}

// snapshot is one published version. tip marks a private full copy of
// a then-live state, or a replay asked for as a tip (TipSnapshotCtx):
// the next tip build drops it eagerly (evictTips).
type snapshot struct {
	db  *Database
	tip bool
}

// DefaultSnapshotCacheLimit bounds a new cache's resident completed
// snapshots. Batches touch a handful of versions, so the default is
// generous for them while keeping long-lived append+query sessions
// from growing without bound.
const DefaultSnapshotCacheLimit = 64

// NewSnapshotCache builds a cache over vdb with the default retention
// bound. Use SetLimit to tune or disable it.
func NewSnapshotCache(vdb *VersionedDatabase) *SnapshotCache {
	return &SnapshotCache{vdb: vdb, snaps: lru.New[int, snapshot](DefaultSnapshotCacheLimit)}
}

// SetLimit changes the maximum number of completed snapshots retained
// (0 = unbounded), evicting immediately if the cache is over the new
// bound.
func (c *SnapshotCache) SetLimit(n int) { c.snaps.SetCap(n) }

// evictTips eagerly drops tip-pinned snapshots superseded by a newer
// tip build. Tip snapshots are private full copies of the live state —
// the most expensive entries the cache holds — and an append+query
// session touches each tip version exactly once, so LRU recency never
// retires them before the bound fills with dead weight. A superseded
// tip that is requested again is simply rebuilt by replay. A tip still
// being built is not resident yet and is reaped by the next tip build.
func (c *SnapshotCache) evictTips(latest int) {
	var stale []int
	c.snaps.Range(func(v int, s snapshot) {
		if s.tip && v < latest {
			stale = append(stale, v)
		}
	})
	for _, v := range stale {
		if c.snaps.Remove(v) {
			c.tipEvicted.Add(1)
		}
	}
}

// SnapshotCtx returns the shared read-only state after the first i
// statements (Version semantics). Safe for concurrent use. The replay
// that builds a missing version observes cancellation between
// statements. Concurrent callers share one build under lru.Cache.Do's
// rules: a waiter whose deadline expires returns ctx.Err() immediately
// (the builder keeps going for everyone else), a waiter that outlives a
// cancelled build restarts it instead of inheriting the foreign failure
// — one client disconnecting never surfaces as an error to an innocent
// concurrent client — and a failed build is not cached. Hit/miss
// counters record completed shares and builds only, never abandoned
// attempts.
func (c *SnapshotCache) SnapshotCtx(ctx context.Context, i int) (*Database, error) {
	return c.snapshotCtx(ctx, i, false)
}

// TipSnapshotCtx is SnapshotCtx for a version its caller aligned against
// as the live tip: the frame of an aggregate report. Such a state is
// tip-pinned however it is built — a copy of the live state while it
// still is the tip, a replay once an append has landed in between — so
// a newer tip build drops it eagerly (evictTips), where a replayed one
// would otherwise stay resident like a time-travel state although
// nobody asks for it again.
func (c *SnapshotCache) TipSnapshotCtx(ctx context.Context, i int) (*Database, error) {
	return c.snapshotCtx(ctx, i, true)
}

func (c *SnapshotCache) snapshotCtx(ctx context.Context, i int, tip bool) (*Database, error) {
	if n := c.vdb.NumVersions(); i < 0 || i > n {
		return nil, fmt.Errorf("storage: snapshot %d out of range [0,%d]", i, n)
	}
	s, err := c.snaps.Do(ctx, i, func() (snapshot, error) {
		s, err := c.build(ctx, i, tip)
		if err == nil {
			s.db.freeze(&c.derived)
		}
		return s, err
	})
	return s.db, err
}

// build reconstructs version i from the nearest earlier materialized
// state. Base, checkpoints, and completed snapshots are all immutable
// once created, so the log is replayed forward from one onto a copy
// that shares its rows (Database.shareRows) — only the rows the
// replayed statements change are new, and when the state lands exactly
// on i the copy is the whole cost. tip marks i tip-pinned even when it
// is no longer the live version (see TipSnapshotCtx).
func (c *SnapshotCache) build(ctx context.Context, i int, tip bool) (snapshot, error) {
	start, db, log, private, err := c.vdb.replayPlan(i)
	if err != nil {
		return snapshot{}, err
	}
	if private || tip {
		// The requested version was the tip (replayPlan then froze a
		// private copy of the live state, so the shared snapshot cannot
		// alias it), or was asked for as one. Mark it so a later tip build
		// evicts it eagerly once the history has moved past it.
		c.evictTips(i)
		if private {
			return snapshot{db: db, tip: true}, nil
		}
	}
	c.snaps.Range(func(at int, s snapshot) {
		if at <= i && at > start {
			start, db = at, s.db
		}
	})
	if start > 0 {
		c.snaps.Touch(start) // keep hot replay bases resident
	}
	// Base, checkpoints and published snapshots never change, so the
	// replay can hold their rows instead of copying them. It always
	// works on a copy, even with nothing to replay: the published state
	// is then this cache's own, and so is everything derived from it.
	out, err := replayCtx(ctx, log, start, db.shareRows(), i)
	if err != nil {
		return snapshot{}, err
	}
	// The rows the replay did not write are db's, so the views of db it
	// left in place derive the new ones (inheritViews).
	out.inheritViews(db)
	return snapshot{db: out, tip: tip}, nil
}

// Stats reports how many SnapshotCtx calls were served from the cache
// versus computed. A call that joins an in-flight computation counts as
// a hit: it shares the result.
func (c *SnapshotCache) Stats() (hits, misses int) {
	h, m := c.snaps.Stats()
	return int(h), int(m)
}

// DerivedStats reports Relation.Derive calls on the relations this
// cache published: hits were answered from a relation's memo, misses
// computed (once per relation and key).
func (c *SnapshotCache) DerivedStats() (hits, misses int64) {
	return c.derived.hits.Load(), c.derived.misses.Load()
}

// ColumnarStats reports Relation.SharedColumnar calls on the relations
// this cache published: hits reused a relation's view, misses built it
// (once per relation).
func (c *SnapshotCache) ColumnarStats() (hits, misses int64) {
	return c.derived.viewHits.Load(), c.derived.viewMisses.Load()
}

// ColumnarDerived reports the view builds (ColumnarStats misses) that
// derived a replayed relation's view from its start's lanes instead of
// transposing its rows. Read before the misses, it never exceeds them.
func (c *SnapshotCache) ColumnarDerived() int64 {
	return c.derived.viewDerived.Load()
}

// ReportStats reports Relation.Derive calls with a ReportKey on the
// relations this cache published: the artifacts aggregate reports
// remember on a snapshot.
func (c *SnapshotCache) ReportStats() (hits, misses int64) {
	return c.derived.reportHits.Load(), c.derived.reportMisses.Load()
}

// Evictions reports how many completed snapshots the retention bound
// has dropped.
func (c *SnapshotCache) Evictions() int { return int(c.snaps.Evictions()) }

// Resident reports how many completed snapshots are currently held.
func (c *SnapshotCache) Resident() int { return c.snaps.Len() }

// TipEvictions reports how many superseded tip-pinned snapshots were
// eagerly dropped (distinct from the LRU bound's Evictions).
func (c *SnapshotCache) TipEvictions() int { return int(c.tipEvicted.Load()) }

// TipResident reports how many tip-pinned snapshots (private full
// copies of a then-live state, or replays asked for as a tip) are
// currently held. Under eager eviction this stays at most 1 plus stale
// tips whose builds finished after the newest.
func (c *SnapshotCache) TipResident() int {
	n := 0
	c.snaps.Range(func(_ int, s snapshot) {
		if s.tip {
			n++
		}
	})
	return n
}
