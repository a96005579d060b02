package storage

import (
	"context"
	"errors"
	"fmt"
	"sync"
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
// Contract: databases returned by Snapshot are shared and MUST be
// treated as read-only. The reenactment path of the engine only reads
// them (Alg. 2 evaluates queries over D and materializes fresh results);
// anything that needs to mutate the state must Clone first, which is the
// copy-on-write boundary. The underlying store may advance concurrently
// (live append): the history is append-only, so every cached snapshot —
// including one taken at what was then the tip — remains the correct
// state after its first i statements forever.
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
// empty. A caller that broke the read-only contract would now also get
// stale derived values, not only corrupt a shared state. DerivedStats
// and ColumnarStats count the reuse.
//
// Retention is bounded: completed snapshots beyond the limit are
// evicted least-recently-used. Without a bound, a session that issues
// a naive query after every append pins a fresh tip clone per version
// forever (each version is touched exactly once, so no amount of reuse
// saves it). Eviction only ever drops completed entries — in-flight
// builds and their waiters are untouched — and an evicted version is
// simply rebuilt on next demand, so the bound trades replay time for
// memory, never correctness.
type SnapshotCache struct {
	vdb *VersionedDatabase

	mu         sync.Mutex
	limit      int // max completed snapshots retained; 0 = unbounded
	entries    map[int]*snapshotEntry
	ready      map[int]*Database // completed snapshots, for prefix reuse
	lastUse    map[int]int64     // version → tick of last touch (LRU order)
	tips       map[int]bool      // versions frozen from the live tip (private full copies)
	tick       int64
	hits       int
	misses     int
	evicted    int
	tipEvicted int

	derived derivedStats // Derive traffic on the relations this cache froze
}

// snapshotEntry builds one version exactly once: the caller that
// creates the entry runs the build and closes done; concurrent
// requesters wait on done — or give up when their own context dies —
// and share the result.
type snapshotEntry struct {
	done chan struct{}
	db   *Database
	err  error
}

// DefaultSnapshotCacheLimit bounds a new cache's resident completed
// snapshots. Batches touch a handful of versions, so the default is
// generous for them while keeping long-lived append+query sessions
// from growing without bound.
const DefaultSnapshotCacheLimit = 64

// NewSnapshotCache builds a cache over vdb with the default retention
// bound. Use SetLimit to tune or disable it.
func NewSnapshotCache(vdb *VersionedDatabase) *SnapshotCache {
	return &SnapshotCache{
		vdb:     vdb,
		limit:   DefaultSnapshotCacheLimit,
		entries: map[int]*snapshotEntry{},
		ready:   map[int]*Database{},
		lastUse: map[int]int64{},
		tips:    map[int]bool{},
	}
}

// SetLimit changes the maximum number of completed snapshots retained
// (0 = unbounded), evicting immediately if the cache is over the new
// bound.
func (c *SnapshotCache) SetLimit(n int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.limit = n
	c.evictLocked()
}

// touchLocked records a use of version i for LRU ordering.
func (c *SnapshotCache) touchLocked(i int) {
	c.tick++
	c.lastUse[i] = c.tick
}

// evictLocked drops least-recently-used completed snapshots until the
// cache is within its bound.
func (c *SnapshotCache) evictLocked() {
	if c.limit <= 0 {
		return
	}
	for len(c.ready) > c.limit {
		victim, oldest := -1, int64(0)
		for v := range c.ready {
			if u := c.lastUse[v]; victim < 0 || u < oldest {
				victim, oldest = v, u
			}
		}
		delete(c.ready, victim)
		delete(c.lastUse, victim)
		delete(c.entries, victim)
		delete(c.tips, victim)
		c.evicted++
	}
}

// evictTipsLocked eagerly drops tip-pinned snapshots superseded by a
// newer tip build. Tip snapshots are private full copies of the live
// state — the most expensive entries the cache holds — and an
// append+query session touches each tip version exactly once, so LRU
// recency never retires them before the bound fills with dead weight.
// A superseded tip that is requested again is simply rebuilt by
// replay. Entries not yet installed in ready (a concurrent build
// between marking and installing) keep their marker and are reaped by
// the next tip build.
func (c *SnapshotCache) evictTipsLocked(latest int) {
	for v := range c.tips {
		if v >= latest {
			continue
		}
		if _, ok := c.ready[v]; !ok {
			continue
		}
		delete(c.ready, v)
		delete(c.lastUse, v)
		delete(c.entries, v)
		delete(c.tips, v)
		c.tipEvicted++
	}
}

// Snapshot returns the shared read-only state after the first i
// statements (Version semantics). Safe for concurrent use.
func (c *SnapshotCache) Snapshot(i int) (*Database, error) {
	return c.SnapshotCtx(context.Background(), i)
}

// SnapshotCtx is Snapshot under a context. The replay that builds a
// missing version observes cancellation between statements; a build
// abandoned by cancellation is evicted rather than cached, so the
// cache stays consistent. Joining callers honor their own contexts:
// a waiter whose deadline expires returns ctx.Err() immediately
// (the builder keeps going for everyone else), and a waiter that
// outlives a cancelled build restarts it instead of inheriting the
// foreign failure — one client disconnecting never surfaces as an
// error to an innocent concurrent client. Hit/miss counters record
// completed shares and builds only, never abandoned attempts.
func (c *SnapshotCache) SnapshotCtx(ctx context.Context, i int) (*Database, error) {
	if n := c.vdb.NumVersions(); i < 0 || i > n {
		return nil, fmt.Errorf("storage: snapshot %d out of range [0,%d]", i, n)
	}
	for {
		c.mu.Lock()
		e, ok := c.entries[i]
		if !ok {
			e = &snapshotEntry{done: make(chan struct{})}
			c.entries[i] = e
		}
		c.mu.Unlock()
		if !ok {
			// We created the entry: we build, under our context.
			e.db, e.err = c.build(ctx, i)
			if e.err == nil {
				e.db.freeze(&c.derived)
				c.mu.Lock()
				c.ready[i] = e.db
				c.misses++
				c.touchLocked(i)
				c.evictLocked()
				c.mu.Unlock()
			}
			close(e.done)
		} else {
			select {
			case <-e.done:
			case <-ctx.Done():
				return nil, ctx.Err() // our deadline; don't wait out the build
			}
		}
		if e.err == nil || (!errors.Is(e.err, context.Canceled) && !errors.Is(e.err, context.DeadlineExceeded)) {
			if ok && e.err == nil {
				c.mu.Lock()
				c.hits++
				c.touchLocked(i)
				c.mu.Unlock()
			}
			return e.db, e.err
		}
		// The build was abandoned by its builder's context. Evict the
		// entry so the version can be rebuilt.
		c.mu.Lock()
		if c.entries[i] == e {
			delete(c.entries, i)
		}
		c.mu.Unlock()
		if err := ctx.Err(); err != nil {
			return nil, err // it was our context; report our own error
		}
		// A joined builder's context died but ours is alive: retry.
	}
}

// build reconstructs version i from the nearest earlier materialized
// state. Base, checkpoints, and completed snapshots are all immutable
// once created, so when one lands exactly on i it is returned without
// copying; otherwise it is cloned and the log replayed forward.
func (c *SnapshotCache) build(ctx context.Context, i int) (*Database, error) {
	start, db, log, private, err := c.vdb.replayPlan(i)
	if err != nil {
		return nil, err
	}
	if private {
		// The requested version was the tip: replayPlan froze a private
		// copy of the live state, so the shared snapshot cannot alias it.
		// Mark it so a later tip build evicts it eagerly once the history
		// has moved past it.
		c.mu.Lock()
		c.tips[i] = true
		c.evictTipsLocked(i)
		c.mu.Unlock()
		return db, nil
	}
	c.mu.Lock()
	for at, snap := range c.ready {
		if at <= i && at > start {
			start, db = at, snap
		}
	}
	if start > 0 {
		if _, ok := c.ready[start]; ok {
			c.touchLocked(start) // keep hot replay bases resident
		}
	}
	c.mu.Unlock()
	if start == i {
		return db, nil
	}
	return replayCtx(ctx, log, start, db, i)
}

// Stats reports how many Snapshot calls were served from the cache
// versus computed. A call that joins an in-flight computation counts as
// a hit: it shares the result.
func (c *SnapshotCache) Stats() (hits, misses int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses
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

// Evictions reports how many completed snapshots the retention bound
// has dropped.
func (c *SnapshotCache) Evictions() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.evicted
}

// Resident reports how many completed snapshots are currently held.
func (c *SnapshotCache) Resident() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.ready)
}

// TipEvictions reports how many superseded tip-pinned snapshots were
// eagerly dropped (distinct from the LRU bound's Evictions).
func (c *SnapshotCache) TipEvictions() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.tipEvicted
}

// TipResident reports how many tip-pinned snapshots (private full
// copies of a then-live state) are currently held. Under eager
// eviction this stays at most 1 plus any in-flight builds.
func (c *SnapshotCache) TipResident() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for v := range c.tips {
		if _, ok := c.ready[v]; ok {
			n++
		}
	}
	return n
}
