package storage

import (
	"context"
	"fmt"
	"math/bits"
	"sync"
)

// Mutator is anything that transforms a database in place — in practice
// the update/delete/insert statements of package history. Keeping the
// interface here avoids an import cycle while letting the versioned
// store replay arbitrary statements.
//
// Ownership contract: both apply methods may rewrite db's resident
// tuples in place, so db must be privately owned by the caller — no
// other goroutine or retained reference may read it concurrently or
// expect it to stay stable. The one exception is a relation marked as
// sharing its rows: its row slice is the caller's, but its rows belong
// to an immutable published state too, so the apply methods replace a
// row they change instead of writing into it (Relation.PrepareRewrite).
// Every caller satisfies that by construction: the live tip is only
// shared through deep clones (TipSnapshot, Version, checkpoints,
// replayPlan's tip freeze), a snapshot replay is private until
// published and shares only rows of states that never change, recovery
// replays into a private clone of the restart state, and the naive
// algorithm applies to its own Copy(D). Current() documents the same
// quiescence requirement for external readers.
type Mutator interface {
	// Apply executes the mutation against db.
	Apply(db *Database) error
	// ApplyIndexed executes the mutation against db using and
	// maintaining ix: it may probe ix's secondary indexes to touch only
	// the rows its predicate selects. It must be observationally
	// identical to Apply, and on return ix must describe db. A nil ix
	// (a replay too short to index, see replayCtx) has no indexes to
	// use or maintain: ApplyIndexed is then Apply.
	ApplyIndexed(db *Database, ix *IndexSet) error
	// String renders the mutation (for logs and errors).
	String() string
}

// VersionedDatabase is an in-memory stand-in for a DBMS with time
// travel: it retains the base snapshot D0 (the state before the first
// statement of the history), a redo log of applied statements, the
// checkpoints registered with AddCheckpoint, and the maintained current
// state.
//
// Version i denotes the state after the first i statements, so
// Version(0) == D0 and Version(len(log)) == Current().
//
// The store is safe for concurrent use with one writer: Apply may run
// while other goroutines reconstruct versions or read the log. The
// history is strictly append-only — versions ≤ an observed NumVersions
// are immutable forever — which is what lets snapshot caches and
// sessions keep serving warm state across live appends.
type VersionedDatabase struct {
	mu      sync.RWMutex
	base    *Database
	current *Database
	log     []Mutator

	// checkpoints are materialized states (AddCheckpoint), trading
	// memory for faster Version() reconstruction.
	checkpoints map[int]*Database

	// tipIx holds the maintained secondary indexes of the current
	// state, guarded by mu like the state itself (readers never touch
	// it).
	tipIx *IndexSet

	// advCh is closed and replaced every time the history advances, so
	// waiters (version-bounded reads, WAL followers) can block on the
	// next append without polling. Guarded by mu.
	advCh chan struct{}
}

// NewVersioned starts version tracking from the given initial state.
// The initial database is snapshotted; the caller must not mutate it
// afterwards.
func NewVersioned(initial *Database) *VersionedDatabase {
	return &VersionedDatabase{
		base:        initial.Clone(),
		current:     initial.Clone(),
		checkpoints: map[int]*Database{},
		tipIx:       NewIndexSet(),
		advCh:       make(chan struct{}),
	}
}

// RestoreVersioned reconstructs a versioned database from recovered
// parts — the durable store's crash-recovery constructor. Unlike
// NewVersioned it takes ownership of its arguments without cloning:
// base must be the state before log[0], every checkpoints[i] the state
// after the first i statements, and current the state after the whole
// log. The caller must not retain references that it later mutates.
func RestoreVersioned(base *Database, log []Mutator, checkpoints map[int]*Database, current *Database) *VersionedDatabase {
	if checkpoints == nil {
		checkpoints = map[int]*Database{}
	}
	return &VersionedDatabase{
		base:        base,
		current:     current,
		log:         log,
		checkpoints: checkpoints,
		tipIx:       NewIndexSet(),
		advCh:       make(chan struct{}),
	}
}

// Apply executes m against the current state and appends it to the log.
func (v *VersionedDatabase) Apply(m Mutator) error {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.applyLocked(m)
}

func (v *VersionedDatabase) applyLocked(m Mutator) error {
	if err := m.ApplyIndexed(v.current, v.tipIx); err != nil {
		return fmt.Errorf("storage: applying %s: %w", m, err)
	}
	v.log = append(v.log, m)
	// Wake version waiters: the closed channel is the broadcast, the
	// fresh one arms the next advance.
	close(v.advCh)
	v.advCh = make(chan struct{})
	return nil
}

// WaitChan returns the current version together with a channel that is
// closed at the next advance. The idiom for blocking until version t:
// loop fetching (cur, ch); return once cur >= t; otherwise select on ch
// and the caller's context.
func (v *VersionedDatabase) WaitChan() (int, <-chan struct{}) {
	v.mu.RLock()
	defer v.mu.RUnlock()
	return len(v.log), v.advCh
}

// ApplyAll executes a sequence of mutations atomically with respect to
// concurrent readers: no version between the first and last statement
// becomes the observable tip.
func (v *VersionedDatabase) ApplyAll(ms ...Mutator) error {
	v.mu.Lock()
	defer v.mu.Unlock()
	for _, m := range ms {
		if err := v.applyLocked(m); err != nil {
			return err
		}
	}
	return nil
}

// AddCheckpoint registers db as the materialized state after the first
// i statements, accelerating later Version reconstructions. The caller
// asserts the invariant (db really is version i) and hands over
// ownership — the store never mutates checkpoints, and neither may the
// caller afterwards. Used by the durable store when it writes or loads
// snapshot checkpoints.
func (v *VersionedDatabase) AddCheckpoint(i int, db *Database) error {
	v.mu.Lock()
	defer v.mu.Unlock()
	if i < 0 || i > len(v.log) {
		return fmt.Errorf("storage: checkpoint %d out of range [0,%d]", i, len(v.log))
	}
	v.checkpoints[i] = db
	return nil
}

// NumVersions returns the number of applied statements.
func (v *VersionedDatabase) NumVersions() int {
	v.mu.RLock()
	defer v.mu.RUnlock()
	return len(v.log)
}

// Current returns the live current state (not a copy). The returned
// database is mutated in place by Apply, so callers must either
// guarantee quiescence (no concurrent appends) or use TipSnapshot /
// Version for a stable view; the engine does the latter, and only
// single-threaded tools and tests read Current.
func (v *VersionedDatabase) Current() *Database { return v.current }

// TipSnapshot atomically returns the current version number and a
// private copy of the state at that version — the consistent read a
// concurrent reader needs while appends are in flight.
func (v *VersionedDatabase) TipSnapshot() (int, *Database) {
	v.mu.RLock()
	defer v.mu.RUnlock()
	return len(v.log), v.current.Clone()
}

// Base returns the snapshot before any statement ran (not a copy; the
// base is immutable).
func (v *VersionedDatabase) Base() *Database { return v.base }

// Log returns the applied statements in order.
func (v *VersionedDatabase) Log() []Mutator {
	v.mu.RLock()
	defer v.mu.RUnlock()
	out := make([]Mutator, len(v.log))
	copy(out, v.log)
	return out
}

// LogRange returns the statements after the first `since` (up to limit
// of them; limit <= 0 means all) together with the total history
// length — the paged view behind GET /v1/history and replica catch-up.
func (v *VersionedDatabase) LogRange(since, limit int) ([]Mutator, int) {
	v.mu.RLock()
	defer v.mu.RUnlock()
	total := len(v.log)
	if since < 0 {
		since = 0
	}
	if since >= total {
		return nil, total
	}
	end := total
	if limit > 0 && since+limit < end {
		end = since + limit
	}
	out := make([]Mutator, end-since)
	copy(out, v.log[since:end])
	return out, total
}

// Version reconstructs the database state after the first i statements
// by replaying the redo log from the nearest earlier snapshot. The
// returned database is a private deep copy the caller may mutate: it
// owns its rows, unlike a SnapshotCache state, which shares unchanged
// rows with the state its replay started from.
func (v *VersionedDatabase) Version(i int) (*Database, error) {
	return v.VersionCtx(context.Background(), i)
}

// VersionCtx is Version under a context: redo-log replay observes
// cancellation between statements, so reconstructing a deep version can
// be abandoned promptly.
func (v *VersionedDatabase) VersionCtx(ctx context.Context, i int) (*Database, error) {
	start, db, log, private, err := v.replayPlan(i)
	if err != nil {
		return nil, err
	}
	if private {
		return db, nil // already a private tip clone
	}
	// A deep copy even when start == i: the caller may write into the
	// result's rows, and db is the shared base or a checkpoint.
	return replayCtx(ctx, log, start, db.Clone(), i)
}

// replayPlan resolves, under the read lock, everything a replay to
// version i needs: the nearest materialized state at or before i and a
// stable view of the log. When i is the tip it returns a private clone
// directly (private == true); otherwise db is shared and immutable
// (the base or a checkpoint). The log slice header captured here stays
// valid under concurrent appends — the history is append-only and
// append never mutates the occupied prefix of the backing array.
func (v *VersionedDatabase) replayPlan(i int) (start int, db *Database, log []Mutator, private bool, err error) {
	v.mu.RLock()
	defer v.mu.RUnlock()
	if i < 0 || i > len(v.log) {
		return 0, nil, nil, false, fmt.Errorf("storage: version %d out of range [0,%d]", i, len(v.log))
	}
	if i == len(v.log) {
		return i, v.current.Clone(), nil, true, nil
	}
	start, db = v.nearestCheckpointLocked(i)
	return start, db, v.log, false, nil
}

// nearestCheckpointLocked returns the latest materialized state at or
// before version i: the base, or a snapshot checkpoint. Caller holds at
// least the read lock. The returned database is shared and immutable.
func (v *VersionedDatabase) nearestCheckpointLocked(i int) (int, *Database) {
	start, db := 0, v.base
	for at, snap := range v.checkpoints {
		if at <= i && at > start {
			start, db = at, snap
		}
	}
	return start, db
}

// replayCtx applies log entries start..i to out — a copy of the state
// after the first `start` statements that the replay may write into —
// to reach version i, checking ctx between statements. The copy is the
// caller's choice: Version deep-copies, so its result owns its rows; a
// snapshot build shares the rows of its immutable start state
// (Database.shareRows), and the statements write the rows they change
// as fresh tuples.
func replayCtx(ctx context.Context, log []Mutator, start int, out *Database, i int) (*Database, error) {
	// A replay-private index set accelerates a long statement loop the
	// same way the tip's maintained indexes accelerate Apply; it is
	// discarded with the replay, so it never outlives its state. Binding
	// a range predicate sorts the relation, O(n log n) once, where the
	// scan plan costs O(n) per statement: a replay of fewer than
	// ⌈log₂ n⌉ statements passes no set and scans instead.
	var ix *IndexSet
	if i-start >= ceilLog2(out.TotalTuples()) {
		ix = NewIndexSet()
	}
	for j := start; j < i; j++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if err := log[j].ApplyIndexed(out, ix); err != nil {
			return nil, fmt.Errorf("storage: replaying statement %d (%s): %w", j, log[j], err)
		}
	}
	return out, nil
}

// ceilLog2 returns ⌈log₂ n⌉, and 0 for n ≤ 1.
func ceilLog2(n int) int {
	if n <= 1 {
		return 0
	}
	return bits.Len(uint(n - 1))
}
