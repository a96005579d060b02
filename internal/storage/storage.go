// Package storage provides the in-memory relational storage substrate:
// relations, databases, and a multi-versioned database supporting
// statement-granularity time travel. The paper's methods assume a DBMS
// with time travel (Oracle, SQL Server, DB2) to access the state D of
// the database before the first modified statement; VersionedDatabase
// plays that role here.
package storage

import (
	"fmt"
	"maps"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"github.com/mahif/mahif/internal/schema"
)

// Relation is a bag of tuples with a schema.
//
// Rows may be shared between relations. A relation owns its rows when
// it built them or deep-copied them (Clone); a statement may then
// rewrite them in place. A snapshot replay (SnapshotCache) instead
// starts from a copy of the row slice of an immutable, published state,
// so its rows are the published state's own tuples: such a relation is
// marked as sharing rows, and a statement applied to it replaces a row
// it changes with a fresh one rather than writing into it
// (PrepareRewrite). Either way, a row a published relation holds never
// changes.
type Relation struct {
	Schema *schema.Schema
	Tuples []schema.Tuple

	// sharesRows marks a relation whose rows may also belong to another
	// relation, so none may be written in place (see shareRows);
	// freshRows counts the rows statements have written fresh since.
	sharesRows bool
	freshRows  int

	// frozen is nil while the relation is private and may still change.
	// A SnapshotCache sets it when it publishes the relation's database
	// (see Database.freeze): from then on the contents never change, so
	// values derived from them can be remembered here (see Derive).
	frozen atomic.Pointer[derivedMemo]

	// lineage is set on a replayed relation before its SnapshotCache
	// publishes it, when the view can be derived from the replay's start
	// (see viewLineage); SharedColumnar drops it once the view is built.
	lineage *viewLineage
}

// maxDerived bounds the values remembered per frozen relation. Callers
// derive one value per option set they use — in practice one — so the
// bound only keeps a caller that varies its options without end from
// growing the snapshot.
const maxDerived = 8

// derivedMemo holds the values derived from one frozen relation.
type derivedMemo struct {
	stats *derivedStats // counters of the cache that froze the relation

	mu   sync.Mutex
	vals map[any]*derivedEntry

	// The columnar view has a slot of its own (see SharedColumnar), so
	// keyed values can neither crowd it out of maxDerived nor mix their
	// counts with its. view is set once a build succeeded, and a replay
	// that starts from this relation reads it without building it
	// (builtView).
	viewOnce sync.Once
	view     atomic.Pointer[ColumnarView]
	viewErr  error
}

// derivedEntry computes one derived value exactly once; concurrent
// askers wait for the first and share its result.
type derivedEntry struct {
	once sync.Once
	val  any
	err  error
}

// derivedStats counts Derive calls answered from a memo (hits) and
// those that ran compute on a frozen relation (misses), and the same for
// SharedColumnar and for Derive calls with a ReportKey. viewDerived
// counts the view misses that derived the view from a replay's start.
type derivedStats struct {
	hits, misses             atomic.Int64
	viewHits, viewMisses     atomic.Int64
	viewDerived              atomic.Int64
	reportHits, reportMisses atomic.Int64
}

// ReportKey marks a Derive key whose value serves aggregate reports (a
// historical γ state, a row-hash index): its traffic is counted apart
// (SnapshotCache.ReportStats), so DerivedStats keeps describing the
// program-slicing side.
type ReportKey interface{ ReportKey() }

// Derive returns compute's result for key, a pure function of the
// relation's contents and key. On a frozen relation the result is
// computed once per key and remembered for the relation's lifetime —
// it goes when the snapshot goes, so eviction needs no bookkeeping —
// and is shared between callers, which must treat it as read-only
// (program slicing reads Φ_D this way; the vectorized executor reads the
// columnar view, which has its own slot — SharedColumnar). On a private
// relation nothing is remembered: compute runs every time. key must be
// comparable.
func (r *Relation) Derive(key any, compute func() (any, error)) (any, error) {
	m := r.frozen.Load()
	if m == nil {
		return compute()
	}
	m.mu.Lock()
	e, ok := m.vals[key]
	if !ok && len(m.vals) < maxDerived {
		e = &derivedEntry{}
		m.vals[key] = e
	}
	m.mu.Unlock()
	hits, misses := &m.stats.hits, &m.stats.misses
	if _, ok := key.(ReportKey); ok {
		hits, misses = &m.stats.reportHits, &m.stats.reportMisses
	}
	if e == nil {
		misses.Add(1)
		return compute()
	}
	hit := true
	e.once.Do(func() {
		hit = false
		e.val, e.err = compute()
	})
	if hit {
		hits.Add(1)
	} else {
		misses.Add(1)
	}
	return e.val, e.err
}

// NewRelation builds an empty relation with the given schema.
func NewRelation(s *schema.Schema) *Relation {
	return &Relation{Schema: s}
}

// Len returns the number of tuples.
func (r *Relation) Len() int { return len(r.Tuples) }

// Add appends tuples to the relation. Tuples must match the schema's
// arity; Add panics otherwise since this indicates a programming error
// upstream (parsing and statement validation check arity already).
func (r *Relation) Add(ts ...schema.Tuple) {
	for _, t := range ts {
		if len(t) != r.Schema.Arity() {
			panic(fmt.Sprintf("storage: tuple arity %d does not match schema %s", len(t), r.Schema))
		}
		r.Tuples = append(r.Tuples, t)
	}
}

// Clone returns a deep copy of the relation. Tuples are copied
// shallowly per-row (values are immutable). The copy is private: it
// carries neither the frozen mark nor anything derived from the
// original.
func (r *Relation) Clone() *Relation {
	out := &Relation{Schema: r.Schema.Clone()}
	out.Tuples = make([]schema.Tuple, len(r.Tuples))
	for i, t := range r.Tuples {
		out.Tuples[i] = t.Clone()
	}
	return out
}

// shareRows returns a copy of the relation that holds the same rows: a
// fresh row slice of the same tuples, marked as sharing them. It is the
// start state of a snapshot replay, which writes the rows it changes as
// fresh tuples and so leaves r's intact.
func (r *Relation) shareRows() *Relation {
	return &Relation{Schema: r.Schema.Clone(), Tuples: slices.Clone(r.Tuples), sharesRows: true}
}

// PrepareRewrite is called by a statement about to rewrite n of the
// relation's rows, once per rewrite, and reports whether it may write
// into them; if not, it replaces each of the n rows with a fresh one. A
// relation that owns its rows may be written. One that shares them may
// not, and counts the n fresh rows instead — until they would pass half
// of its rows. Then it copies every row as Clone does, stops sharing,
// and may be written: a long replay costs little more than the deep
// copy it replaces, and leaves its rows in order, which the row-wise
// scans of program slicing and the columnar view read faster than rows
// spread over the shared state and every replayed statement's arena.
func (r *Relation) PrepareRewrite(n int) (inPlace bool) {
	if !r.sharesRows {
		return true
	}
	if r.freshRows += n; 2*r.freshRows <= len(r.Tuples) {
		return false
	}
	for i, t := range r.Tuples {
		r.Tuples[i] = t.Clone()
	}
	r.sharesRows, r.freshRows = false, 0
	return true
}

// EqualAsBag reports whether two relations contain the same multiset of
// tuples.
func (r *Relation) EqualAsBag(o *Relation) bool {
	if len(r.Tuples) != len(o.Tuples) {
		return false
	}
	ix := NewTupleIndex(len(r.Tuples))
	for _, t := range r.Tuples {
		ix.Add(t)
	}
	for _, t := range o.Tuples {
		if !ix.Remove(t) {
			return false
		}
	}
	return true
}

// String renders the relation, its rows sorted by their rendering
// (Tuple.String), for stable output.
func (r *Relation) String() string {
	var b strings.Builder
	b.WriteString(r.Schema.String())
	b.WriteByte('\n')
	rows := make([]string, len(r.Tuples))
	for i, t := range r.Tuples {
		rows[i] = t.String()
	}
	sort.Strings(rows)
	for _, row := range rows {
		b.WriteString("  ")
		b.WriteString(row)
		b.WriteByte('\n')
	}
	return b.String()
}

// Database is a set of named relations.
type Database struct {
	rels  map[string]*Relation
	order []string // insertion order, for deterministic iteration
}

// NewDatabase builds an empty database.
func NewDatabase() *Database {
	return &Database{rels: map[string]*Relation{}}
}

func key(name string) string { return strings.ToLower(name) }

// AddRelation registers a relation under its schema's relation name.
// An existing relation of the same name is replaced.
func (d *Database) AddRelation(r *Relation) {
	k := key(r.Schema.Relation)
	if _, ok := d.rels[k]; !ok {
		d.order = append(d.order, k)
	}
	d.rels[k] = r
}

// Relation returns the named relation or an error.
func (d *Database) Relation(name string) (*Relation, error) {
	r, ok := d.rels[key(name)]
	if !ok {
		return nil, fmt.Errorf("storage: no relation %q in database", name)
	}
	return r, nil
}

// RelationNames returns the relation names in registration order.
func (d *Database) RelationNames() []string {
	out := make([]string, len(d.order))
	copy(out, d.order)
	return out
}

// Clone deep-copies the database. This is the "Copy(D)" of the naive
// algorithm (Alg. 1) and is deliberately an O(data) operation so the
// naive method pays the copy cost the paper describes.
func (d *Database) Clone() *Database {
	out := NewDatabase()
	for _, k := range d.order {
		out.AddRelation(d.rels[k].Clone())
	}
	return out
}

// shareRows returns a copy of the database whose relations hold d's
// rows (Relation.shareRows): O(rows) pointers, no per-row allocation.
// d must be immutable for as long as the copy lives.
func (d *Database) shareRows() *Database {
	out := NewDatabase()
	for _, k := range d.order {
		out.AddRelation(d.rels[k].shareRows())
	}
	return out
}

// freeze marks every relation of d immutable, which lets Relation.Derive
// remember derived values on it; stats receives their hit/miss counts.
// d is a state a SnapshotCache built for itself (never a base or a
// checkpoint), so no relation is frozen twice.
func (d *Database) freeze(stats *derivedStats) {
	for _, r := range d.rels {
		r.frozen.Store(&derivedMemo{stats: stats, vals: map[any]*derivedEntry{}})
	}
}

// TotalTuples returns the number of tuples across all relations.
func (d *Database) TotalTuples() int {
	n := 0
	for _, r := range d.rels {
		n += len(r.Tuples)
	}
	return n
}

// With returns a database holding d's relations, except that r takes
// the place of the one of its name (or joins them). Relations are
// shared, not copied: d is unchanged.
func (d *Database) With(r *Relation) *Database {
	out := &Database{rels: maps.Clone(d.rels), order: slices.Clone(d.order)}
	out.AddRelation(r)
	return out
}

// String renders all relations.
func (d *Database) String() string {
	var b strings.Builder
	for _, k := range d.order {
		b.WriteString(d.rels[k].String())
	}
	return b.String()
}
