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
type Relation struct {
	Schema *schema.Schema
	Tuples []schema.Tuple

	// frozen is nil while the relation is private and may still change.
	// A SnapshotCache sets it when it publishes the relation's database
	// (see Database.freeze): from then on the contents never change, so
	// values derived from them can be remembered here (see Derive).
	frozen atomic.Pointer[derivedMemo]
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
	// counts with its.
	viewOnce sync.Once
	view     *ColumnarView
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
// SharedColumnar and for Derive calls with a ReportKey.
type derivedStats struct {
	hits, misses             atomic.Int64
	viewHits, viewMisses     atomic.Int64
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

// Index builds the hash-based multiset index of the relation (the fast
// path for bag difference, delta computation, and bag equality).
func (r *Relation) Index() *TupleIndex { return IndexOf(r) }

// PartitionTuples splits a tuple slice into at most parts contiguous,
// non-empty chunks of near-equal size (no copying — chunks alias the
// input). Concatenating the chunks in order reproduces the input
// exactly, which is what lets the executor's parallel partitioned scans
// merge per-partition output back in sequential order.
func PartitionTuples(tuples []schema.Tuple, parts int) [][]schema.Tuple {
	if parts < 1 {
		parts = 1
	}
	if parts > len(tuples) {
		parts = len(tuples)
	}
	if parts == 0 {
		return nil
	}
	out := make([][]schema.Tuple, 0, parts)
	chunk := (len(tuples) + parts - 1) / parts
	for start := 0; start < len(tuples); start += chunk {
		out = append(out, tuples[start:min(start+chunk, len(tuples))])
	}
	return out
}

// Counts returns a string-keyed multiset view of the relation: tuple
// key → count, plus a representative tuple per key. It is a
// compatibility view built from the hash index; hot paths use Index
// directly and skip the string keys.
func (r *Relation) Counts() (map[string]int, map[string]schema.Tuple) {
	ix := r.Index()
	counts := make(map[string]int, ix.Distinct())
	repr := make(map[string]schema.Tuple, ix.Distinct())
	ix.Range(func(t schema.Tuple, count int) {
		k := t.Key()
		counts[k] += count
		if _, ok := repr[k]; !ok {
			repr[k] = t
		}
	})
	return counts, repr
}

// EqualAsBag reports whether two relations contain the same multiset of
// tuples.
func (r *Relation) EqualAsBag(o *Relation) bool {
	if len(r.Tuples) != len(o.Tuples) {
		return false
	}
	return r.Index().EqualMultiset(o.Index())
}

// String renders the relation (sorted by tuple key, for stable output).
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

// SetRelation replaces the tuples of the named relation.
func (d *Database) SetRelation(name string, r *Relation) {
	k := key(name)
	if _, ok := d.rels[k]; !ok {
		d.order = append(d.order, k)
	}
	d.rels[k] = r
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

// freeze marks every relation of d immutable, which lets Relation.Derive
// remember derived values on it; stats receives their hit/miss counts.
// A relation already frozen (a base or checkpoint shared by two caches)
// keeps its first memo.
func (d *Database) freeze(stats *derivedStats) {
	for _, r := range d.rels {
		if r.frozen.Load() == nil {
			r.frozen.CompareAndSwap(nil, &derivedMemo{stats: stats, vals: map[any]*derivedEntry{}})
		}
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
