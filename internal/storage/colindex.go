// Per-column secondary indexes for incremental statement application.
//
// A ColumnIndex maps the values of one column of one relation to the
// row positions holding them, in key order: a sorted run plus a small
// unsorted delta, answering range probes (an equality is the closed
// range [k, k]). An index only picks candidate rows: the caller decides
// each candidate with the statement's full condition, so a probe may
// return more rows than match but never fewer. An IndexSet owns the
// lazily built indexes of one database state and is maintained
// delta-wise by the indexed statement-application path of package
// history: appends register new rows, in-place row rewrites move
// individual entries, and deletes renumber positions in one pass. This
// is what turns UPDATE/DELETE application from a full scan +
// rematerialization of the relation into O(affected rows) work.
//
// Key representation is chosen to agree exactly with the engine's
// comparison semantics (types.Value.Compare): numeric values of either
// kind are keyed by their float64 widening, so cross-kind ordering —
// including any float precision loss — matches the per-tuple oracle;
// booleans are keyed 0/1 (false < true); strings by themselves. NULLs
// are kept on a separate position list, which every probe returns,
// because no comparison with NULL is false. A NaN has no place in that
// order (Compare ties it with every number), and Go-API appends and
// programmatic relations can carry one: a column holding a NaN, or
// several comparability classes, gets no index, and a NaN or a class
// departure arriving through maintenance drops the column's index.
//
// Concurrency: an IndexSet has no internal locking. It must only be
// touched under the same exclusive access as the database state it
// indexes — the VersionedDatabase write lock for the tip, or private
// ownership for replay-local sets. Concurrent snapshot readers never
// see an IndexSet.
package storage

import (
	"math"
	"slices"
	"sort"

	"github.com/mahif/mahif/internal/schema"
	"github.com/mahif/mahif/internal/types"
)

// IndexClass buckets value kinds into comparability classes: ordered
// comparisons are only error-free within one class, which is what the
// planner must certify before letting an index skip rows.
type IndexClass uint8

// The comparability classes.
const (
	IndexNone    IndexClass = iota // no non-NULL values observed
	IndexNumeric                   // int and float (one class: Compare widens)
	IndexString
	IndexBool
)

// ClassOf returns the comparability class of a single non-NULL value
// (IndexNone for NULL).
func ClassOf(v types.Value) IndexClass {
	switch v.Kind() {
	case types.KindInt, types.KindFloat:
		return IndexNumeric
	case types.KindString:
		return IndexString
	case types.KindBool:
		return IndexBool
	}
	return IndexNone
}

// MinIndexRows is the relation size below which IndexSet declines to
// build an index: scanning a few hundred tuples is cheaper than
// maintaining index structures for them.
const MinIndexRows = 256

// maxIndexRows caps indexable relations at int32 positions.
const maxIndexRows = 1<<31 - 1

// Bound is one end of a key interval. V must be non-NULL.
type Bound struct {
	V    types.Value
	Open bool // strict (<, >) rather than inclusive
}

// ordered index core -------------------------------------------------------

type ordKey interface{ ~float64 | ~string }

type ordEntry[K ordKey] struct {
	key K
	pos int32
}

// ordCore is the ordered index shape: a key-sorted run with tombstones
// (pos == -1) plus a small unsorted delta of recent insertions. Probes
// binary-search the run and linearly scan the delta; the delta merges
// into the run when it outgrows a fraction of it, so maintenance stays
// O(1) amortized per touched row instead of O(n log n) per statement.
type ordCore[K ordKey] struct {
	sorted []ordEntry[K]
	dead   int // tombstones in sorted
	delta  []ordEntry[K]
}

func (c *ordCore[K]) add(k K, pos int32) {
	c.delta = append(c.delta, ordEntry[K]{key: k, pos: pos})
	if len(c.delta) > 64 && len(c.delta) > len(c.sorted)/8 {
		c.merge()
	}
}

// remove drops the entry (k, pos), reporting false when it is absent
// (an invariant violation: the caller then discards the whole index).
func (c *ordCore[K]) remove(k K, pos int32) bool {
	i := sort.Search(len(c.sorted), func(i int) bool { return c.sorted[i].key >= k })
	for ; i < len(c.sorted) && c.sorted[i].key == k; i++ {
		if c.sorted[i].pos == pos {
			c.sorted[i].pos = -1
			c.dead++
			if c.dead > 64 && c.dead*2 > len(c.sorted) {
				c.merge()
			}
			return true
		}
	}
	for j := range c.delta {
		if c.delta[j].pos == pos && c.delta[j].key == k {
			last := len(c.delta) - 1
			c.delta[j] = c.delta[last]
			c.delta = c.delta[:last]
			return true
		}
	}
	return false
}

// sortEntries key-orders a run without sort.Slice's reflection-based
// swapper (the sorts here sit on the probe and build hot paths).
func sortEntries[K ordKey](s []ordEntry[K]) {
	slices.SortFunc(s, func(a, b ordEntry[K]) int {
		switch {
		case a.key < b.key:
			return -1
		case a.key > b.key:
			return 1
		}
		return 0
	})
}

// merge folds the delta into the sorted run and compacts tombstones.
func (c *ordCore[K]) merge() {
	sortEntries(c.delta)
	out := make([]ordEntry[K], 0, len(c.sorted)-c.dead+len(c.delta))
	i, j := 0, 0
	for i < len(c.sorted) || j < len(c.delta) {
		switch {
		case i < len(c.sorted) && c.sorted[i].pos < 0:
			i++
		case j >= len(c.delta) || (i < len(c.sorted) && c.sorted[i].key <= c.delta[j].key):
			out = append(out, c.sorted[i])
			i++
		default:
			out = append(out, c.delta[j])
			j++
		}
	}
	c.sorted, c.delta, c.dead = out, nil, 0
}

// inRange tests k against the (optionally open/absent) bounds.
func inRange[K ordKey](k K, haveLo bool, lo K, loOpen bool, haveHi bool, hi K, hiOpen bool) bool {
	if haveLo && (k < lo || (loOpen && k == lo)) {
		return false
	}
	if haveHi && (k > hi || (hiOpen && k == hi)) {
		return false
	}
	return true
}

// scan emits the positions of all live entries within the bounds.
func (c *ordCore[K]) scan(haveLo bool, lo K, loOpen bool, haveHi bool, hi K, hiOpen bool, emit func(int32)) {
	start := 0
	if haveLo {
		if loOpen {
			start = sort.Search(len(c.sorted), func(i int) bool { return c.sorted[i].key > lo })
		} else {
			start = sort.Search(len(c.sorted), func(i int) bool { return c.sorted[i].key >= lo })
		}
	}
	for i := start; i < len(c.sorted); i++ {
		e := c.sorted[i]
		if haveHi && (e.key > hi || (hiOpen && e.key == hi)) {
			break
		}
		if e.pos >= 0 {
			emit(e.pos)
		}
	}
	for _, e := range c.delta {
		if inRange(e.key, haveLo, lo, loOpen, haveHi, hi, hiOpen) {
			emit(e.pos)
		}
	}
}

// estimate counts entries within the bounds without emitting them.
// Tombstones inside the range are overcounted — fine for selectivity
// ranking.
func (c *ordCore[K]) estimate(haveLo bool, lo K, loOpen bool, haveHi bool, hi K, hiOpen bool) int {
	start, end := 0, len(c.sorted)
	if haveLo {
		if loOpen {
			start = sort.Search(len(c.sorted), func(i int) bool { return c.sorted[i].key > lo })
		} else {
			start = sort.Search(len(c.sorted), func(i int) bool { return c.sorted[i].key >= lo })
		}
	}
	if haveHi {
		if hiOpen {
			end = sort.Search(len(c.sorted), func(i int) bool { return c.sorted[i].key >= hi })
		} else {
			end = sort.Search(len(c.sorted), func(i int) bool { return c.sorted[i].key > hi })
		}
	}
	n := end - start
	if n < 0 {
		n = 0
	}
	for _, e := range c.delta {
		if inRange(e.key, haveLo, lo, loOpen, haveHi, hi, hiOpen) {
			n++
		}
	}
	return n
}

// renumber rewrites positions after the rows at the given ascending
// positions were removed from the relation, compacting tombstones and
// dropping entries of deleted rows in the same pass.
func (c *ordCore[K]) renumber(deleted []int32) {
	out := c.sorted[:0]
	for _, e := range c.sorted {
		if e.pos < 0 {
			continue
		}
		if np := shiftPos(e.pos, deleted); np >= 0 {
			out = append(out, ordEntry[K]{key: e.key, pos: np})
		}
	}
	c.sorted, c.dead = out, 0
	dOut := c.delta[:0]
	for _, e := range c.delta {
		if np := shiftPos(e.pos, deleted); np >= 0 {
			dOut = append(dOut, ordEntry[K]{key: e.key, pos: np})
		}
	}
	c.delta = dOut
}

// shiftPos maps a pre-delete position to its post-delete position, or
// -1 when the position itself was deleted. deleted is sorted ascending.
func shiftPos(pos int32, deleted []int32) int32 {
	i := sort.Search(len(deleted), func(i int) bool { return deleted[i] >= pos })
	if i < len(deleted) && deleted[i] == pos {
		return -1
	}
	return pos - int32(i)
}

// ColumnIndex --------------------------------------------------------------

// ColumnIndex maps the values of one column to row positions in key
// order. It holds a column whose non-NULL values share one
// comparability class and are never NaN, and answers range probes
// (an equality is the closed range [k, k]); a column outside that
// domain gets no index.
type ColumnIndex struct {
	class IndexClass
	nulls []int32
	// The ordered core of the class: num for numeric and bool columns
	// (bool keyed 0/1), str for string columns; both nil for IndexNone.
	num *ordCore[float64]
	str *ordCore[string]
}

// Class returns the comparability class of the indexed column's
// non-NULL values.
func (x *ColumnIndex) Class() IndexClass { return x.class }

// isNaN reports whether v is a float NaN, which Compare ties with every
// number and which no key order can therefore place.
func isNaN(v types.Value) bool {
	return v.Kind() == types.KindFloat && math.IsNaN(v.AsFloat())
}

// numKey converts a numeric or boolean value to its float64 key.
func numKey(v types.Value) float64 {
	if v.Kind() == types.KindBool {
		if v.AsBool() {
			return 1
		}
		return 0
	}
	f := v.AsFloat()
	if f == 0 {
		f = 0 // fold -0.0 into +0.0 (they compare equal)
	}
	return f
}

// insert registers value v at position pos, reporting false when the
// index cannot represent it (a class departure, a first non-NULL value
// in an all-NULL column, or a NaN); the caller must then drop the index.
func (x *ColumnIndex) insert(v types.Value, pos int32) bool {
	switch {
	case v.IsNull():
		x.nulls = append(x.nulls, pos)
	case ClassOf(v) != x.class || isNaN(v):
		return false
	case x.str != nil:
		x.str.add(v.AsString(), pos)
	default:
		x.num.add(numKey(v), pos)
	}
	return true
}

// delete drops the entry for value v at position pos, reporting false
// when it is absent (invariant violation; the caller drops the index).
func (x *ColumnIndex) delete(v types.Value, pos int32) bool {
	switch {
	case v.IsNull():
		for i, p := range x.nulls {
			if p == pos {
				last := len(x.nulls) - 1
				x.nulls[i] = x.nulls[last]
				x.nulls = x.nulls[:last]
				return true
			}
		}
		return false
	case ClassOf(v) != x.class:
		return false
	case x.str != nil:
		return x.str.remove(v.AsString(), pos)
	case x.num != nil:
		return x.num.remove(numKey(v), pos)
	}
	return false
}

// renumber rewrites all positions after a batch delete at the given
// ascending positions.
func (x *ColumnIndex) renumber(deleted []int32) {
	if len(deleted) == 0 {
		return
	}
	nOut := x.nulls[:0]
	for _, p := range x.nulls {
		if np := shiftPos(p, deleted); np >= 0 {
			nOut = append(nOut, np)
		}
	}
	x.nulls = nOut
	if x.num != nil {
		x.num.renumber(deleted)
	}
	if x.str != nil {
		x.str.renumber(deleted)
	}
}

// rangeArgs converts bounds to core keys. ok is false when a bound's
// class is incompatible with the column (the ordered comparison could
// error row-wise, so the index must not answer).
func (x *ColumnIndex) rangeArgs(lo, hi *Bound) (haveLo bool, loF float64, loS string, loOpen, haveHi bool, hiF float64, hiS string, hiOpen, ok bool) {
	conv := func(b *Bound) (float64, string, bool) {
		switch c := ClassOf(b.V); {
		case x.class == IndexNone:
			// Column has no non-NULL values: any well-formed bound
			// matches nothing, which the absent core already expresses.
			return 0, "", true
		case c != x.class:
			return 0, "", false
		case c == IndexString:
			return 0, b.V.AsString(), true
		}
		return numKey(b.V), "", true
	}
	if lo != nil {
		loF, loS, ok = conv(lo)
		if !ok {
			return
		}
		haveLo, loOpen = true, lo.Open
	}
	if hi != nil {
		hiF, hiS, ok = conv(hi)
		if !ok {
			return
		}
		haveHi, hiOpen = true, hi.Open
	}
	return haveLo, loF, loS, loOpen, haveHi, hiF, hiS, hiOpen, true
}

// Range appends to buf the NULL positions and the positions whose
// column value lies within the bounds (nil = unbounded). ok is false
// when a bound's class is incompatible with the column's.
func (x *ColumnIndex) Range(lo, hi *Bound, buf []int32) (_ []int32, ok bool) {
	haveLo, loF, loS, loOpen, haveHi, hiF, hiS, hiOpen, ok := x.rangeArgs(lo, hi)
	if !ok {
		return buf, false
	}
	buf = append(buf, x.nulls...)
	emit := func(p int32) { buf = append(buf, p) }
	if x.str != nil {
		x.str.scan(haveLo, loS, loOpen, haveHi, hiS, hiOpen, emit)
	} else if x.num != nil {
		x.num.scan(haveLo, loF, loOpen, haveHi, hiF, hiOpen, emit)
	}
	return buf, true
}

// Estimate bounds the number of positions Range would return; ok as in
// Range.
func (x *ColumnIndex) Estimate(lo, hi *Bound) (int, bool) {
	haveLo, loF, loS, loOpen, haveHi, hiF, hiS, hiOpen, ok := x.rangeArgs(lo, hi)
	if !ok {
		return 0, false
	}
	n := len(x.nulls)
	if x.str != nil {
		n += x.str.estimate(haveLo, loS, loOpen, haveHi, hiS, hiOpen)
	} else if x.num != nil {
		n += x.num.estimate(haveLo, loF, loOpen, haveHi, hiF, hiOpen)
	}
	return n, true
}

// buildColumnIndex scans the column once and builds its index, or
// returns nil when the column mixes comparability classes or holds a
// NaN.
func buildColumnIndex(rel *Relation, col int) *ColumnIndex {
	x := &ColumnIndex{class: IndexNone}
	for _, t := range rel.Tuples {
		v := t[col]
		if v.IsNull() {
			continue
		}
		if isNaN(v) {
			return nil
		}
		if c := ClassOf(v); x.class == IndexNone {
			x.class = c
		} else if x.class != c {
			return nil
		}
	}
	switch x.class {
	case IndexString:
		x.str = &ordCore[string]{sorted: make([]ordEntry[string], 0, len(rel.Tuples))}
	case IndexNumeric, IndexBool:
		x.num = &ordCore[float64]{sorted: make([]ordEntry[float64], 0, len(rel.Tuples))}
	}
	for pos, t := range rel.Tuples {
		switch v := t[col]; {
		case v.IsNull():
			x.nulls = append(x.nulls, int32(pos))
		case x.str != nil:
			x.str.sorted = append(x.str.sorted, ordEntry[string]{key: v.AsString(), pos: int32(pos)})
		default:
			x.num.sorted = append(x.num.sorted, ordEntry[float64]{key: numKey(v), pos: int32(pos)})
		}
	}
	if x.str != nil {
		sortEntries(x.str.sorted)
	}
	if x.num != nil {
		sortEntries(x.num.sorted)
	}
	return x
}

// IndexSet -----------------------------------------------------------------

// relIndexes holds the built indexes of one relation.
type relIndexes struct {
	cols map[int]*ColumnIndex
	bad  map[int]bool // columns whose build failed (mixed classes or a NaN)
}

// IndexSet owns the ordered column indexes of one database state:
// built lazily on first predicate demand, maintained delta-wise by the
// indexed apply path, dropped column by column when maintenance meets
// a value the index cannot hold, and invalidated when a statement
// mutates a relation outside that path. Epoch increments on every change to
// index availability (build, drop, invalidate), which is what cached
// apply plans key on — a plan bound under one epoch must rebind when
// the set of usable indexes changes.
type IndexSet struct {
	epoch   uint64
	rels    map[string]*relIndexes
	scratch *ApplyScratch
}

// ApplyScratch is reusable per-set working memory for statement
// application: probe position buffers, candidate bitmaps, a chunk of
// candidate rows with their condition flags, and SET value staging. It
// lives on the IndexSet because the set is exclusively owned by one
// state's apply stream, so reuse across statements is race-free by the
// same contract that lets the indexes themselves go unlocked. Nothing
// in here survives a statement: values staged in Vals are copied at
// commit into the relation's rows, or into fresh rows that replace them
// when the rows are shared or an index observes the rewrite, and
// Pos/Rows/bitmap/flag contents are consumed within the apply that
// produced them.
type ApplyScratch struct {
	Pos   []int32
	Rows  []schema.Tuple
	Vals  []types.Value
	bits  []uint64
	flags []bool
}

// Flags returns n flags (contents unspecified), reusing the scratch
// allocation when it is large enough.
func (sc *ApplyScratch) Flags(n int) []bool {
	if cap(sc.flags) < n {
		sc.flags = make([]bool, n)
	}
	return sc.flags[:n]
}

// Bitmap returns a zeroed bitmap of the given word count, reusing the
// scratch allocation when it is large enough.
func (sc *ApplyScratch) Bitmap(words int) []uint64 {
	if cap(sc.bits) < words {
		sc.bits = make([]uint64, words)
	} else {
		sc.bits = sc.bits[:words]
		clear(sc.bits)
	}
	return sc.bits
}

// Scratch returns the set's apply scratch, allocating it on first use.
func (s *IndexSet) Scratch() *ApplyScratch {
	if s.scratch == nil {
		s.scratch = &ApplyScratch{}
	}
	return s.scratch
}

// NewIndexSet returns an empty index set.
func NewIndexSet() *IndexSet {
	return &IndexSet{rels: map[string]*relIndexes{}}
}

// Epoch returns the availability epoch (see type doc).
func (s *IndexSet) Epoch() uint64 { return s.epoch }

func (s *IndexSet) relFor(k string) *relIndexes {
	r := s.rels[k]
	if r == nil {
		r = &relIndexes{cols: map[int]*ColumnIndex{}, bad: map[int]bool{}}
		s.rels[k] = r
	}
	return r
}

// Invalidate drops all indexes of the named relation (called when its
// tuples were mutated outside the maintained path).
func (s *IndexSet) Invalidate(name string) {
	k := key(name)
	if _, ok := s.rels[k]; ok {
		delete(s.rels, k)
		s.epoch++
	}
}

// dropCol discards one column index after an invariant violation, a
// class departure or a NaN.
func (s *IndexSet) dropCol(k string, col int) {
	if r := s.rels[k]; r != nil {
		if _, ok := r.cols[col]; ok {
			delete(r.cols, col)
			s.epoch++
		}
	}
}

// Ordered returns the index on rel's column col, building one as
// needed, or nil when the column cannot hold one (mixed classes or a
// NaN) or the relation is too small to be worth indexing.
func (s *IndexSet) Ordered(name string, rel *Relation, col int) *ColumnIndex {
	k := key(name)
	r := s.rels[k]
	if r != nil {
		if x := r.cols[col]; x != nil {
			return x
		}
		if r.bad[col] {
			return nil
		}
	}
	if len(rel.Tuples) < MinIndexRows || len(rel.Tuples) > maxIndexRows {
		return nil
	}
	x := buildColumnIndex(rel, col)
	if x == nil {
		s.relFor(k).bad[col] = true
		return nil
	}
	s.relFor(k).cols[col] = x
	s.epoch++
	return x
}

// NoteAppend maintains the indexes of name after rows [first, len)
// were appended to rel. Like all maintenance hooks it must run under
// the same exclusive access as the mutation itself.
func (s *IndexSet) NoteAppend(name string, rel *Relation, first int) {
	k := key(name)
	r := s.rels[k]
	if r == nil {
		return
	}
	if len(rel.Tuples) > maxIndexRows {
		s.Invalidate(name)
		return
	}
	for col, x := range r.cols {
		ok := true
		for pos := first; pos < len(rel.Tuples) && ok; pos++ {
			t := rel.Tuples[pos]
			if col >= len(t) {
				ok = false
				break
			}
			ok = x.insert(t[col], int32(pos))
		}
		if !ok {
			s.dropCol(k, col)
		}
	}
}

// NoteReplace maintains the indexes of name after rel's row at pos was
// rewritten in place from old to new.
func (s *IndexSet) NoteReplace(name string, pos int, old, new schema.Tuple) {
	r := s.rels[key(name)]
	if r == nil {
		return
	}
	for col, x := range r.cols {
		if col >= len(old) || col >= len(new) {
			s.dropCol(key(name), col)
			continue
		}
		ov, nv := old[col], new[col]
		if ov.Equal(nv) {
			continue // same key either way (numerics fold cross-kind)
		}
		if !x.delete(ov, int32(pos)) || !x.insert(nv, int32(pos)) {
			s.dropCol(key(name), col)
		}
	}
}

// HasIndexOnAny reports whether any currently-built index of name sits
// on one of the given column ordinals. The UPDATE path uses it to prove
// before it writes that its rewrites cannot move an indexed key —
// every indexed column's value is copied verbatim into the replacement
// row — and skip per-row replace maintenance entirely.
func (s *IndexSet) HasIndexOnAny(name string, cols []int) bool {
	r := s.rels[key(name)]
	if r == nil {
		return false
	}
	for _, c := range cols {
		if r.cols[c] != nil {
			return true
		}
	}
	return false
}

// NoteDelete renumbers the indexes of name after the rows at the given
// ascending positions were removed.
func (s *IndexSet) NoteDelete(name string, deleted []int32) {
	if len(deleted) == 0 {
		return
	}
	r := s.rels[key(name)]
	if r == nil {
		return
	}
	for _, x := range r.cols {
		x.renumber(deleted)
	}
}
