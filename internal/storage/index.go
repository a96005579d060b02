package storage

import (
	"github.com/mahif/mahif/internal/schema"
)

// TupleIndex is a hash-based multiset of tuples: the typed row hash of
// each tuple (schema.Tuple.Hash) buckets entries, and value-level
// equality (schema.Tuple.Equal) resolves collisions. The row delta
// (delta.Compute) subtracts the residual of its positional cancellation
// through one, the patch route of an aggregate report (core's
// patchRelation) removes a delta's Minus tuples through one, and
// Relation.EqualAsBag, the bag comparison of the differential tests, is
// built on it. The columnar delta of Alg. 2 (delta.ComputeColumnar)
// reproduces its matching without it.
type TupleIndex struct {
	buckets map[uint64][]indexEntry
	size    int // total multiplicity across entries
}

type indexEntry struct {
	tuple schema.Tuple
	count int
}

// NewTupleIndex returns an empty index with capacity for about n
// distinct tuples.
func NewTupleIndex(n int) *TupleIndex {
	return &TupleIndex{buckets: make(map[uint64][]indexEntry, n)}
}

// Add increments the multiplicity of t, registering it if absent.
func (ix *TupleIndex) Add(t schema.Tuple) {
	h := t.Hash()
	bucket := ix.buckets[h]
	for i := range bucket {
		if bucket[i].tuple.Equal(t) {
			bucket[i].count++
			ix.size++
			return
		}
	}
	ix.buckets[h] = append(bucket, indexEntry{tuple: t, count: 1})
	ix.size++
}

// Remove decrements the multiplicity of t if it is present with a
// positive count and reports whether it did. An entry whose count
// reaches zero is compacted away (and its bucket deleted when it was
// the last entry), so add/remove churn — the steady state of
// incremental index maintenance — cannot accumulate tombstones that
// degrade probe cost and Distinct accounting.
func (ix *TupleIndex) Remove(t schema.Tuple) bool {
	h := t.Hash()
	bucket := ix.buckets[h]
	for i := range bucket {
		if bucket[i].count > 0 && bucket[i].tuple.Equal(t) {
			bucket[i].count--
			ix.size--
			if bucket[i].count == 0 {
				ix.compact(h, bucket, i)
			}
			return true
		}
	}
	return false
}

// compact swap-deletes the emptied entry at index i of bucket h.
func (ix *TupleIndex) compact(h uint64, bucket []indexEntry, i int) {
	last := len(bucket) - 1
	bucket[i] = bucket[last]
	bucket[last] = indexEntry{} // release the tuple reference
	if last == 0 {
		delete(ix.buckets, h)
	} else {
		ix.buckets[h] = bucket[:last]
	}
}

// Len returns the total multiplicity (number of tuples counting
// duplicates).
func (ix *TupleIndex) Len() int { return ix.size }
