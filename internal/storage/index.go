package storage

import (
	"github.com/mahif/mahif/internal/schema"
)

// TupleIndex is a hash-based multiset of tuples: the typed row hash of
// each tuple (schema.Tuple.Hash) buckets entries, and value-level
// equality (schema.Tuple.Equal) resolves collisions. It replaces the
// string-keyed maps built from schema.Tuple.Key on the multiset hot
// paths — delta computation and bag equality — which paid an
// fmt.Fprintf-built string per tuple per operation.
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

// IndexOf builds the multiset index of a relation.
func IndexOf(r *Relation) *TupleIndex {
	ix := NewTupleIndex(len(r.Tuples))
	for _, t := range r.Tuples {
		ix.Add(t)
	}
	return ix
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

// Count returns the multiplicity of t.
func (ix *TupleIndex) Count(t schema.Tuple) int {
	bucket := ix.buckets[t.Hash()]
	for i := range bucket {
		if bucket[i].tuple.Equal(t) {
			return bucket[i].count
		}
	}
	return 0
}

// Len returns the total multiplicity (number of tuples counting
// duplicates).
func (ix *TupleIndex) Len() int { return ix.size }

// Distinct returns the number of distinct tuples. Remove compacts
// emptied entries, so every resident entry has positive count and the
// bucket sizes are the exact distinct count.
func (ix *TupleIndex) Distinct() int {
	n := 0
	for _, bucket := range ix.buckets {
		n += len(bucket)
	}
	return n
}

// Range visits every distinct tuple with its current multiplicity, in
// unspecified order. Entries whose count dropped to zero via Remove are
// skipped.
func (ix *TupleIndex) Range(visit func(t schema.Tuple, count int)) {
	for _, bucket := range ix.buckets {
		for i := range bucket {
			if bucket[i].count > 0 {
				visit(bucket[i].tuple, bucket[i].count)
			}
		}
	}
}

// Diff visits every tuple whose multiplicity in ix exceeds its
// multiplicity in o, with the (positive) difference. Buckets are
// aligned by their shared hash, so no tuple is re-hashed and the other
// index is probed once per bucket instead of once per distinct tuple —
// the bag-difference inner loop of delta computation.
func (ix *TupleIndex) Diff(o *TupleIndex, visit func(t schema.Tuple, d int)) {
	for h, bucket := range ix.buckets {
		other := o.buckets[h]
		for i := range bucket {
			if bucket[i].count <= 0 {
				continue
			}
			on := 0
			for j := range other {
				if other[j].tuple.Equal(bucket[i].tuple) {
					on = other[j].count
					break
				}
			}
			if d := bucket[i].count - on; d > 0 {
				visit(bucket[i].tuple, d)
			}
		}
	}
}

// EqualMultiset reports whether two indexes contain the same multiset.
func (ix *TupleIndex) EqualMultiset(o *TupleIndex) bool {
	if ix.size != o.size {
		return false
	}
	equal := true
	ix.Range(func(t schema.Tuple, count int) {
		if !equal || o.Count(t) != count {
			equal = false
		}
	})
	return equal
}
