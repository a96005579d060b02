package storage

import (
	"math/rand"
	"testing"

	"github.com/mahif/mahif/internal/schema"
	"github.com/mahif/mahif/internal/types"
)

// checkNoTombstones asserts the structural invariant Remove
// compaction maintains: no resident entry has a zero count, no bucket
// is empty.
func checkNoTombstones(t *testing.T, ix *TupleIndex) {
	t.Helper()
	for h, bucket := range ix.buckets {
		if len(bucket) == 0 {
			t.Fatalf("bucket %d is resident but empty", h)
		}
		for _, e := range bucket {
			if e.count <= 0 {
				t.Fatalf("bucket %d holds tombstone %v (count %d)", h, e.tuple, e.count)
			}
		}
	}
}

// TestTupleIndexChurnCompaction drives random add/remove churn — the
// steady state of incremental index maintenance — against a multiset
// oracle and asserts compaction keeps the index tombstone-free
// throughout. Before Remove compacted zero-count entries, this churn
// accumulated dead entries that degraded probe cost and inflated
// the entry count.
func TestTupleIndexChurnCompaction(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	ix := NewTupleIndex(0)
	oracle := map[int64]int{}
	size := 0
	tup := func(v int64) schema.Tuple { return schema.Tuple{types.Int(v)} }
	for step := 0; step < 20000; step++ {
		v := int64(rng.Intn(40)) // small domain forces heavy churn per key
		if rng.Intn(2) == 0 {
			ix.Add(tup(v))
			oracle[v]++
			size++
		} else {
			removed := ix.Remove(tup(v))
			if removed != (oracle[v] > 0) {
				t.Fatalf("step %d: Remove(%d) = %v with oracle count %d", step, v, removed, oracle[v])
			}
			if removed {
				oracle[v]--
				if oracle[v] == 0 {
					delete(oracle, v)
				}
				size--
			}
		}
		if ix.Len() != size || distinct(ix) != len(oracle) {
			t.Fatalf("step %d: Len=%d Distinct=%d, want %d/%d", step, ix.Len(), distinct(ix), size, len(oracle))
		}
	}
	checkNoTombstones(t, ix)
	for v, n := range oracle {
		if got := count(ix, tup(v)); got != n {
			t.Fatalf("Count(%d) = %d, want %d", v, got, n)
		}
	}
	// Drain completely: every bucket must be deleted, not left empty.
	for v, n := range oracle {
		for i := 0; i < n; i++ {
			if !ix.Remove(tup(v)) {
				t.Fatalf("drain: Remove(%d) failed with %d copies left", v, n-i)
			}
		}
	}
	if ix.Len() != 0 || distinct(ix) != 0 || len(ix.buckets) != 0 {
		t.Fatalf("drained index retains state: Len=%d Distinct=%d buckets=%d",
			ix.Len(), distinct(ix), len(ix.buckets))
	}
}

// TestTupleIndexCompactSwapDelete pins the swap-delete mechanics on a
// multi-entry bucket (a genuine hash collision is impractical to
// construct, so the bucket is assembled directly): the emptied entry is
// replaced by the last, the vacated slot is zeroed so the tuple
// reference is released, and the bucket shrinks by one.
func TestTupleIndexCompactSwapDelete(t *testing.T) {
	a, b, c := schema.Tuple{types.Int(1)}, schema.Tuple{types.Int(2)}, schema.Tuple{types.Int(3)}
	ix := NewTupleIndex(0)
	const h = uint64(42)
	backing := []indexEntry{{tuple: a, count: 0}, {tuple: b, count: 1}, {tuple: c, count: 2}}
	ix.buckets[h] = backing
	ix.size = 3

	ix.compact(h, backing, 0)
	bucket := ix.buckets[h]
	if len(bucket) != 2 {
		t.Fatalf("bucket length = %d, want 2", len(bucket))
	}
	if !bucket[0].tuple.Equal(c) || bucket[0].count != 2 {
		t.Fatalf("slot 0 = %v×%d, want last entry swapped in", bucket[0].tuple, bucket[0].count)
	}
	if backing[2].tuple != nil || backing[2].count != 0 {
		t.Fatalf("vacated slot not zeroed: %v×%d", backing[2].tuple, backing[2].count)
	}

	// Emptying the final entries must delete the bucket outright.
	ix.compact(h, bucket, 1)
	ix.compact(h, ix.buckets[h], 0)
	if _, ok := ix.buckets[h]; ok {
		t.Fatal("bucket survives after its last entry was compacted")
	}
}
