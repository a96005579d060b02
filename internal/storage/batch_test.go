package storage

import (
	"testing"

	"github.com/mahif/mahif/internal/schema"
	"github.com/mahif/mahif/internal/types"
)

// TestPartitionTuples pins the contract the parallel scan merge relies
// on: chunks are contiguous, non-empty, at most the requested count,
// and concatenate back to the input exactly.
func TestPartitionTuples(t *testing.T) {
	mk := func(n int) []schema.Tuple {
		out := make([]schema.Tuple, n)
		for i := range out {
			out[i] = schema.NewTuple(types.Int(int64(i)))
		}
		return out
	}
	for _, tc := range []struct{ n, parts int }{
		{0, 4}, {1, 4}, {3, 4}, {4, 4}, {5, 4}, {1024, 4}, {1025, 4},
		{10, 1}, {10, 0}, {10, -3}, {7, 100},
	} {
		tuples := mk(tc.n)
		parts := PartitionTuples(tuples, tc.parts)
		if tc.parts > 0 && len(parts) > tc.parts {
			t.Fatalf("n=%d parts=%d: got %d chunks", tc.n, tc.parts, len(parts))
		}
		var total int
		for pi, p := range parts {
			if len(p) == 0 {
				t.Fatalf("n=%d parts=%d: empty chunk %d", tc.n, tc.parts, pi)
			}
			for _, tp := range p {
				if tp[0].AsInt() != int64(total) {
					t.Fatalf("n=%d parts=%d: order broken at global row %d", tc.n, tc.parts, total)
				}
				total++
			}
		}
		if total != tc.n {
			t.Fatalf("n=%d parts=%d: chunks cover %d rows", tc.n, tc.parts, total)
		}
	}
}
