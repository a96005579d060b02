package delta

import (
	"math"
	"math/rand"
	"testing"

	"github.com/mahif/mahif/internal/schema"
	"github.com/mahif/mahif/internal/storage"
	"github.com/mahif/mahif/internal/types"
	"github.com/mahif/mahif/internal/workload"
)

// diffOracle is the pure multiset diff Compute was before positional
// cancellation: subtract each whole relation from the other as bags.
func diffOracle(oldRel, newRel *storage.Relation) (minus, plus *storage.Relation) {
	subtract := func(from, by *storage.Relation) *storage.Relation {
		ix := storage.NewTupleIndex(len(by.Tuples))
		for _, t := range by.Tuples {
			ix.Add(t)
		}
		out := storage.NewRelation(oldRel.Schema)
		for _, t := range from.Tuples {
			if !ix.Remove(t) {
				out.Tuples = append(out.Tuples, t)
			}
		}
		return out
	}
	return subtract(oldRel, newRel), subtract(newRel, oldRel)
}

// mixedCells is a small pool, so random rows collide often: values equal
// across kinds (1 and 1.0), both zeros, NULL, and every kind in one
// column.
var mixedCells = []types.Value{
	types.Null(), types.Int(0), types.Float(0), types.Float(math.Copysign(0, -1)),
	types.Int(1), types.Float(1), types.Float(2.5), types.Int(2),
	types.String("1"), types.String("a"), types.Bool(true), types.Bool(false),
}

var mixedSchema = schema.New("t", schema.Col("a", types.KindInt), schema.Col("b", types.KindString))

func mixedRow(r *rand.Rand) schema.Tuple {
	return schema.Tuple{mixedCells[r.Intn(len(mixedCells))], mixedCells[r.Intn(len(mixedCells))]}
}

func mixedBag(r *rand.Rand, n int) *storage.Relation {
	out := storage.NewRelation(mixedSchema)
	for i := 0; i < n; i++ {
		out.Tuples = append(out.Tuples, mixedRow(r))
	}
	return out
}

func permuted(r *rand.Rand, in *storage.Relation) *storage.Relation {
	out := storage.NewRelation(in.Schema)
	out.Tuples = append(out.Tuples, in.Tuples...)
	r.Shuffle(len(out.Tuples), func(i, j int) { out.Tuples[i], out.Tuples[j] = out.Tuples[j], out.Tuples[i] })
	return out
}

// TestComputeMatchesMultisetDiff: whatever the positional pass cancels,
// Compute must report the multiset difference, in canonical order, and
// independently of the order either side arrives in.
func TestComputeMatchesMultisetDiff(t *testing.T) {
	r := rand.New(rand.NewSource(14))
	for i := 0; i < 2000; i++ {
		a := mixedBag(r, r.Intn(25))
		var b *storage.Relation
		switch i % 4 {
		case 0: // unrelated bags
			b = mixedBag(r, r.Intn(25))
		case 1: // a reenactment pair: same rows, a few rewritten in place
			b = permuted(r, a)
			copy(b.Tuples, a.Tuples)
			for k := r.Intn(4); k > 0 && len(b.Tuples) > 0; k-- {
				b.Tuples[r.Intn(len(b.Tuples))] = mixedRow(r)
			}
		case 2: // a row deleted on one side only: every later row is misaligned
			b = storage.NewRelation(a.Schema)
			b.Tuples = append(b.Tuples, a.Tuples...)
			if n := len(b.Tuples); n > 0 {
				k := r.Intn(n)
				b.Tuples = append(b.Tuples[:k:k], b.Tuples[k+1:]...)
			}
			if r.Intn(2) == 0 {
				b.Tuples = append(b.Tuples, mixedRow(r))
			}
		case 3: // the same bag in another order
			b = permuted(r, a)
		}
		got := Compute(a, b)
		wantMinus, wantPlus := diffOracle(a, b)
		for _, side := range []struct {
			name string
			got  []schema.Tuple
			want *storage.Relation
		}{{"minus", got.Minus, wantMinus}, {"plus", got.Plus, wantPlus}} {
			gotRel := storage.NewRelation(a.Schema)
			gotRel.Tuples = side.got
			if !gotRel.EqualAsBag(side.want) {
				t.Fatalf("case %d %s: got %v, multiset diff is %v\nold %v\nnew %v", i, side.name, side.got, side.want.Tuples, a.Tuples, b.Tuples)
			}
			for k := 1; k < len(side.got); k++ {
				if side.got[k-1].Compare(side.got[k]) > 0 {
					t.Fatalf("case %d %s not in canonical order: %v", i, side.name, side.got)
				}
			}
		}
		if i%4 == 3 && !got.Empty() {
			t.Fatalf("case %d: permuted bag has a delta: %s", i, got)
		}
		if again := Compute(permuted(r, a), permuted(r, b)); !got.Equal(again) {
			t.Fatalf("case %d: delta depends on input order:\n%s\n%s", i, got, again)
		}
	}
}

// taxiPair is a reenactment-shaped input: an 8 000-row Taxi relation
// and a copy with about 6 % of the rows rewritten in place.
func taxiPair() (orig, mod *storage.Relation) {
	orig = workload.Taxi(8000, 1).Rel
	mod = storage.NewRelation(orig.Schema)
	mod.Tuples = append(mod.Tuples, orig.Tuples...)
	for i := 0; i < len(mod.Tuples); i += 16 {
		row := mod.Tuples[i].Clone()
		row[6] = types.Float(row[6].AsFloat() + 1)
		mod.Tuples[i] = row
	}
	return orig, mod
}

var benchSink *Result

// BenchmarkDeltaCompute: aligned is what an update-only history
// produces (cost ∝ |Δ| after a cheap positional pass); misaligned drops
// the first row of one side, so nothing cancels and the whole relation
// goes through the index.
func BenchmarkDeltaCompute(b *testing.B) {
	orig, mod := taxiPair()
	shifted := storage.NewRelation(mod.Schema)
	shifted.Tuples = mod.Tuples[1:]
	for _, bc := range []struct {
		name string
		mod  *storage.Relation
	}{{"aligned", mod}, {"misaligned", shifted}} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				benchSink = Compute(orig, bc.mod)
			}
		})
	}
}
