package storage

import (
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/mahif/mahif/internal/schema"
	"github.com/mahif/mahif/internal/types"
)

// TestVersionedReplayProperty: for a random mutator sequence, every
// historical version must equal the state obtained by replaying the
// prefix over the base — with and without checkpoints — and
// reconstructing a version must never disturb the current state.
func TestVersionedReplayProperty(t *testing.T) {
	f := func(deltas []int8, checkpointEvery uint8) bool {
		if len(deltas) > 24 {
			deltas = deltas[:24]
		}
		db := NewDatabase()
		db.AddRelation(intRel("t", 100))
		v := NewVersioned(db)
		every := int(checkpointEvery % 5)
		expect := []int64{100}
		cur := int64(100)
		for _, d := range deltas {
			if err := v.Apply(bump{rel: "t", by: int64(d)}); err != nil {
				return false
			}
			cur += int64(d)
			expect = append(expect, cur)
			if n := v.NumVersions(); every > 0 && n%every == 0 {
				ck, err := v.Version(n)
				if err != nil || v.AddCheckpoint(n, ck) != nil {
					return false
				}
			}
		}
		for ver := 0; ver <= len(deltas); ver++ {
			snap, err := v.Version(ver)
			if err != nil {
				return false
			}
			rel, err := snap.Relation("t")
			if err != nil || rel.Tuples[0][0].AsInt() != expect[ver] {
				return false
			}
		}
		now, err := v.Current().Relation("t")
		return err == nil && now.Tuples[0][0].AsInt() == cur
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

// TestCloneIsolationProperty: clones never alias the original; mutating
// one side must not leak into the other, whatever the contents.
func TestCloneIsolationProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(83))
	for trial := 0; trial < 100; trial++ {
		db := NewDatabase()
		nRel := 1 + rng.Intn(3)
		for r := 0; r < nRel; r++ {
			rel := NewRelation(schema.New(
				string(rune('a'+r)),
				schema.Col("x", types.KindInt),
				schema.Col("s", types.KindString),
			))
			for i := 0; i < rng.Intn(10); i++ {
				rel.Add(schema.Tuple{
					types.Int(int64(rng.Intn(100))),
					types.String(string(rune('p' + rng.Intn(5)))),
				})
			}
			db.AddRelation(rel)
		}
		clone := db.Clone()
		// Mutate the clone thoroughly.
		for _, name := range clone.RelationNames() {
			rel, _ := clone.Relation(name)
			for i := range rel.Tuples {
				rel.Tuples[i][0] = types.Int(-1)
			}
			rel.Add(schema.Tuple{types.Int(-2), types.String("zz")})
		}
		// The original must be untouched.
		for _, name := range db.RelationNames() {
			orig, _ := db.Relation(name)
			for _, tup := range orig.Tuples {
				if tup[0].AsInt() < 0 {
					t.Fatalf("trial %d: clone mutation leaked into original", trial)
				}
			}
		}
	}
}
