package storage

import (
	"fmt"
	"testing"

	"github.com/mahif/mahif/internal/schema"
	"github.com/mahif/mahif/internal/types"
)

func intRel(name string, vals ...int64) *Relation {
	r := NewRelation(schema.New(name, schema.Col("a", types.KindInt)))
	for _, v := range vals {
		r.Add(schema.Tuple{types.Int(v)})
	}
	return r
}

func TestRelationAddAndLen(t *testing.T) {
	r := intRel("t", 1, 2, 3)
	if r.Len() != 3 {
		t.Errorf("Len = %d", r.Len())
	}
}

func TestRelationAddArityPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic on arity mismatch")
		}
	}()
	intRel("t").Add(schema.Tuple{types.Int(1), types.Int(2)})
}

func TestRelationClone(t *testing.T) {
	r := intRel("t", 1, 2)
	c := r.Clone()
	c.Tuples[0][0] = types.Int(99)
	c.Add(schema.Tuple{types.Int(3)})
	if r.Len() != 2 || r.Tuples[0][0].AsInt() != 1 {
		t.Error("Clone shares storage with original")
	}
}

func TestEqualAsBag(t *testing.T) {
	a := intRel("t", 1, 2, 2)
	b := intRel("t", 2, 1, 2)
	if !a.EqualAsBag(b) {
		t.Error("order must not matter")
	}
	c := intRel("t", 1, 2)
	if a.EqualAsBag(c) {
		t.Error("multiplicity must matter")
	}
	d := intRel("t", 1, 2, 3)
	if a.EqualAsBag(d) {
		t.Error("different values compared equal")
	}
}

func TestDatabaseRelations(t *testing.T) {
	db := NewDatabase()
	db.AddRelation(intRel("A", 1))
	db.AddRelation(intRel("B", 2))
	if _, err := db.Relation("a"); err != nil {
		t.Errorf("case-insensitive lookup failed: %v", err)
	}
	if _, err := db.Relation("missing"); err == nil {
		t.Error("missing relation must error")
	}
	names := db.RelationNames()
	if len(names) != 2 || names[0] != "a" || names[1] != "b" {
		t.Errorf("RelationNames = %v", names)
	}
	if db.TotalTuples() != 2 {
		t.Errorf("TotalTuples = %d", db.TotalTuples())
	}
}

func TestDatabaseClone(t *testing.T) {
	db := NewDatabase()
	db.AddRelation(intRel("A", 1))
	c := db.Clone()
	rel, _ := c.Relation("A")
	rel.Add(schema.Tuple{types.Int(2)})
	orig, _ := db.Relation("A")
	if orig.Len() != 1 {
		t.Error("Clone shares relations")
	}
}

// bump is a test mutator adding a constant to every tuple.
type bump struct {
	rel string
	by  int64
}

func (b bump) Apply(db *Database) error {
	r, err := db.Relation(b.rel)
	if err != nil {
		return err
	}
	for i, tup := range r.Tuples {
		r.Tuples[i] = schema.Tuple{types.Int(tup[0].AsInt() + b.by)}
	}
	return nil
}

// ApplyIndexed rewrites every row outside the maintained path, so the
// relation's indexes, if any, can no longer vouch for it.
func (b bump) ApplyIndexed(db *Database, ix *IndexSet) error {
	if ix != nil {
		ix.Invalidate(b.rel)
	}
	return b.Apply(db)
}

func (b bump) String() string { return fmt.Sprintf("bump %s by %d", b.rel, b.by) }

func TestVersionedTimeTravel(t *testing.T) {
	db := NewDatabase()
	db.AddRelation(intRel("t", 10))
	v := NewVersioned(db)
	for i := 0; i < 5; i++ {
		if err := v.Apply(bump{rel: "t", by: 1}); err != nil {
			t.Fatal(err)
		}
	}
	if v.NumVersions() != 5 {
		t.Errorf("NumVersions = %d", v.NumVersions())
	}
	for ver := 0; ver <= 5; ver++ {
		snap, err := v.Version(ver)
		if err != nil {
			t.Fatal(err)
		}
		rel, _ := snap.Relation("t")
		if got := rel.Tuples[0][0].AsInt(); got != int64(10+ver) {
			t.Errorf("Version(%d) = %d, want %d", ver, got, 10+ver)
		}
	}
	cur, _ := v.Current().Relation("t")
	if cur.Tuples[0][0].AsInt() != 15 {
		t.Errorf("current = %v", cur.Tuples[0])
	}
}

func TestVersionedVersionIsCopy(t *testing.T) {
	db := NewDatabase()
	db.AddRelation(intRel("t", 1))
	v := NewVersioned(db)
	if err := v.Apply(bump{rel: "t", by: 1}); err != nil {
		t.Fatal(err)
	}
	snap, _ := v.Version(0)
	rel, _ := snap.Relation("t")
	rel.Tuples[0][0] = types.Int(999)
	again, _ := v.Version(0)
	rel2, _ := again.Relation("t")
	if rel2.Tuples[0][0].AsInt() != 1 {
		t.Error("Version returned a shared copy")
	}
}

func TestVersionedCheckpoints(t *testing.T) {
	db := NewDatabase()
	db.AddRelation(intRel("t", 0))
	v := NewVersioned(db)
	for i := 0; i < 7; i++ {
		if err := v.Apply(bump{rel: "t", by: 1}); err != nil {
			t.Fatal(err)
		}
		if i%2 == 1 {
			addTipCheckpoint(t, v)
		}
	}
	for ver := 0; ver <= 7; ver++ {
		snap, err := v.Version(ver)
		if err != nil {
			t.Fatal(err)
		}
		rel, _ := snap.Relation("t")
		if got := rel.Tuples[0][0].AsInt(); got != int64(ver) {
			t.Errorf("Version(%d) = %d with checkpoints", ver, got)
		}
	}
}

// addTipCheckpoint registers a private copy of the current state as the
// checkpoint at the tip, as the durable store does when it writes one.
func addTipCheckpoint(t *testing.T, v *VersionedDatabase) {
	t.Helper()
	n := v.NumVersions()
	ck, err := v.Version(n)
	if err != nil {
		t.Fatal(err)
	}
	if err := v.AddCheckpoint(n, ck); err != nil {
		t.Fatal(err)
	}
}

func TestVersionedOutOfRange(t *testing.T) {
	v := NewVersioned(NewDatabase())
	if _, err := v.Version(1); err == nil {
		t.Error("Version beyond log must error")
	}
	if _, err := v.Version(-1); err == nil {
		t.Error("negative version must error")
	}
}

func TestVersionedLogCopy(t *testing.T) {
	db := NewDatabase()
	db.AddRelation(intRel("t", 0))
	v := NewVersioned(db)
	if err := v.Apply(bump{rel: "t", by: 1}); err != nil {
		t.Fatal(err)
	}
	log := v.Log()
	if len(log) != 1 {
		t.Fatalf("log length %d", len(log))
	}
	log[0] = nil // must not affect internal state
	if v.Log()[0] == nil {
		t.Error("Log returned internal slice")
	}
}
