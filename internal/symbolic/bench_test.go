package symbolic

import (
	"context"
	"fmt"
	"testing"

	"github.com/mahif/mahif/internal/sql"
	"github.com/mahif/mahif/internal/storage"
	"github.com/mahif/mahif/internal/workload"
)

// BenchmarkSnapshotMiss measures one snapshot miss as program slicing
// meets it on the gate's slice_heavy workload: 5 000 Taxi rows, a cached
// start whose columnar view and Φ_D are built, and a miss one
// statement later — a range UPDATE of one payload column selecting
// about 10 % of the rows by a uniformly distributed key. The timed part
// is what a what-if pays for the miss before its solver runs: the
// replay (SnapshotCtx), the view (SharedColumnar) and Φ_D (Compress).
// Run with -benchmem.
func BenchmarkSnapshotMiss(b *testing.B) {
	vdb := storage.NewVersioned(workload.Taxi(5000, 1).Database())
	lo := workload.SelRange / 3
	for _, src := range []string{
		"UPDATE trips SET extras = 0 WHERE trip_id = 7", // version 1: the cached start
		fmt.Sprintf("UPDATE trips SET tips = tips + 1 WHERE trip_seconds >= %d AND trip_seconds < %d", lo, lo+workload.SelRange/10),
		"DELETE FROM trips WHERE trip_id = 0", // keeps version 2 off the tip
	} {
		if err := vdb.Apply(sql.MustParseStatement(src)); err != nil {
			b.Fatal(err)
		}
	}
	ctx := context.Background()
	artifacts := func(c *storage.SnapshotCache, ver int) {
		db, err := c.SnapshotCtx(ctx, ver)
		if err != nil {
			b.Fatal(err)
		}
		rel, err := db.Relation("trips")
		if err != nil {
			b.Fatal(err)
		}
		if _, err := rel.SharedColumnar(); err != nil {
			b.Fatal(err)
		}
		if _, err := Compress(rel, CompressOptions{}); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		c := storage.NewSnapshotCache(vdb)
		artifacts(c, 1)
		b.StartTimer()
		artifacts(c, 2)
	}
}
