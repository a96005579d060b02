// Example session: an analyst iterating a family of hypothetical fee
// thresholds over one history through a long-lived Session, showing
// the cross-call cache reuse and a cancelled query.
package main

import (
	"context"
	"errors"
	"fmt"
	"time"

	"github.com/mahif/mahif"
)

func main() {
	// Orders relation + two-statement fee history.
	rel := mahif.NewRelation(mahif.NewSchema("orders",
		mahif.Col("id", mahif.KindInt),
		mahif.Col("price", mahif.KindFloat),
		mahif.Col("fee", mahif.KindFloat),
	))
	for i := 0; i < 1000; i++ {
		rel.Add(mahif.NewTuple(mahif.Int(int64(i)), mahif.Float(float64(20+i%80)), mahif.Float(5)))
	}
	db := mahif.NewDatabase()
	db.AddRelation(rel)
	vdb := mahif.NewVersioned(db)
	for _, src := range []string{
		`UPDATE orders SET fee = 0 WHERE price >= 50`,
		`UPDATE orders SET fee = fee + 1 WHERE price < 40`,
	} {
		if err := vdb.Apply(mahif.MustParseStatement(src)); err != nil {
			panic(err)
		}
	}
	engine := mahif.NewEngine(vdb)

	// One session, many related hypotheticals: the time-travel
	// snapshot is built once; each what-if compiles its own
	// reenactment programs.
	sess := engine.NewSession()
	ctx := context.Background()
	for _, threshold := range []int{55, 56, 57, 58} {
		mods := []mahif.Modification{mahif.ReplaceSQL(0,
			fmt.Sprintf(`UPDATE orders SET fee = 0 WHERE price >= %d`, threshold))}
		delta, _, err := sess.WhatIfCtx(ctx, mods, mahif.DefaultOptions())
		if err != nil {
			panic(err)
		}
		fmt.Printf("threshold %d: %d tuples differ\n", threshold, delta.Size())
	}
	st := sess.Stats()
	fmt.Printf("session: %d calls, snapshot hits/misses %d/%d, programs reused/compiled %d/%d\n",
		st.Calls, st.SnapshotHits, st.SnapshotMisses, st.QueryHits, st.QueryMisses)

	// Deadlines cancel deep inside the engine: an impossible budget
	// returns context.DeadlineExceeded instead of burning CPU.
	tight, cancel := context.WithTimeout(ctx, time.Nanosecond)
	defer cancel()
	_, _, err := sess.WhatIfCtx(tight, []mahif.Modification{
		mahif.ReplaceSQL(0, `UPDATE orders SET fee = 0 WHERE price >= 99`),
	}, mahif.DefaultOptions())
	fmt.Printf("1ns budget: err=%v (deadline=%v)\n", err, errors.Is(err, context.DeadlineExceeded))
}
