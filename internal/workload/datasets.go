// Package workload generates the synthetic datasets and parameterized
// transactional histories used by the experiment harness (§13.1–13.2).
// The three datasets mirror the paper's: a Chicago-taxi-trips-shaped
// table, the TPC-C stock relation, and a YCSB usertable. Histories are
// controlled by the paper's knobs:
//
//	U — number of updates, M — number of modifications,
//	D — percent of updates dependent on the modified update(s),
//	T — percent of tuples affected by each dependent update,
//	I/X — percent of insert/delete statements.
//
// Selection attributes are uniformly distributed over [0, SelRange), so
// a condition attr >= (1−T/100)·SelRange affects exactly ≈T% of tuples
// and thresholds are exact quantiles.
package workload

import (
	"math/rand"

	"github.com/mahif/mahif/internal/schema"
	"github.com/mahif/mahif/internal/storage"
	"github.com/mahif/mahif/internal/types"
)

// SelRange is the value range of the uniform selection attributes.
const SelRange = 10000

// Dataset bundles a generated relation with the metadata the history
// generator needs.
type Dataset struct {
	Name string
	Rel  *storage.Relation
	// SelAttr is the primary uniform selection attribute (conditions of
	// modified and dependent updates).
	SelAttr string
	// SelAttr2 is a second, independent uniform attribute (conditions
	// of independent updates).
	SelAttr2 string
	// Payload lists attributes that updates write.
	Payload []string
	// GroupBy is the compression grouping attribute.
	GroupBy string
	// NewRow generates one random tuple (for insert statements).
	NewRow func(r *rand.Rand, id int) schema.Tuple
}

var companies = []string{
	"Flash Cab", "Taxi Affiliation Services", "Yellow Cab", "Blue Diamond",
	"Chicago Carriage", "City Service", "Sun Taxi", "Medallion Leasing",
}

// Taxi generates a taxi-trips-shaped relation with rows tuples.
func Taxi(rows int, seed int64) *Dataset {
	s := schema.New("trips",
		schema.Col("trip_id", types.KindInt),
		schema.Col("company", types.KindString),
		schema.Col("pickup_area", types.KindInt),
		schema.Col("trip_seconds", types.KindInt),
		schema.Col("trip_miles", types.KindInt),
		schema.Col("fare", types.KindFloat),
		schema.Col("tips", types.KindFloat),
		schema.Col("tolls", types.KindFloat),
		schema.Col("extras", types.KindFloat),
		schema.Col("trip_total", types.KindFloat),
	)
	r := rand.New(rand.NewSource(seed))
	newRow := func(r *rand.Rand, id int) schema.Tuple {
		fare := float64(r.Intn(20000)) / 100
		tips := float64(r.Intn(2000)) / 100
		tolls := float64(r.Intn(500)) / 100
		extras := float64(r.Intn(1000)) / 100
		return schema.Tuple{
			types.Int(int64(id)),
			types.String(companies[r.Intn(len(companies))]),
			types.Int(int64(r.Intn(77))),
			types.Int(int64(r.Intn(SelRange))),
			types.Int(int64(r.Intn(SelRange))),
			types.Float(fare),
			types.Float(tips),
			types.Float(tolls),
			types.Float(extras),
			types.Float(fare + tips + tolls + extras),
		}
	}
	rel := storage.NewRelation(s)
	rel.Tuples = make([]schema.Tuple, 0, rows)
	for i := 0; i < rows; i++ {
		rel.Tuples = append(rel.Tuples, newRow(r, i))
	}
	return &Dataset{
		Name:     "taxi",
		Rel:      rel,
		SelAttr:  "trip_seconds",
		SelAttr2: "trip_miles",
		Payload:  []string{"tips", "extras", "trip_total"},
		GroupBy:  "company",
		NewRow:   newRow,
	}
}

// TPCC generates the TPC-C stock relation with rows tuples.
func TPCC(rows int, seed int64) *Dataset {
	s := schema.New("stock",
		schema.Col("s_i_id", types.KindInt),
		schema.Col("s_w_id", types.KindInt),
		schema.Col("s_quantity", types.KindInt),
		schema.Col("s_ytd", types.KindInt),
		schema.Col("s_order_cnt", types.KindInt),
		schema.Col("s_remote_cnt", types.KindInt),
	)
	r := rand.New(rand.NewSource(seed))
	newRow := func(r *rand.Rand, id int) schema.Tuple {
		return schema.Tuple{
			types.Int(int64(id)),
			types.Int(int64(r.Intn(100))),
			types.Int(int64(r.Intn(SelRange))),
			types.Int(int64(r.Intn(SelRange))),
			types.Int(int64(r.Intn(10))),
			types.Int(int64(r.Intn(10))),
		}
	}
	rel := storage.NewRelation(s)
	rel.Tuples = make([]schema.Tuple, 0, rows)
	for i := 0; i < rows; i++ {
		rel.Tuples = append(rel.Tuples, newRow(r, i))
	}
	return &Dataset{
		Name:     "tpcc",
		Rel:      rel,
		SelAttr:  "s_quantity",
		SelAttr2: "s_ytd",
		Payload:  []string{"s_order_cnt", "s_remote_cnt"},
		GroupBy:  "s_w_id",
		NewRow:   newRow,
	}
}

// YCSB generates a YCSB-usertable-shaped relation with rows tuples.
func YCSB(rows int, seed int64) *Dataset {
	s := schema.New("usertable",
		schema.Col("ycsb_key", types.KindInt),
		schema.Col("field0", types.KindInt),
		schema.Col("field1", types.KindInt),
		schema.Col("field2", types.KindInt),
		schema.Col("field3", types.KindInt),
		schema.Col("field4", types.KindInt),
	)
	r := rand.New(rand.NewSource(seed))
	newRow := func(r *rand.Rand, id int) schema.Tuple {
		return schema.Tuple{
			types.Int(int64(id)),
			types.Int(int64(r.Intn(SelRange))),
			types.Int(int64(r.Intn(SelRange))),
			types.Int(int64(r.Intn(SelRange))),
			types.Int(int64(r.Intn(SelRange))),
			types.Int(int64(r.Intn(SelRange))),
		}
	}
	rel := storage.NewRelation(s)
	rel.Tuples = make([]schema.Tuple, 0, rows)
	for i := 0; i < rows; i++ {
		rel.Tuples = append(rel.Tuples, newRow(r, i))
	}
	return &Dataset{
		Name:     "ycsb",
		Rel:      rel,
		SelAttr:  "field0",
		SelAttr2: "field1",
		Payload:  []string{"field2", "field3", "field4"},
		GroupBy:  "ycsb_key",
		NewRow:   newRow,
	}
}

// Database wraps the dataset relation in a fresh database.
func (d *Dataset) Database() *storage.Database {
	db := storage.NewDatabase()
	db.AddRelation(d.Rel.Clone())
	return db
}
