package mahif_test

import (
	"testing"

	"github.com/mahif/mahif"
)

// paperExample builds the running example of the paper (Fig. 1–2): the
// Order relation and the three-update shipping fee history.
func paperExample(t *testing.T) *mahif.VersionedDatabase {
	t.Helper()
	s := mahif.NewSchema("orders",
		mahif.Col("id", mahif.KindInt),
		mahif.Col("customer", mahif.KindString),
		mahif.Col("country", mahif.KindString),
		mahif.Col("price", mahif.KindInt),
		mahif.Col("shippingfee", mahif.KindInt),
	)
	rel := mahif.NewRelation(s)
	rel.Add(
		mahif.NewTuple(mahif.Int(11), mahif.Str("Susan"), mahif.Str("UK"), mahif.Int(20), mahif.Int(5)),
		mahif.NewTuple(mahif.Int(12), mahif.Str("Alex"), mahif.Str("UK"), mahif.Int(50), mahif.Int(5)),
		mahif.NewTuple(mahif.Int(13), mahif.Str("Jack"), mahif.Str("US"), mahif.Int(60), mahif.Int(3)),
		mahif.NewTuple(mahif.Int(14), mahif.Str("Mark"), mahif.Str("US"), mahif.Int(30), mahif.Int(4)),
	)
	db := mahif.NewDatabase()
	db.AddRelation(rel)
	vdb := mahif.NewVersioned(db)
	for _, stmt := range []string{
		`UPDATE orders SET shippingfee = 0 WHERE price >= 50`,
		`UPDATE orders SET shippingfee = shippingfee + 5 WHERE country = 'UK' AND price <= 100`,
		`UPDATE orders SET shippingfee = shippingfee - 2 WHERE price <= 30 AND shippingfee >= 10`,
	} {
		if err := vdb.Apply(mahif.MustParseStatement(stmt)); err != nil {
			t.Fatalf("applying %q: %v", stmt, err)
		}
	}
	return vdb
}

// TestPaperRunningExample reproduces Example 2: replacing u1 with u1'
// (price threshold 50 → 60) must yield Δ = {−(12,…,5), +(12,…,10)}.
func TestPaperRunningExample(t *testing.T) {
	mods := []mahif.Modification{
		mahif.ReplaceSQL(0, `UPDATE orders SET shippingfee = 0 WHERE price >= 60`),
	}

	for _, variant := range []mahif.Variant{
		mahif.VariantR, mahif.VariantRPS, mahif.VariantRDS, mahif.VariantRFull,
	} {
		t.Run(string(variant), func(t *testing.T) {
			vdb := paperExample(t)
			engine := mahif.NewEngine(vdb)
			d, _, err := engine.WhatIf(mods, mahif.OptionsFor(variant))
			if err != nil {
				t.Fatalf("WhatIf: %v", err)
			}
			res := d["orders"]
			if res == nil {
				t.Fatalf("no delta for orders; got %v", d)
			}
			if len(res.Minus) != 1 || len(res.Plus) != 1 {
				t.Fatalf("want 1 minus / 1 plus tuple, got %d/%d:\n%s",
					len(res.Minus), len(res.Plus), res)
			}
			wantMinus := mahif.NewTuple(mahif.Int(12), mahif.Str("Alex"), mahif.Str("UK"), mahif.Int(50), mahif.Int(5))
			wantPlus := mahif.NewTuple(mahif.Int(12), mahif.Str("Alex"), mahif.Str("UK"), mahif.Int(50), mahif.Int(10))
			if !res.Minus[0].Equal(wantMinus) {
				t.Errorf("minus tuple = %s, want %s", res.Minus[0], wantMinus)
			}
			if !res.Plus[0].Equal(wantPlus) {
				t.Errorf("plus tuple = %s, want %s", res.Plus[0], wantPlus)
			}
		})
	}
}

// TestNaiveMatchesReenactment checks Alg. 1 and Alg. 2 agree on the
// running example.
func TestNaiveMatchesReenactment(t *testing.T) {
	mods := []mahif.Modification{
		mahif.ReplaceSQL(0, `UPDATE orders SET shippingfee = 0 WHERE price >= 60`),
	}
	vdb := paperExample(t)
	engine := mahif.NewEngine(vdb)
	naive, _, err := engine.Naive(mods)
	if err != nil {
		t.Fatalf("Naive: %v", err)
	}
	fast, _, err := engine.WhatIf(mods, mahif.DefaultOptions())
	if err != nil {
		t.Fatalf("WhatIf: %v", err)
	}
	if !naive["orders"].Equal(fast["orders"]) {
		t.Fatalf("naive delta:\n%s\nreenactment delta:\n%s", naive["orders"], fast["orders"])
	}
}

// TestSetClausesReadTheOldTuple: every SET expression of an UPDATE reads
// the tuple as it was before the statement, so in SET a = a + 100, b = a
// the new b is the old a. Program slicing decides whether the second
// statement depends on the modification from a symbolic execution that
// must read SET the same way: reading b as the new a (≥ 105) there, it
// finds b < 8 unsatisfiable and drops the statement, and the delta loses
// c = 1. Every variant must give Alg. 1's answer.
func TestSetClausesReadTheOldTuple(t *testing.T) {
	build := func() *mahif.VersionedDatabase {
		rel := mahif.NewRelation(mahif.NewSchema("t",
			mahif.Col("id", mahif.KindInt), mahif.Col("a", mahif.KindInt),
			mahif.Col("b", mahif.KindInt), mahif.Col("c", mahif.KindInt)))
		for i := int64(0); i < 30; i++ {
			rel.Add(mahif.NewTuple(mahif.Int(i), mahif.Int(i), mahif.Int(50), mahif.Int(0)))
		}
		db := mahif.NewDatabase()
		db.AddRelation(rel)
		vdb := mahif.NewVersioned(db)
		for _, stmt := range []string{
			`UPDATE t SET a = a + 100, b = a WHERE a >= 10`,
			`UPDATE t SET c = 1 WHERE b < 8 AND a >= 100`,
		} {
			if err := vdb.Apply(mahif.MustParseStatement(stmt)); err != nil {
				t.Fatalf("applying %q: %v", stmt, err)
			}
		}
		return vdb
	}
	mods := []mahif.Modification{mahif.ReplaceSQL(0, `UPDATE t SET a = a + 100, b = a WHERE a >= 5`)}
	want, _, err := mahif.NewEngine(build()).Naive(mods)
	if err != nil {
		t.Fatalf("Naive: %v", err)
	}
	plus := mahif.NewTuple(mahif.Int(5), mahif.Int(105), mahif.Int(5), mahif.Int(1))
	if want["t"] == nil || len(want["t"].Plus) == 0 || !want["t"].Plus[0].Equal(plus) {
		t.Fatalf("Alg. 1's delta does not start with +%s:\n%s", plus, want["t"])
	}
	for _, variant := range []mahif.Variant{mahif.VariantR, mahif.VariantRPS, mahif.VariantRDS, mahif.VariantRFull} {
		got, _, err := mahif.NewEngine(build()).WhatIf(mods, mahif.OptionsFor(variant))
		if err != nil {
			t.Fatalf("%s: %v", variant, err)
		}
		if !got["t"].Equal(want["t"]) {
			t.Errorf("%s: delta\n%s\nAlg. 1's\n%s", variant, got["t"], want["t"])
		}
	}
}
