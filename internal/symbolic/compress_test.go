package symbolic

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"sync"
	"testing"

	"github.com/mahif/mahif/internal/expr"
	"github.com/mahif/mahif/internal/schema"
	"github.com/mahif/mahif/internal/sql"
	"github.com/mahif/mahif/internal/storage"
	"github.com/mahif/mahif/internal/types"
	"github.com/mahif/mahif/internal/workload"
)

func fig1Relation() *storage.Relation {
	r := storage.NewRelation(schema.New("orders",
		schema.Col("country", types.KindString),
		schema.Col("price", types.KindInt),
		schema.Col("fee", types.KindInt),
	))
	r.Add(
		schema.Tuple{types.String("UK"), types.Int(20), types.Int(5)},
		schema.Tuple{types.String("UK"), types.Int(50), types.Int(5)},
		schema.Tuple{types.String("US"), types.Int(60), types.Int(3)},
		schema.Tuple{types.String("US"), types.Int(30), types.Int(4)},
	)
	return r
}

// satisfies evaluates Φ_D under the assignment derived from a tuple.
func satisfies(t *testing.T, phi expr.Expr, rel *storage.Relation, tup schema.Tuple) bool {
	t.Helper()
	env := map[string]types.Value{}
	for i, c := range rel.Schema.Columns {
		env[BaseVar(c.Name)] = tup[i]
	}
	v, err := expr.Eval(phi, &expr.Env{Vars: env})
	if err != nil {
		t.Fatalf("eval %s: %v", phi, err)
	}
	return v.IsTrue()
}

// TestCompressExample7 mirrors the paper's Example 7: grouping Fig. 1
// on Country yields one conjunct per country with tight ranges.
func TestCompressExample7(t *testing.T) {
	rel := fig1Relation()
	phi, err := Compress(rel, CompressOptions{GroupBy: "country", Groups: 2})
	if err != nil {
		t.Fatal(err)
	}
	// Every base tuple satisfies Φ_D (the defining property).
	for _, tup := range rel.Tuples {
		if !satisfies(t, phi, rel, tup) {
			t.Errorf("tuple %s violates Φ_D = %s", tup, phi)
		}
	}
	// The paper's non-example: a UK tuple with price 10 (below the UK
	// group range [20,50]) is excluded.
	if satisfies(t, phi, rel, schema.Tuple{types.String("UK"), types.Int(10), types.Int(5)}) {
		t.Errorf("Φ_D too loose: price 10 admitted: %s", phi)
	}
	// An unknown country is excluded.
	if satisfies(t, phi, rel, schema.Tuple{types.String("DE"), types.Int(30), types.Int(4)}) {
		t.Errorf("Φ_D admits unseen country: %s", phi)
	}
}

func TestCompressNumericGrouping(t *testing.T) {
	rel := fig1Relation()
	phi, err := Compress(rel, CompressOptions{GroupBy: "price", Groups: 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, tup := range rel.Tuples {
		if !satisfies(t, phi, rel, tup) {
			t.Errorf("tuple %s violates Φ_D = %s", tup, phi)
		}
	}
}

func TestCompressEmptyRelation(t *testing.T) {
	rel := storage.NewRelation(fig1Relation().Schema)
	phi, err := Compress(rel, CompressOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !expr.IsTriviallyFalse(phi) {
		t.Errorf("empty relation must compress to false, got %s", phi)
	}
}

func TestCompressUnknownGroupBy(t *testing.T) {
	if _, err := Compress(fig1Relation(), CompressOptions{GroupBy: "missing"}); err == nil {
		t.Error("unknown group-by attribute accepted")
	}
}

func TestCompressManyDistinctStringsUnconstrained(t *testing.T) {
	r := storage.NewRelation(schema.New("t",
		schema.Col("id", types.KindInt),
		schema.Col("name", types.KindString),
	))
	for i := 0; i < 50; i++ {
		r.Add(schema.Tuple{types.Int(int64(i)), types.String(string(rune('a'+i%26)) + string(rune('a'+i/26)))})
	}
	phi, err := Compress(r, CompressOptions{GroupBy: "id", Groups: 1, MaxDistinct: 8})
	if err != nil {
		t.Fatal(err)
	}
	// With >8 distinct names, the name column must be unconstrained, so
	// an arbitrary unseen name is admitted (only id must be in range).
	if !satisfies(t, phi, r, schema.Tuple{types.Int(10), types.String("unseen-name")}) {
		t.Errorf("high-cardinality string column should be unconstrained: %s", phi)
	}
}

// TestCompressOverApproximatesProperty is the soundness property of
// §8.3.1: for random relations and any group count, every tuple of the
// relation satisfies Φ_D.
func TestCompressOverApproximatesProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 60; trial++ {
		rel := storage.NewRelation(schema.New("t",
			schema.Col("g", types.KindString),
			schema.Col("x", types.KindInt),
			schema.Col("y", types.KindFloat),
		))
		n := 1 + rng.Intn(40)
		groups := []string{"a", "b", "c", "d"}
		for i := 0; i < n; i++ {
			rel.Add(schema.Tuple{
				types.String(groups[rng.Intn(len(groups))]),
				types.Int(int64(rng.Intn(1000) - 500)),
				types.Float(float64(rng.Intn(1000)) / 10),
			})
		}
		for _, g := range []int{1, 2, 3, 7} {
			phi, err := Compress(rel, CompressOptions{Groups: g})
			if err != nil {
				t.Fatal(err)
			}
			for _, tup := range rel.Tuples {
				if !satisfies(t, phi, rel, tup) {
					t.Fatalf("trial %d groups %d: tuple %s violates Φ_D = %s", trial, g, tup, phi)
				}
			}
		}
	}
}

// TestCompressTighterWithMoreGroups: more groups can only shrink (or
// keep) the admitted region, never grow it; sample random points to
// check monotonicity.
func TestCompressTighterWithMoreGroups(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	rel := storage.NewRelation(schema.New("t",
		schema.Col("x", types.KindInt),
		schema.Col("y", types.KindInt),
	))
	for i := 0; i < 100; i++ {
		rel.Add(schema.Tuple{types.Int(int64(rng.Intn(100))), types.Int(int64(rng.Intn(100)))})
	}
	phi1, err := Compress(rel, CompressOptions{GroupBy: "x", Groups: 1})
	if err != nil {
		t.Fatal(err)
	}
	phi4, err := Compress(rel, CompressOptions{GroupBy: "x", Groups: 4})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 500; i++ {
		pt := schema.Tuple{types.Int(int64(rng.Intn(120) - 10)), types.Int(int64(rng.Intn(120) - 10))}
		if satisfies(t, phi4, rel, pt) && !satisfies(t, phi1, rel, pt) {
			t.Fatalf("finer compression admits a point the coarser one rejects: %s", pt)
		}
	}
}

// compressByRenderedRows is Compress as it was before the cold path
// stopped rendering rows: string and bool columns go through
// Value.String() and a map per row, the numeric partition sorts through
// sort.Slice over tuple cells. Kept as the golden the typed scan is
// pinned to — Φ_D feeds every slicing formula, so a different Φ_D would
// move solver counts and memo hits everywhere.
func compressByRenderedRows(rel *storage.Relation, opts CompressOptions) (expr.Expr, error) {
	if rel.Len() == 0 {
		return expr.False, nil
	}
	opts = opts.withDefaults(rel)
	gidx := rel.Schema.ColIndex(opts.GroupBy)
	if gidx < 0 {
		return nil, fmt.Errorf("symbolic: group-by attribute %q not in %s", opts.GroupBy, rel.Schema)
	}
	partition := func(n int) [][]int {
		numeric := true
		for _, t := range rel.Tuples {
			if !t[gidx].IsNumeric() {
				numeric = false
				break
			}
		}
		if !numeric {
			buckets := map[string][]int{}
			for i, t := range rel.Tuples {
				buckets[t[gidx].String()] = append(buckets[t[gidx].String()], i)
			}
			keys := make([]string, 0, len(buckets))
			for k := range buckets {
				keys = append(keys, k)
			}
			sort.Strings(keys)
			out := make([][]int, min(n, len(keys)))
			for i, k := range keys {
				g := i % len(out)
				out[g] = append(out[g], buckets[k]...)
			}
			return out
		}
		idx := make([]int, rel.Len())
		for i := range idx {
			idx[i] = i
		}
		sort.Slice(idx, func(a, b int) bool {
			return rel.Tuples[idx[a]][gidx].AsFloat() < rel.Tuples[idx[b]][gidx].AsFloat()
		})
		if n > len(idx) {
			n = len(idx)
		}
		out := make([][]int, n)
		per := (len(idx) + n - 1) / n
		for i, row := range idx {
			out[min(i/per, n-1)] = append(out[min(i/per, n-1)], row)
		}
		return out
	}
	summarize := func(rows []int, ci int, kind types.Kind) expr.Expr {
		v := expr.Variable(BaseVar(rel.Schema.Columns[ci].Name))
		switch kind {
		case types.KindInt, types.KindFloat:
			first := true
			var lo, hi float64
			for _, r := range rows {
				val := rel.Tuples[r][ci]
				if !val.IsNumeric() {
					return nil
				}
				f := val.AsFloat()
				if first {
					lo, hi, first = f, f, false
					continue
				}
				lo, hi = math.Min(lo, f), math.Max(hi, f)
			}
			if first {
				return nil
			}
			if lo == hi {
				return expr.Eq(v, numConst(kind, lo))
			}
			return expr.AndOf(expr.Ge(v, numConst(kind, lo)), expr.Le(v, numConst(kind, hi)))
		case types.KindString, types.KindBool:
			distinct := map[string]types.Value{}
			for _, r := range rows {
				val := rel.Tuples[r][ci]
				if val.IsNull() || val.Kind() != kind {
					return nil
				}
				distinct[val.String()] = val
				if len(distinct) > opts.MaxDistinct {
					return nil
				}
			}
			keys := make([]string, 0, len(distinct))
			for k := range distinct {
				keys = append(keys, k)
			}
			sort.Strings(keys)
			var alts []expr.Expr
			for _, k := range keys {
				alts = append(alts, expr.Eq(v, expr.Constant(distinct[k])))
			}
			return expr.OrOf(alts...)
		}
		return nil
	}
	var disjuncts []expr.Expr
	for _, rows := range partition(opts.Groups) {
		if len(rows) == 0 {
			continue
		}
		var conj []expr.Expr
		for ci, col := range rel.Schema.Columns {
			if c := summarize(rows, ci, col.Type); c != nil {
				conj = append(conj, c)
			}
		}
		disjuncts = append(disjuncts, expr.AndOf(conj...))
	}
	return expr.Simplify(expr.OrOf(disjuncts...)), nil
}

// requireSamePhi compares Compress with the golden on one relation
// under one option set: expr.Equal, and rendered alike (Equal folds
// 0.0 with −0.0, the rendering does not).
func requireSamePhi(t *testing.T, what string, rel *storage.Relation, opts CompressOptions) {
	t.Helper()
	got, errGot := Compress(rel, opts)
	want, errWant := compressByRenderedRows(rel, opts)
	if (errGot == nil) != (errWant == nil) {
		t.Fatalf("%s %+v: err = %v, golden err = %v", what, opts, errGot, errWant)
	}
	if errGot != nil {
		return
	}
	if !expr.Equal(got, want) || got.String() != want.String() {
		t.Fatalf("%s %+v: Φ_D differs from the golden\n got  %s\n want %s", what, opts, got, want)
	}
}

// TestCompressMatchesGoldenTaxi: the benchmark's relation, under the
// engine's default options and the grouping choices the harnesses use.
func TestCompressMatchesGoldenTaxi(t *testing.T) {
	for _, seed := range []int64{1, 7} {
		rel := workload.Taxi(6000, seed).Rel
		for _, opts := range []CompressOptions{
			{}, {Groups: 1}, {Groups: 5}, {GroupBy: "company"}, {GroupBy: "company", Groups: 3},
			{GroupBy: "pickup_area", Groups: 4}, // 77 values over 6000 rows: every boundary falls among ties
			{GroupBy: "fare", Groups: 7, MaxDistinct: 3}, {GroupBy: "missing"},
		} {
			requireSamePhi(t, fmt.Sprintf("taxi seed %d", seed), rel, opts)
		}
	}
}

// TestCompressMatchesGoldenAwkwardCells covers what Taxi does not have:
// NULLs, cells whose kind deviates from the column's, bools, strings
// whose SQL rendering orders differently from the raw text, distinct
// counts at and around the cap, and non-numeric grouping columns.
func TestCompressMatchesGoldenAwkwardCells(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	texts := []string{"a", "a b", "a'", "a''b", "ab", "", "A", "a!", "b", "NULL", "'", "zz", "a#", "true"}
	cell := func(kind types.Kind, odd int) types.Value {
		if odd > 0 && rng.Intn(odd) == 0 {
			switch rng.Intn(3) {
			case 0:
				return types.Null()
			case 1:
				return types.Float(float64(rng.Intn(9)) + 0.5) // deviant in int, string and bool columns
			default:
				return types.String("stray") // deviant in numeric and bool columns
			}
		}
		switch kind {
		case types.KindInt:
			return types.Int(int64(rng.Intn(12) - 4))
		case types.KindFloat:
			return types.Float(float64(rng.Intn(40)) / 4)
		case types.KindBool:
			return types.Bool(rng.Intn(2) == 0)
		}
		return types.String(texts[rng.Intn(len(texts))])
	}
	for trial := 0; trial < 300; trial++ {
		rel := storage.NewRelation(schema.New("t",
			schema.Col("k", types.KindInt), schema.Col("s", types.KindString),
			schema.Col("f", types.KindFloat), schema.Col("b", types.KindBool),
			schema.Col("s2", types.KindString),
		))
		// odd = 0: clean columns; otherwise one cell in `odd` deviates.
		odd := []int{0, 0, 40, 6}[rng.Intn(4)]
		vocab := 1 + rng.Intn(len(texts))
		for i, n := 0, 1+rng.Intn(60); i < n; i++ {
			rel.Add(schema.Tuple{
				cell(types.KindInt, odd), types.String(texts[rng.Intn(vocab)]),
				cell(types.KindFloat, odd), cell(types.KindBool, odd), cell(types.KindString, odd),
			})
		}
		for _, opts := range []CompressOptions{
			{}, {Groups: 3}, {GroupBy: "s", Groups: 2}, {GroupBy: "s2", Groups: 4, MaxDistinct: 2},
			{GroupBy: "b"}, {GroupBy: "f", Groups: 5, MaxDistinct: len(texts)},
		} {
			requireSamePhi(t, fmt.Sprintf("trial %d", trial), rel, opts)
		}
	}
}

// frozenTaxi publishes version `ver` of a small Taxi history through a
// snapshot cache and returns the cache with the published relation.
func frozenTaxi(t *testing.T, cache *storage.SnapshotCache, ver int) *storage.Relation {
	t.Helper()
	db, err := cache.SnapshotCtx(context.Background(), ver)
	if err != nil {
		t.Fatal(err)
	}
	rel, err := db.Relation("trips")
	if err != nil {
		t.Fatal(err)
	}
	return rel
}

func taxiStore(t *testing.T) *storage.VersionedDatabase {
	t.Helper()
	vdb := storage.NewVersioned(workload.Taxi(500, 3).Database())
	for _, src := range []string{
		"UPDATE trips SET tips = tips + 1 WHERE trip_seconds >= 5000",
		"DELETE FROM trips WHERE trip_miles >= 9000",
		"UPDATE trips SET extras = 0 WHERE pickup_area = 7",
	} {
		if err := vdb.Apply(sql.MustParseStatement(src)); err != nil {
			t.Fatal(err)
		}
	}
	return vdb
}

// TestCompressOncePerFrozenRelation (run under -race): concurrent
// Compress calls on one published relation scan it once per option set
// and all get that one Φ_D, equal to a fresh computation; other options
// get their own; the memo goes with the snapshot.
func TestCompressOncePerFrozenRelation(t *testing.T) {
	cache := storage.NewSnapshotCache(taxiStore(t))
	rel := frozenTaxi(t, cache, 2)
	optsA, optsB := CompressOptions{}, CompressOptions{GroupBy: "company", Groups: 3}

	const callers = 12
	phis := make([]expr.Expr, callers)
	var wg sync.WaitGroup
	for g := 0; g < callers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			opts := optsA
			if g%2 == 1 {
				opts = optsB
			}
			phi, err := Compress(rel, opts)
			if err != nil {
				t.Error(err)
			}
			phis[g] = phi
		}(g)
	}
	wg.Wait()
	if hits, misses := cache.DerivedStats(); misses != 2 || hits != callers-2 {
		t.Errorf("%d concurrent calls over 2 option sets: %d scans, %d reuses; want 2, %d", callers, misses, hits, callers-2)
	}
	private := rel.Clone()
	for g, phi := range phis {
		opts := optsA
		if g%2 == 1 {
			opts = optsB
		}
		if phi != phis[g%2] {
			t.Errorf("caller %d got its own Φ_D object", g)
		}
		fresh, err := Compress(private, opts)
		if err != nil {
			t.Fatal(err)
		}
		if !expr.Equal(phi, fresh) {
			t.Errorf("caller %d: remembered Φ_D differs from a fresh one\n got  %s\n want %s", g, phi, fresh)
		}
	}
	if expr.Equal(phis[0], phis[1]) {
		t.Error("two option sets share one Φ_D")
	}
	// Defaults are resolved before the lookup: spelling them out is the
	// same option set, not a third scan.
	if phi, _ := Compress(rel, CompressOptions{GroupBy: "trip_id", Groups: 2, MaxDistinct: 8}); phi != phis[0] {
		t.Error("explicit defaults missed the memo")
	}

	// Evict version 2, rebuild it: a new relation, scanned again.
	cache.SetLimit(1)
	frozenTaxi(t, cache, 3)
	rebuilt := frozenTaxi(t, cache, 2)
	_, before := cache.DerivedStats()
	phi, err := Compress(rebuilt, optsA)
	if err != nil {
		t.Fatal(err)
	}
	if _, after := cache.DerivedStats(); after != before+1 || phi == phis[0] {
		t.Error("a rebuilt snapshot answered from the evicted snapshot's memo")
	}
	if !expr.Equal(phi, phis[0]) {
		t.Error("the rebuilt snapshot's Φ_D differs from the evicted one's")
	}
}

// TestCompressNeverRemembersPrivateRelations: a relation nobody froze
// may change between two calls, and Φ_D follows it.
func TestCompressNeverRemembersPrivateRelations(t *testing.T) {
	rel := fig1Relation()
	opts := CompressOptions{GroupBy: "country"}
	before, err := Compress(rel, opts)
	if err != nil {
		t.Fatal(err)
	}
	rel.Tuples[0][1] = types.Int(5) // UK price 20 → 5: the UK range widens
	after, err := Compress(rel, opts)
	if err != nil {
		t.Fatal(err)
	}
	if expr.Equal(before, after) {
		t.Fatalf("Φ_D did not follow the mutation: %s", after)
	}
	if !satisfies(t, after, rel, rel.Tuples[0]) {
		t.Errorf("mutated tuple violates Φ_D = %s", after)
	}

	// The same through a clone of a published relation.
	cl := frozenTaxi(t, storage.NewSnapshotCache(taxiStore(t)), 1).Clone()
	first, _ := Compress(cl, CompressOptions{})
	cl.Tuples = cl.Tuples[:len(cl.Tuples)/2]
	second, _ := Compress(cl, CompressOptions{})
	if expr.Equal(first, second) {
		t.Error("a clone of a published relation remembered its Φ_D across a mutation")
	}
}

// summarizeTuples is summarize as it read the relation's tuples before
// it read the columnar lanes: the oracle the lane summary is pinned to
// (TestCompressLanesMatchTuples). opts carry their defaults.
func summarizeTuples(rel *storage.Relation, opts CompressOptions) (expr.Expr, error) {
	gidx := rel.Schema.ColIndex(opts.GroupBy)
	if gidx < 0 {
		return nil, fmt.Errorf("symbolic: group-by attribute %q not in %s", opts.GroupBy, rel.Schema)
	}
	var disjuncts []expr.Expr
	for _, rows := range partitionTuples(rel, gidx, opts.Groups) {
		if len(rows) == 0 {
			continue
		}
		var conj []expr.Expr
		for ci, col := range rel.Schema.Columns {
			if c := summarizeTupleColumn(rel, rows, ci, col.Type, opts.MaxDistinct); c != nil {
				conj = append(conj, c)
			}
		}
		disjuncts = append(disjuncts, expr.AndOf(conj...))
	}
	return expr.Simplify(expr.OrOf(disjuncts...)), nil
}

// partitionTuples is partition over tuples.
func partitionTuples(rel *storage.Relation, gidx, n int) [][]int {
	keys := make([]float64, rel.Len())
	numeric := true
	for i, t := range rel.Tuples {
		if !t[gidx].IsNumeric() {
			numeric = false
			break
		}
		keys[i] = t[gidx].AsFloat()
	}
	if !numeric {
		buckets := map[string][]int{}
		for i, t := range rel.Tuples {
			k := t[gidx].String()
			buckets[k] = append(buckets[k], i)
		}
		names := make([]string, 0, len(buckets))
		for k := range buckets {
			names = append(names, k)
		}
		sort.Strings(names)
		out := make([][]int, min(n, len(names)))
		for i, k := range names {
			g := i % len(out)
			out[g] = append(out[g], buckets[k]...)
		}
		return out
	}
	idx := make([]int, rel.Len())
	for i := range idx {
		idx[i] = i
	}
	sort.Sort(byKey{keys: keys, rows: idx})
	if n > len(idx) {
		n = len(idx)
	}
	out := make([][]int, n)
	per := (len(idx) + n - 1) / n
	for g := range out {
		out[g] = idx[min(g*per, len(idx)):min((g+1)*per, len(idx))]
	}
	return out
}

// summarizeTupleColumn is summarizeColumn over tuples.
func summarizeTupleColumn(rel *storage.Relation, rows []int, ci int, kind types.Kind, maxDistinct int) expr.Expr {
	v := expr.Variable(BaseVar(rel.Schema.Columns[ci].Name))
	switch kind {
	case types.KindInt, types.KindFloat:
		first := true
		var lo, hi float64
		for _, r := range rows {
			val := rel.Tuples[r][ci]
			if !val.IsNumeric() {
				return nil
			}
			f := val.AsFloat()
			if first {
				lo, hi, first = f, f, false
				continue
			}
			if f < lo {
				lo = f
			}
			if f > hi {
				hi = f
			}
		}
		if first {
			return nil
		}
		loC, hiC := numConst(kind, lo), numConst(kind, hi)
		if lo == hi {
			return expr.Eq(v, loC)
		}
		return expr.AndOf(expr.Ge(v, loC), expr.Le(v, hiC))
	case types.KindString, types.KindBool:
		distinct := make([]types.Value, 0, maxDistinct)
	scan:
		for _, r := range rows {
			val := rel.Tuples[r][ci]
			if val.Kind() != kind {
				return nil
			}
			for _, d := range distinct {
				if d.Equal(val) {
					continue scan
				}
			}
			if len(distinct) == maxDistinct {
				return nil
			}
			distinct = append(distinct, val)
		}
		sort.Slice(distinct, func(a, b int) bool { return distinct[a].String() < distinct[b].String() })
		alts := make([]expr.Expr, len(distinct))
		for i, d := range distinct {
			alts[i] = expr.Eq(v, expr.Constant(d))
		}
		return expr.OrOf(alts...)
	}
	return nil
}

// TestCompressLanesMatchTuples: Φ_D read from the columnar lanes is
// byte for byte the Φ_D the tuple-reading summary gives, over relations
// with NULLs in typed and boxed lanes, cells whose kind deviates from
// their column's (boxed lanes), more distinct strings than MaxDistinct,
// group-by keys with many ties, and non-numeric group-by columns — on
// private relations (a private transposition) and on published ones
// (the shared view).
func TestCompressLanesMatchTuples(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	words := []string{"a", "b", "c'", "d d", "e", "", "F", "g", "h", "i", "j", "k"}
	cell := func(kind types.Kind, odd int) types.Value {
		if odd > 0 && rng.Intn(odd) == 0 {
			switch rng.Intn(3) {
			case 0:
				return types.Null()
			case 1:
				return types.Float(float64(rng.Intn(5)) + 0.25)
			default:
				return types.String("stray")
			}
		}
		switch kind {
		case types.KindInt:
			return types.Int(int64(rng.Intn(6))) // few keys: many ties
		case types.KindFloat:
			return types.Float(float64(rng.Intn(30)) / 8)
		case types.KindBool:
			return types.Bool(rng.Intn(2) == 0)
		}
		return types.String(words[rng.Intn(len(words))])
	}
	sch := schema.New("t",
		schema.Col("k", types.KindInt), schema.Col("f", types.KindFloat),
		schema.Col("s", types.KindString), schema.Col("b", types.KindBool),
		schema.Col("n", types.KindInt))
	for trial := 0; trial < 200; trial++ {
		rel := storage.NewRelation(sch)
		odd := []int{0, 0, 50, 8}[rng.Intn(4)]
		for i, n := 0, 1+rng.Intn(300); i < n; i++ {
			rel.Add(schema.Tuple{
				cell(types.KindInt, odd), cell(types.KindFloat, odd), cell(types.KindString, odd),
				cell(types.KindBool, odd), types.Int(int64(i % 3)),
			})
		}
		db := storage.NewDatabase()
		db.AddRelation(rel)
		snap, err := storage.NewSnapshotCache(storage.NewVersioned(db)).SnapshotCtx(context.Background(), 0)
		if err != nil {
			t.Fatal(err)
		}
		published, _ := snap.Relation("t")
		for _, opts := range []CompressOptions{
			{}, {Groups: 3}, {GroupBy: "n", Groups: 4}, {GroupBy: "s", Groups: 2, MaxDistinct: 3},
			{GroupBy: "b"}, {GroupBy: "f", Groups: 5, MaxDistinct: len(words)}, {Groups: 7, MaxDistinct: 1},
		} {
			want, err := summarizeTuples(rel, opts.withDefaults(rel))
			if err != nil {
				t.Fatal(err)
			}
			for _, r := range []*storage.Relation{rel, published} {
				got, err := Compress(r, opts)
				if err != nil {
					t.Fatal(err)
				}
				if !expr.Equal(got, want) || got.String() != want.String() {
					t.Fatalf("trial %d %+v: lane Φ_D differs from the tuple oracle\n got  %s\n want %s", trial, opts, got, want)
				}
			}
		}
	}
}

// TestCompressDerivedViewsConcurrently (run under -race): goroutines
// walk adjacent versions of a Taxi history through a small snapshot
// cache and compress each snapshot, so a miss derives its view from a
// start whose lanes another goroutine is summarizing. Every Φ_D must be
// the tuple oracle's.
func TestCompressDerivedViewsConcurrently(t *testing.T) {
	const steps, walkers = 16, 4
	rng := rand.New(rand.NewSource(17))
	vdb := storage.NewVersioned(workload.Taxi(1500, 5).Database())
	for k := 0; k < steps; k++ {
		lo := rng.Intn(workload.SelRange * 9 / 10)
		src := fmt.Sprintf("UPDATE trips SET tips = tips + %d WHERE trip_seconds >= %d AND trip_seconds < %d", k+1, lo, lo+workload.SelRange/10)
		if k%3 == 2 {
			src = fmt.Sprintf("UPDATE trips SET company = 'walker %d' WHERE trip_miles < %d", k, lo/4)
		}
		if err := vdb.Apply(sql.MustParseStatement(src)); err != nil {
			t.Fatal(err)
		}
	}
	cache := storage.NewSnapshotCache(vdb)
	cache.SetLimit(5)
	optsList := []CompressOptions{{}, {GroupBy: "company", Groups: 3}}
	var wg sync.WaitGroup
	errs := make(chan error, walkers)
	for g := 0; g < walkers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for step := 0; step < 2*steps; step++ {
				ver := (g*2 + step) % steps
				db, err := cache.SnapshotCtx(context.Background(), ver)
				if err != nil {
					errs <- err
					return
				}
				rel, _ := db.Relation("trips")
				if _, err := rel.SharedColumnar(); err != nil {
					errs <- err
					return
				}
				for _, opts := range optsList {
					got, err := Compress(rel, opts)
					if err != nil {
						errs <- err
						return
					}
					want, err := summarizeTuples(rel, opts.withDefaults(rel))
					if err != nil {
						errs <- err
						return
					}
					if got.String() != want.String() {
						errs <- fmt.Errorf("walker %d, version %d, %+v: Φ_D differs from the tuple oracle", g, ver, opts)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if cache.ColumnarDerived() == 0 {
		t.Fatal("no view was derived: the walkers never met a lineage")
	}
}
