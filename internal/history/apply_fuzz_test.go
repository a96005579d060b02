package history

import (
	"math"
	"math/rand"
	"testing"

	"github.com/mahif/mahif/internal/expr"
	"github.com/mahif/mahif/internal/schema"
	"github.com/mahif/mahif/internal/storage"
	"github.com/mahif/mahif/internal/types"
)

// fuzzApplyCols is FuzzIndexedApply's schema: one column per class,
// and m, whose cells mix all of them.
func fuzzApplyCols() []schema.Column {
	return []schema.Column{
		schema.Col("i", types.KindInt),
		schema.Col("x", types.KindFloat),
		schema.Col("s", types.KindString),
		schema.Col("b", types.KindBool),
		schema.Col("m", types.KindInt),
	}
}

// fuzzApplyConsts is FuzzIndexedApply's constant pool: NaN, both zeros,
// both infinities, 2^53 and 2^53+1 as ints and the floats around them,
// NULL, and strings and bools for comparisons across classes.
func fuzzApplyConsts() []types.Value {
	const two53 = int64(1) << 53
	return []types.Value{
		types.Float(math.NaN()), types.Float(0), types.Float(math.Copysign(0, -1)),
		types.Float(math.Inf(1)), types.Float(math.Inf(-1)),
		types.Int(two53), types.Int(two53 + 1), types.Int(-two53 - 1),
		types.Float(float64(two53)), types.Float(float64(two53) + 2),
		types.Null(),
		types.String("a"), types.String("1"), types.String(""),
		types.True, types.False,
	}
}

// fuzzApplyDB draws relation r of at least storage.MinIndexRows rows
// from seed: i holds small ints, NULLs and 2^53 neighbours; x floats
// with NULLs, NaNs, zeros of both signs and infinities; s strings; b
// bools; m a value of any class.
func fuzzApplyDB(seed int64) *storage.Database {
	rng := rand.New(rand.NewSource(seed))
	pool := fuzzApplyConsts()
	r := storage.NewRelation(schema.New("r", fuzzApplyCols()...))
	rows := storage.MinIndexRows + rng.Intn(200)
	for range rows {
		i := types.Value(types.Int(int64(rng.Intn(40))))
		switch rng.Intn(40) {
		case 0, 1:
			i = types.Null()
		case 2:
			i = pool[5+rng.Intn(3)]
		}
		x := types.Value(types.Float(float64(rng.Intn(40))))
		switch rng.Intn(30) {
		case 0, 1:
			x = types.Float(math.NaN())
		case 2, 3:
			x = types.Null()
		case 4:
			x = pool[1+rng.Intn(4)]
		}
		s := types.Value(types.String([]string{"a", "b", "c", "1"}[rng.Intn(4)]))
		if rng.Intn(12) == 0 {
			s = types.Null()
		}
		b := types.Value(types.Bool(rng.Intn(2) == 0))
		if rng.Intn(12) == 0 {
			b = types.Null()
		}
		m := []types.Value{types.Int(int64(rng.Intn(40))), types.Float(float64(rng.Intn(40))),
			types.String("a"), types.True, types.Null()}[rng.Intn(5)]
		r.Add(schema.NewTuple(i, x, s, b, m))
	}
	db := storage.NewDatabase()
	db.AddRelation(r)
	return db
}

// fuzzApplyStatements decodes 1–4 UPDATE, DELETE or INSERT statements
// over fuzzApplyDB's relation from prog. A constant byte below 40 is
// that int, below 80 the float 40 less, and otherwise picks from
// fuzzApplyConsts.
func fuzzApplyStatements(prog []byte) []Statement {
	next := func() int {
		if len(prog) == 0 {
			return 0
		}
		b := prog[0]
		prog = prog[1:]
		return int(b)
	}
	pool := fuzzApplyConsts()
	cols := fuzzApplyCols()
	konst := func() *expr.Const {
		switch b := next(); {
		case b < 40:
			return expr.IntConst(int64(b))
		case b < 80:
			return expr.FloatConst(float64(b - 40))
		default:
			return expr.Constant(pool[(b-80)%len(pool)])
		}
	}
	column := func() *expr.Col { return expr.Column(cols[next()%len(cols)].Name) }
	cmps := []func(l, r expr.Expr) *expr.Cmp{expr.Eq, expr.Ne, expr.Lt, expr.Le, expr.Gt, expr.Ge}
	cond := func() expr.Expr {
		var conj []expr.Expr
		for n := 1 + next()%3; len(conj) < n; {
			switch f := next() % 8; f {
			case 5: // errors where i = 0; NULL where i is NULL
				conj = append(conj, expr.Gt(expr.Div(expr.IntConst(100), expr.Column("i")), expr.IntConst(0)))
			case 6:
				conj = append(conj, expr.BoolConst(next()%2 == 0))
			case 7:
				conj = append(conj, &expr.IsNull{E: column()})
			default:
				c, k := column(), konst()
				conj = append(conj, cmps[next()%len(cmps)](c, k))
			}
		}
		return expr.AndOf(conj...)
	}
	var out []Statement
	for n := 1 + next()%4; len(out) < n; {
		switch next() % 3 {
		case 0:
			c := column()
			var e expr.Expr = konst()
			if next()%2 == 0 {
				e = expr.Add(c, expr.IntConst(1))
			}
			out = append(out, &Update{Rel: "r", Set: []SetClause{{Col: c.Name, E: e}}, Where: cond()})
		case 1:
			out = append(out, &Delete{Rel: "r", Where: cond()})
		default:
			var rows []schema.Tuple
			for n := 1 + next()%3; len(rows) < n; {
				t := make(schema.Tuple, len(cols))
				for c := range t {
					t[c] = konst().V
				}
				rows = append(rows, t)
			}
			out = append(out, &InsertValues{Rel: "r", Rows: rows})
		}
	}
	return out
}

// FuzzIndexedApply: statements applied through one maintained IndexSet
// leave the relation the naive loops leave after every statement, and
// fail exactly when the naive loops fail, with their error — leaving the
// state as it was. The relation is drawn from seed, the statements from
// prog.
func FuzzIndexedApply(f *testing.F) {
	// Pool bytes (80 + the index in fuzzApplyConsts).
	const nan, posInf, two53, null, strA, strOne = 80, 83, 85, 90, 91, 92
	for _, op := range []byte{5, 0, 2} { // SET x = 1 WHERE i >= NaN, i = NaN, i < NaN
		f.Add(int64(1), []byte{0, 0, 1, 1, 1, 0, 0, 0, nan, op})
	}
	// SET i = 1 WHERE x = 20, x >= 20, over NaN cells.
	f.Add(int64(2), []byte{0, 0, 0, 1, 1, 0, 0, 1, 20, 0})
	f.Add(int64(7), []byte{0, 0, 0, 1, 1, 0, 0, 1, 20, 5})
	// SET i = 1 WHERE s = 'a' AND s = '1' AND 100 / i > 0: a
	// contradiction ahead of a conjunct that errors on a row whose s is
	// NULL and whose i is 0.
	f.Add(int64(3), []byte{0, 0, 0, 1, 1, 2, 0, 2, strA, 0, 0, 2, strOne, 0, 5})
	f.Add(int64(4), []byte{3, 2, 4, two53, posInf, null, nan, strA, 1, 0, 1, 1, 4, 0, 3, 0, 5, 0, 0, 6, 0, 0, 0, nan, 5})
	// SET b = b + 1 WHERE m >= 8.0: the first failing row fails the SET
	// vector (bool + int), a later row of its chunk fails θ (a string or
	// bool m against a float).
	f.Add(int64(1), []byte{0, 0, 3, 0, 0, 0, 0, 4, 48, 5})
	f.Fuzz(func(t *testing.T, seed int64, prog []byte) {
		base := fuzzApplyDB(seed)
		naive, fast := base.Clone(), base.Clone()
		ix := storage.NewIndexSet()
		for _, st := range fuzzApplyStatements(prog) {
			before := naive.Clone()
			errN := applyNaiveStatement(t, st, naive)
			errF := st.ApplyIndexed(fast, ix)
			if (errN == nil) != (errF == nil) || errN != nil && errN.Error() != errF.Error() {
				t.Fatalf("%s: naive error %v, indexed error %v", st, errN, errF)
			}
			if errN != nil {
				// A failed statement never enters a history: the indexed
				// side must be untouched, and the naive side, which may
				// have written some rows, restarts from it.
				requireDatabasesEqual(t, "after failed "+st.String(), before, fast)
				naive = before
				continue
			}
			requireDatabasesEqual(t, "after "+st.String(), naive, fast)
		}
	})
}
